"""Ground disjunctive logic programs: data model and classes.

Atoms are interned to dense integer ids (0..n-1, first-occurrence order).
Interpretations and atom sets are plain ``int`` bitmasks over those ids:
bit ``1 << a`` is set iff atom ``a`` is in the set.  Rules keep their atom
sets as sorted id tuples only; the table algorithms see them as slot masks
(``engine.BagRule``), and the oracle builds its own atom masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .engine import BagRule


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for a in ids:
        m |= 1 << a
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits, ascending.  Each step peels the lowest
    set bit, so a call takes one step per set bit, not one per position."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Rule:
    """One ground rule: disjunctive head, positive body, negative body."""

    head: tuple[int, ...]
    pos_body: tuple[int, ...]
    neg_body: tuple[int, ...]

    @staticmethod
    def make(head: Iterable[int], pos_body: Iterable[int], neg_body: Iterable[int]) -> "Rule":
        return Rule(tuple(sorted(set(head))), tuple(sorted(set(pos_body))), tuple(sorted(set(neg_body))))


def is_model(interp: int, rules: Sequence[BagRule]) -> bool:
    """True iff the interpretation satisfies every rule.  It reads the
    ``engine.BagRule`` masks, so ``interp`` is over the same slots (or atom
    ids, for a ``BagRule`` built with each atom its own slot)."""
    for r in rules:
        if not ((r.head_mask | r.neg_mask) & interp or r.pos_mask & ~interp):
            return False
    return True


class ProgramKind(Enum):
    TIGHT = "tight"
    HEAD_CYCLE_FREE = "head-cycle-free"
    DISJUNCTIVE = "disjunctive"


@dataclass(frozen=True)
class ProgramClass:
    kind: ProgramKind
    is_normal: bool
    components: dict[int, int] = field(compare=False)  # see cyclic_components


@dataclass(frozen=True)
class DependencyDigraph:
    """Positive dependency digraph: edge (a, b) for a in B+ and b in H of a rule."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]


class Program:
    """A finite set of ground rules plus a projection atom set.

    Immutable after construction.  Duplicate rules are collapsed; atom ids are
    dense and owned by the instance.  ``projection`` is a bitmask and is
    always a subset of the atom mask.
    """

    __slots__ = ("atom_names", "rules", "projection", "_index")

    def __init__(self, atom_names: Sequence[str], rules: Sequence[Rule], projection: int):
        self.atom_names = tuple(atom_names)
        self.rules = tuple(rules)
        if projection & ~self.atom_mask:
            raise ValueError("projection atoms outside atom table")
        self.projection = projection
        self._index = {name: i for i, name in enumerate(self.atom_names)}

    @classmethod
    def from_specs(
        cls,
        rule_specs: Iterable[tuple[Iterable[str], Iterable[str], Iterable[str]]],
        projection: Iterable[str] | None = None,
    ) -> "Program":
        """Build from (head, pos_body, neg_body) name triples in source order.

        Atom ids follow first occurrence across the given triples.  When
        ``projection`` is None the projection defaults to all atoms.
        """
        names: list[str] = []
        index: dict[str, int] = {}

        def intern(name: str) -> int:
            i = index.get(name)
            if i is None:
                i = len(names)
                index[name] = i
                names.append(name)
            return i

        rules = []
        seen = set()
        for head, pos, neg in rule_specs:
            r = Rule.make([intern(a) for a in head], [intern(a) for a in pos], [intern(a) for a in neg])
            if r not in seen:
                seen.add(r)
                rules.append(r)
        if projection is None:
            pmask = (1 << len(names)) - 1
        else:
            pmask = 0
            for name in projection:
                if name not in index:
                    raise ValueError(f"projection atom {name!r} does not occur in any rule")
                pmask |= 1 << index[name]
        return cls(names, rules, pmask)

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @property
    def atom_mask(self) -> int:
        return (1 << len(self.atom_names)) - 1

    def atom_id(self, name: str) -> int:
        return self._index[name]

    def mask(self, names: Iterable[str]) -> int:
        return mask_of(self._index[n] for n in names)

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.atom_names[a] for a in iter_bits(mask))

    def with_projection(self, projection: int) -> "Program":
        return Program(self.atom_names, self.rules, projection)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (
            self.atom_names == other.atom_names
            and self.rules == other.rules
            and self.projection == other.projection
        )

    def __hash__(self) -> int:
        return hash((self.atom_names, self.rules, self.projection))

    def __repr__(self) -> str:
        return f"Program(atoms={len(self.atom_names)}, rules={len(self.rules)})"


def dependency_digraph(program: Program) -> DependencyDigraph:
    verts = set()
    edges = set()
    for r in program.rules:
        verts.update(r.head)
        verts.update(r.pos_body)
        for a in r.pos_body:
            for b in r.head:
                edges.add((a, b))
    return DependencyDigraph(frozenset(verts), frozenset(edges))


def _sccs(vertices: Iterable[int], succ: dict[int, list[int]]) -> dict[int, int]:
    """Iterative Tarjan; returns vertex -> component id."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pi, len(succ.get(v, ()))):
                w = succ[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def cyclic_components(program: Program) -> dict[int, int]:
    """Component id of every atom on a positive cycle: the atoms of strongly
    connected components of size > 1 and atoms with a positive self-loop."""
    dep = dependency_digraph(program)
    succ: dict[int, list[int]] = {}
    for a, b in sorted(dep.edges):
        succ.setdefault(a, []).append(b)
    comp = _sccs(sorted(dep.vertices), succ)
    sizes: dict[int, int] = {}
    for c in comp.values():
        sizes[c] = sizes.get(c, 0) + 1
    return {v: c for v, c in comp.items() if sizes[c] > 1 or v in succ.get(v, ())}


def classify(program: Program) -> ProgramClass:
    """Classify by the positive dependency digraph.

    Tight when no atom lies on a positive cycle; otherwise head-cycle-free
    when no two distinct head atoms of one rule share a cycle (equivalently a
    cyclic component); otherwise disjunctive.  Normality is independent.
    """
    comp = cyclic_components(program)
    is_normal = all(len(r.head) <= 1 for r in program.rules)
    if not comp:
        return ProgramClass(ProgramKind.TIGHT, is_normal, comp)
    for r in program.rules:
        head_comps = [comp[a] for a in r.head if a in comp]
        if len(head_comps) != len(set(head_comps)):
            return ProgramClass(ProgramKind.DISJUNCTIVE, is_normal, comp)
    return ProgramClass(ProgramKind.HEAD_CYCLE_FREE, is_normal, comp)

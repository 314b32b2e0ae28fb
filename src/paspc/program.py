"""Ground disjunctive logic programs: data model and classes.

Atoms are interned to dense integer ids (0..n-1, first-occurrence order).
Interpretations and atom sets are plain ``int`` bitmasks over those ids:
bit ``1 << a`` is set iff atom ``a`` is in the set.  Rules keep their atom
sets as sorted id tuples only; each table algorithm translates them to slot
masks in its own ``rule``, and the oracle builds its own atom masks.

A program's class (tight, head-cycle-free or disjunctive) is read off its
positive dependency digraph, which is never built as an object of its own:
``cyclic_components`` keeps one successor list per atom id and runs one
Tarjan pass over them, and ``classify`` reads the components it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence


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


class Rule(NamedTuple):
    """One ground rule: disjunctive head, positive body, negative body, each
    a sorted tuple of distinct atom ids.  A rule is a plain tuple of the
    three, so it hashes and compares in C, equal to any rule of the same
    atom sets.  ``make`` sorts and deduplicates the ids and is the one way
    ``Program.from_specs`` and ``formats.parse_program`` build a rule; it
    calls ``tuple.__new__`` directly, skipping the generated constructor."""

    head: tuple[int, ...]
    pos_body: tuple[int, ...]
    neg_body: tuple[int, ...]

    @staticmethod
    def make(head: Iterable[int], pos_body: Iterable[int], neg_body: Iterable[int]) -> "Rule":
        return tuple.__new__(
            Rule, (tuple(sorted(set(head))), tuple(sorted(set(pos_body))), tuple(sorted(set(neg_body))))
        )


def is_model(interp: int, rules: Sequence[tuple]) -> bool:
    """True iff the interpretation satisfies every rule.  It reads each
    rule's (head, positive body, negative body) masks at positions 0 to 2,
    where every form of a table algorithm's ``rule`` holds them, so
    ``interp`` is over the same slots (or atom ids, for masks built with
    each atom its own slot)."""
    for r in rules:
        if not ((r[0] | r[2]) & interp or r[1] & ~interp):
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


class Program:
    """A finite set of ground rules plus a projection atom set.

    Immutable after construction.  Duplicate rules are collapsed; atom ids are
    dense and owned by the instance.  ``projection`` is a bitmask and is
    always a subset of the atom mask.
    """

    __slots__ = ("atom_names", "rules", "projection", "_index")

    def __init__(
        self,
        atom_names: Sequence[str],
        rules: Sequence[Rule],
        projection: int,
        index: dict[str, int] | None = None,
    ):
        """``index`` is the name -> id map of ``atom_names``, when the caller
        has already built it; the program then owns it."""
        self.atom_names = tuple(atom_names)
        self.rules = tuple(rules)
        if projection & ~self.atom_mask:
            raise ValueError("projection atoms outside atom table")
        self.projection = projection
        self._index = {name: i for i, name in enumerate(self.atom_names)} if index is None else index

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
        index: dict[str, int] = {}  # atom ids in first-occurrence order
        rules: dict[Rule, None] = {}  # first occurrences, in order
        for head, pos, neg in rule_specs:
            ids = [[index.setdefault(a, len(index)) for a in names] for names in (head, pos, neg)]
            rules[Rule.make(*ids)] = None
        if projection is None:
            pmask = (1 << len(index)) - 1
        else:
            pmask = 0
            for name in projection:
                if name not in index:
                    raise ValueError(f"projection atom {name!r} does not occur in any rule")
                pmask |= 1 << index[name]
        return cls(list(index), list(rules), pmask, index)

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
        """A copy with another projection; it shares the atoms, the rules and
        the name index."""
        return Program(self.atom_names, self.rules, projection, self._index)

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


def cyclic_components(program: Program) -> dict[int, int]:
    """Component id of every atom on a positive cycle: the atoms of strongly
    connected components of size > 1 and atoms with a positive self-loop.
    One iterative Tarjan runs over per-atom successor lists of the positive
    dependency digraph (a -> b for a in B+ and b in H of a rule), roots and
    successors ascending; cyclic components are numbered as they complete."""
    n = program.n_atoms
    heads: list[set[int]] = [set() for _ in range(n)]
    for r in program.rules:
        for a in r.pos_body:
            heads[a].update(r.head)
    succ = [sorted(s) for s in heads]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp: dict[int, int] = {}
    counter = n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            if index[v] < 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            for w in todo:
                if index[w] < 0:
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    i = len(stack) - 1  # scan from the top: ``stack.index`` searches from the bottom
                    while stack[i] != v:
                        i -= 1
                    members = stack[i:]
                    del stack[i:]
                    for w in members:
                        on_stack[w] = False
                    if len(members) > 1 or v in heads[v]:
                        comp.update(dict.fromkeys(members, n_comp))
                        n_comp += 1
    return comp


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
        if len(r.head) > 1:
            head_comps = [comp[a] for a in r.head if a in comp]
            if len(head_comps) != len(set(head_comps)):
                return ProgramClass(ProgramKind.DISJUNCTIVE, is_normal, comp)
    return ProgramClass(ProgramKind.HEAD_CYCLE_FREE, is_normal, comp)

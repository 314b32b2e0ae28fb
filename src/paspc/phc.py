"""Table algorithm for head-cycle-free (and tight) programs.

Rows are triples (interpretation, proven atoms, atom ordering), all restricted
to the current bag and all over bag slots (see ``engine``): the
interpretation and the proven atoms are slot masks, ints of at most width+1
bits, and the ordering names no atom id either.
Removal keeps a row only if the removed atom is proven or false.
Provability only compares atoms of one non-trivial strongly connected
component of the positive dependency digraph (SCC-local level rankings), so
the ordering holds just the true cyclic atoms, and only their order within
each component: it is a tuple of (slot, rank) pairs, ascending by slot, one
per true cyclic atom, the rank being the atom's position among the true
cyclic atoms of its own component in the bag.  Ranks of two components are
never compared, so no order of the components has to be fixed.  An acyclic
head atom is proven by plain rule support, and on tight programs the
ordering is always empty.

The generators read a node's atom, bag and rules only through its
``context``, which holds slots and slot masks only: two nodes whose bags
and rules differ only in their atoms' names have equal contexts, so the
node memo gives them one table.  Built with every atom in one component,
the class is the paper's algorithm, which orders every true bag atom, and a
rank is then the atom's position in the ordering.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .program import Rule, is_model


class PhcRow(NamedTuple):
    interp: int
    proven: int
    order: tuple[tuple[int, int], ...]  # (slot, rank) per true cyclic atom, ascending by slot


def gp(interp: int, order: tuple[tuple[int, int], ...], rules: Sequence[tuple]) -> int:
    """Atoms provable under the interpretation and ordering (as a slot mask),
    by rules in ``PhcAlgorithm.rule``'s form.

    A head atom is provable when the positive body holds and the negative
    body and the rest of the head are false.  A cyclic head atom must also
    be ordered, with every positive body atom of its own component ranked
    strictly before it; body atoms missing from the ordering fail that
    condition.
    """
    rank = None  # slot -> rank, built for the first cyclic head atom
    proven = 0
    for head_mask, pos_mask, neg_mask, acyclic, cyclic in rules:
        if pos_mask & ~interp or neg_mask & interp:
            continue
        # an acyclic head atom is proven when no other head atom is true
        true_heads = interp & head_mask
        if not true_heads & (true_heads - 1):
            proven |= acyclic & true_heads if true_heads else acyclic
        for bit, slot, below in cyclic:
            if interp & (head_mask & ~bit):
                continue
            if rank is None:
                rank = dict(order)
            ia = rank.get(slot)
            if ia is None or any(rank.get(b, ia) >= ia for b in below):
                continue
            proven |= bit
    return proven


def _insertions(order: tuple[tuple[int, int], ...], slot: int, same: int) -> list[tuple[tuple[int, int], ...]]:
    """Orderings with a true cyclic atom introduced at ``slot``: one per rank
    0..k, k being the number of ordered atoms whose slots are in ``same``
    (the other bag atoms of its component), each of them at or after that
    rank moved up one.  The other components' ranks are untouched."""
    at = bisect_left(order, slot, key=itemgetter(0))
    k = sum(same >> s & 1 for s, _ in order)
    out = []
    for r in range(k + 1):
        moved = [p if p[1] < r or not same >> p[0] & 1 else (p[0], p[1] + 1) for p in order]
        moved.insert(at, (slot, r))
        out.append(tuple(moved))
    return out


def _without(order: tuple[tuple[int, int], ...], slot: int, same: int) -> tuple[tuple[int, int], ...]:
    """The ordering less the atom at ``slot``, the atoms of its component
    (slots in ``same``) ranked after it moved down one."""
    r = dict(order)[slot]
    return tuple(p if p[1] < r or not same >> p[0] & 1 else (p[0], p[1] - 1) for p in order if p[0] != slot)


class PhcAlgorithm:
    """PHC for one program, given the component id of each cyclic atom."""

    name = "phc"
    solution_row = PhcRow(0, 0, ())

    def __init__(self, components: Mapping[int, int]):
        self.components = components

    @staticmethod
    def interp(row: PhcRow) -> int:
        return row.interp

    def rule(self, r: Rule, slots: Sequence[int]) -> tuple:
        """The rule's (head, positive body, negative body) slot masks, the
        mask of its acyclic head atoms and, per cyclic head atom, its slot
        bit, its slot and the slots of the positive-body atoms of its
        component, which ``gp`` compares by rank.  No atom id: each atom has
        one slot per solve, distinct within each bag.  On a tight program no
        atom is cyclic."""
        get = self.components.get
        head = pos = neg = acyclic = 0
        cyclic = ()
        for a in r.pos_body:
            pos |= 1 << slots[a]
        for a in r.neg_body:
            neg |= 1 << slots[a]
        for a in r.head:
            bit = 1 << slots[a]
            head |= bit
            c = get(a)
            if c is None:
                acyclic |= bit
            else:
                cyclic += ((bit, slots[a], tuple([slots[b] for b in r.pos_body if get(b) == c])),)
        return head, pos, neg, acyclic, cyclic

    def context(self, atom: int, rules: Sequence[tuple], bag: Iterable[int], slots: Sequence[int]) -> Hashable:
        """The atom's slot bit; if it is cyclic, its slot and the slot mask of
        the other bag atoms of its component (whose ranks ``_insertions``
        and ``_without`` shift), else None and 0; and the entering rules'
        forms (see ``rule``)."""
        slot = slots[atom]
        get = self.components.get
        c = get(atom)
        if c is None:
            return 1 << slot, None, 0, tuple(rules)
        same = 0
        for b in bag:
            if b != atom and get(b) == c:
                same |= 1 << slots[b]
        return 1 << slot, slot, same, tuple(rules)

    @staticmethod
    def introduce(ctx: tuple, child_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, int]]:
        # rows here and in ``prim`` are built by the C tuple constructor: the
        # NamedTuple's own __new__ is a Python function, twice the cost per row
        new_row = tuple.__new__
        bit, slot, same, rules = ctx
        for ci, (base, proven, order) in enumerate(child_rows):
            for interp in (base, base | bit):
                if not is_model(interp, rules):
                    continue
                for new_order in _insertions(order, slot, same) if interp & bit and slot is not None else (order,):
                    yield new_row(PhcRow, (interp, proven | gp(interp, new_order, rules), new_order)), ci

    @staticmethod
    def remove(ctx: tuple, child_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, int]]:
        new_row = tuple.__new__
        bit, slot, same, _ = ctx
        for ci, (interp, proven, order) in enumerate(child_rows):
            if proven & bit or not interp & bit:
                if interp & bit and slot is not None:
                    order = _without(order, slot, same)
                yield new_row(PhcRow, (interp & ~bit, proven & ~bit, order)), ci

    @staticmethod
    def join(left_rows: Sequence[PhcRow], right_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, int]]:
        new_row = tuple.__new__
        right: dict[tuple[int, tuple[tuple[int, int], ...]], list[tuple[int, int]]] = {}
        for cj, (interp, proven, order) in enumerate(right_rows):
            right.setdefault((interp, order), []).append((cj, proven))
        stride = len(right_rows)
        for ci, (interp, proven, order) in enumerate(left_rows):
            base = ci * stride
            for cj, proven2 in right.get((interp, order), ()):
                yield new_row(PhcRow, (interp, proven | proven2, order)), base + cj

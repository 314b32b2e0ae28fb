"""Table algorithm for head-cycle-free (and tight) programs.

Rows are triples (interpretation, proven atoms, atom ordering), all restricted
to the current bag.  The interpretation and the proven atoms are slot masks
(see ``engine``), ints of at most width+1 bits; the ordering lists atom ids,
and ``gp`` reads each head atom's slot bit from the translated rule.
Removal keeps a row only if the removed atom is proven or false.
Provability only compares atoms of one non-trivial strongly connected
component of the positive dependency digraph (SCC-local level rankings), so
the ordering holds just the true cyclic atoms, grouped by component id: an
acyclic head atom is proven by plain rule support, and on tight programs the
ordering is always empty.  Built with every atom in one component, the class
is the paper's algorithm, which orders every true bag atom.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Mapping, NamedTuple, Sequence

from .engine import BagRule
from .program import is_model


class PhcRow(NamedTuple):
    interp: int
    proven: int
    order: tuple[int, ...]


def gp(interp: int, order: tuple[int, ...], rules: Sequence[BagRule], components: Mapping[int, int]) -> int:
    """Atoms provable under the interpretation and ordering (as a slot mask).

    A head atom is provable when the positive body holds and the negative
    body and the rest of the head are false.  A cyclic head atom (one with a
    component id) must also be ordered, with every positive body atom of its
    own component strictly before it; body atoms missing from the ordering
    fail that condition.
    """
    pos_at = None  # atom -> position in the ordering, built for the first cyclic head atom
    proven = 0
    for r in rules:
        if r.pos_mask & ~interp or r.neg_mask & interp:
            continue
        for a, bit in zip(r.head, r.head_bits):
            if interp & (r.head_mask & ~bit):
                continue
            c = components.get(a)
            if c is not None:
                if pos_at is None:
                    pos_at = {b: i for i, b in enumerate(order)}
                ia = pos_at.get(a)
                if ia is None:
                    continue
                if any(components.get(b) == c and pos_at.get(b, ia) >= ia for b in r.pos_body):
                    continue
            proven |= bit
    return proven


class PhcAlgorithm:
    """PHC for one program, given the component id of each cyclic atom."""

    name = "phc"
    solution_row = PhcRow(0, 0, ())

    def __init__(self, components: Mapping[int, int]):
        self.components = components

    @staticmethod
    def interp(row: PhcRow) -> int:
        return row.interp

    def for_width(self, width: int) -> PhcAlgorithm:
        return self

    def _orders(self, order: tuple[int, ...], atom: int) -> list[tuple[int, ...]]:
        """Orderings with the introduced true cyclic atom: its insertions
        among the atoms of its own component, whose block the ordering keeps
        contiguous by component id; the other atoms keep their positions."""
        comp = self.components
        c = comp[atom]
        start = bisect_left(order, c, key=comp.__getitem__)
        end = bisect_right(order, c, lo=start, key=comp.__getitem__)
        return [order[:i] + (atom,) + order[i:] for i in range(start, end + 1)]

    def introduce(
        self, atom: int, slot: int, rules: Sequence[BagRule], child_rows: Sequence[PhcRow]
    ) -> Iterator[tuple[PhcRow, tuple[int]]]:
        # rows here and in ``prim`` are built by the C tuple constructor: the
        # NamedTuple's own __new__ is a Python function, twice the cost per row
        new_row = tuple.__new__
        comp = self.components
        bit = 1 << slot
        cyclic = atom in comp
        for ci, (base, proven, order) in enumerate(child_rows):
            origin = (ci,)
            for interp in (base, base | bit):
                if not is_model(interp, rules):
                    continue
                for new_order in self._orders(order, atom) if interp & bit and cyclic else (order,):
                    yield new_row(PhcRow, (interp, proven | gp(interp, new_order, rules, comp), new_order)), origin

    def remove(self, atom: int, slot: int, child_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, tuple[int]]]:
        new_row = tuple.__new__
        bit = 1 << slot
        cyclic = atom in self.components
        for ci, (interp, proven, order) in enumerate(child_rows):
            if proven & bit or not interp & bit:
                if cyclic:
                    order = tuple(a for a in order if a != atom)
                yield new_row(PhcRow, (interp & ~bit, proven & ~bit, order)), (ci,)

    @staticmethod
    def join(left_rows: Sequence[PhcRow], right_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, tuple[int, int]]]:
        new_row = tuple.__new__
        right: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
        for cj, (interp, proven, order) in enumerate(right_rows):
            right.setdefault((interp, order), []).append((cj, proven))
        for ci, (interp, proven, order) in enumerate(left_rows):
            for cj, proven2 in right.get((interp, order), ()):
                yield new_row(PhcRow, (interp, proven | proven2, order)), (ci, cj)

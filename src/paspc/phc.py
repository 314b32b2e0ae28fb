"""Table algorithm for head-cycle-free (and tight) programs.

Rows are triples (interpretation, proven atoms, atom ordering), all restricted
to the current bag.  The interpretation and the proven atoms are slot masks
(see ``engine``), ints of at most width+1 bits; the ordering lists atom ids,
and ``gp`` reads each head atom's slot bit from the node's context.
Removal keeps a row only if the removed atom is proven or false.
Provability only compares atoms of one non-trivial strongly connected
component of the positive dependency digraph (SCC-local level rankings), so
the ordering holds just the true cyclic atoms, grouped by component id: an
acyclic head atom is proven by plain rule support, and on tight programs the
ordering is always empty.  The generators read a node's atom, slot and rules
only through its ``context``, which keeps the ids of the cyclic atoms and
slot masks for the rest.  Built with every atom in one component, the class
is the paper's algorithm, which orders every true bag atom.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Hashable, Iterator, Mapping, NamedTuple, Sequence

from .engine import BagRule
from .program import is_model


class PhcRow(NamedTuple):
    interp: int
    proven: int
    order: tuple[int, ...]


def gp(interp: int, order: tuple[int, ...], rules: Sequence[tuple]) -> int:
    """Atoms provable under the interpretation and ordering (as a slot mask),
    by the rules of a ``PhcAlgorithm.context``.

    A head atom is provable when the positive body holds and the negative
    body and the rest of the head are false.  A cyclic head atom must also
    be ordered, with every positive body atom of its own component strictly
    before it; body atoms missing from the ordering fail that condition.
    """
    pos_at = None  # atom -> position in the ordering, built for the first cyclic head atom
    proven = 0
    for head_mask, pos_mask, neg_mask, acyclic, cyclic in rules:
        if pos_mask & ~interp or neg_mask & interp:
            continue
        # an acyclic head atom is proven when no other head atom is true
        true_heads = interp & head_mask
        if not true_heads & (true_heads - 1):
            proven |= acyclic & true_heads if true_heads else acyclic
        for bit, a, below in cyclic:
            if interp & (head_mask & ~bit):
                continue
            if pos_at is None:
                pos_at = {b: i for i, b in enumerate(order)}
            ia = pos_at.get(a)
            if ia is None or any(pos_at.get(b, ia) >= ia for b in below):
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

    def context(self, atom: int, slot: int, rules: Sequence[BagRule]) -> Hashable:
        """The slot bit, the atom if it is cyclic, and per rule its slot
        masks, the mask of its acyclic head atoms and, per cyclic head atom,
        its slot bit, its id and the positive-body atoms of its component.
        An acyclic atom only sets or tests its bit, and each atom has one
        slot per solve, so its id adds nothing.  A cyclic atom id enters the
        orderings (``_orders``, the cyclic ``remove``) and is compared by
        position in ``gp``.  On a tight program no atom is cyclic."""
        comp = self.components
        get = comp.get
        ctx_rules = []
        for head_mask, pos_mask, neg_mask, head_bits, source in rules:
            acyclic, cyclic = head_mask, ()
            for bit, a in zip(head_bits, source.head):
                c = get(a)
                if c is not None:
                    acyclic &= ~bit
                    cyclic += ((bit, a, tuple(b for b in source.pos_body if get(b) == c)),)
            ctx_rules.append((head_mask, pos_mask, neg_mask, acyclic, cyclic))
        return 1 << slot, atom if atom in comp else None, tuple(ctx_rules)

    def _orders(self, order: tuple[int, ...], atom: int) -> list[tuple[int, ...]]:
        """Orderings with the introduced true cyclic atom: its insertions
        among the atoms of its own component, whose block the ordering keeps
        contiguous by component id; the other atoms keep their positions."""
        comp = self.components
        c = comp[atom]
        start = bisect_left(order, c, key=comp.__getitem__)
        end = bisect_right(order, c, lo=start, key=comp.__getitem__)
        return [order[:i] + (atom,) + order[i:] for i in range(start, end + 1)]

    def introduce(self, ctx: tuple, child_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, int]]:
        # rows here and in ``prim`` are built by the C tuple constructor: the
        # NamedTuple's own __new__ is a Python function, twice the cost per row
        new_row = tuple.__new__
        bit, cyclic, rules = ctx
        for ci, (base, proven, order) in enumerate(child_rows):
            for interp in (base, base | bit):
                if not is_model(interp, rules):
                    continue
                for new_order in self._orders(order, cyclic) if interp & bit and cyclic is not None else (order,):
                    yield new_row(PhcRow, (interp, proven | gp(interp, new_order, rules), new_order)), ci

    @staticmethod
    def remove(ctx: tuple, child_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, int]]:
        new_row = tuple.__new__
        bit, cyclic, _ = ctx
        for ci, (interp, proven, order) in enumerate(child_rows):
            if proven & bit or not interp & bit:
                if cyclic is not None:
                    order = tuple(a for a in order if a != cyclic)
                yield new_row(PhcRow, (interp & ~bit, proven & ~bit, order)), ci

    @staticmethod
    def join(left_rows: Sequence[PhcRow], right_rows: Sequence[PhcRow]) -> Iterator[tuple[PhcRow, int]]:
        new_row = tuple.__new__
        right: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
        for cj, (interp, proven, order) in enumerate(right_rows):
            right.setdefault((interp, order), []).append((cj, proven))
        stride = len(right_rows)
        for ci, (interp, proven, order) in enumerate(left_rows):
            base = ci * stride
            for cj, proven2 in right.get((interp, order), ()):
                yield new_row(PhcRow, (interp, proven | proven2, order)), base + cj

"""Table algorithm for arbitrary disjunctive programs.

A row pairs a bag-restricted witness interpretation M with the set C of bag
projections of all proper submodels of the reduct under the witness (counter
witnesses).  A witness whose C is empty at the (empty-bag) root is minimal,
hence an answer set.  Counter witnesses are never filtered at removal: their
strictness was established when they diverged from the witness and survives
projection to smaller bags.

Rows are encoded in bag slots (see ``engine``).  M is a slot mask, and C is
a subset bitset: bit n of C is set iff the slot subset n (a slot mask) is a
counter witness, so C is an int of at most 2^(width+1) bits.  With B_s the
bitset of the slot subsets that contain slot s and b = 1 << s, every
transition is a few big-int operations:

- introduce slot s: ``C & R_W`` for a witness W without s, and
  ``(C | C << b) & R_W | (R_W & 1 << W')`` for a witness W with s, where W'
  is the child's witness.  R_W, the bitset of the slot subsets that model
  the reduct under W of the node's rules, is the AND over the rules r with
  ``r.neg_mask & W == 0`` of ``OR_{s in head} B_s | ~AND_{s in pos} B_s``;
- remove slot s: ``(C & ~B_s) | ((C & B_s) >> b)``;
- join: ``(C1 & C2) | ((1 << W) & (C1 | C2))``.

The bitset costs 2^(width+1) bits per row however few counters the row
has, and so do B_s, R_W and ``1 << W``.  ``pipeline.pick_algorithm``
therefore picks it only up to ``DENSE_MAX_WIDTH``: at width 9 a counter
bitset has 1,024 bits, no larger than an empty frozenset.  A wider
decomposition runs ``SparsePrimAlgorithm``, whose C is a frozenset of slot
masks tested against the reduct one by one, so its rows cost what their
counters cost.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .program import Rule, is_model, iter_bits


# the widest decomposition on which prim keeps counter sets as bitsets
DENSE_MAX_WIDTH = 9


class PrimRow(NamedTuple):
    witness: int
    counters: int | frozenset[int]  # a subset bitset, or a frozenset of slot masks


class PrimAlgorithm:
    """``prim`` with each counter set a subset bitset, for decompositions
    of width ``width`` at most: it holds the bitsets B_s over the subsets
    of slots 0..width, built once, and a solve reads them only."""

    name = "prim"
    solution_row = PrimRow(0, 0)

    def __init__(self, width: int) -> None:
        # B_s by slot s: a slot k added to slots 0..k-1 doubles the subsets,
        # so each B_s repeats in the upper half, and B_k is the upper half
        with_slot: list[int] = []
        for k in range(width + 1):
            half = 1 << k  # subsets of slots 0..k-1
            with_slot = [x | x << half for x in with_slot]
            with_slot.append(((1 << half) - 1) << half)
        self.with_slot = tuple(with_slot)

    @staticmethod
    def interp(row: PrimRow) -> int:
        return row.witness

    @staticmethod
    def rule(r: Rule, slots: Sequence[int]) -> tuple[int, int, int]:
        """The rule's (head, positive body, negative body) slot masks: the
        generators read rules only through them."""
        head = pos = neg = 0
        for a in r.head:
            head |= 1 << slots[a]
        for a in r.pos_body:
            pos |= 1 << slots[a]
        for a in r.neg_body:
            neg |= 1 << slots[a]
        return head, pos, neg

    @staticmethod
    def context(atom: int, rules: Sequence[tuple], bag: Iterable[int], slots: Sequence[int]) -> Hashable:
        """The atom's slot and the entering rules' masks: the generators read
        atoms only through their slots, one per atom in a solve.  The rest
        of the bag adds nothing."""
        return slots[atom], tuple(rules)

    def introduce(self, ctx: tuple, child_rows: Sequence[PrimRow]) -> Iterator[tuple[PrimRow, int]]:
        new_row = tuple.__new__
        slot, rules = ctx
        bit = 1 << slot
        with_slot = self.with_slot
        # per rule, the subsets satisfying it in a reduct: a head slot
        # in the subset, or a positive body slot outside it
        satisfied = []
        for head_mask, pos_mask, neg_mask in rules:
            head, body = 0, -1
            for s in iter_bits(head_mask):
                head |= with_slot[s]
            for s in iter_bits(pos_mask):
                body &= with_slot[s]
            satisfied.append((neg_mask, head | ~body))
        reduct_models: dict[int, int | None] = {}  # R_W by witness; None if W is no model
        for ci, (base, c) in enumerate(child_rows):
            for witness in (base, base | bit):
                if witness in reduct_models:
                    r_w = reduct_models[witness]
                else:
                    r_w = None
                    if is_model(witness, rules):
                        r_w = -1
                        for neg, sat in satisfied:
                            if not neg & witness:
                                r_w &= sat
                    reduct_models[witness] = r_w
                if r_w is None:
                    continue
                if witness & bit:
                    # every counter with and without the new slot, and the
                    # old witness: it lacks the new atom, so it is now a
                    # strictly smaller model candidate
                    counters = ((c | c << bit) & r_w) | (r_w & 1 << base)
                else:
                    counters = c & r_w
                yield new_row(PrimRow, (witness, counters)), ci

    def remove(self, ctx: tuple, child_rows: Sequence[PrimRow]) -> Iterator[tuple[PrimRow, int]]:
        new_row = tuple.__new__
        slot = ctx[0]
        bit = 1 << slot
        with_s = self.with_slot[slot]
        without_s = ~with_s
        for ci, (witness, c) in enumerate(child_rows):
            yield new_row(PrimRow, (witness & ~bit, (c & without_s) | (c & with_s) >> bit)), ci

    @staticmethod
    def join(left_rows: Sequence[PrimRow], right_rows: Sequence[PrimRow]) -> Iterator[tuple[PrimRow, int]]:
        new_row = tuple.__new__
        right: dict[int, list[tuple[int, Any]]] = {}
        for cj, (witness, c2) in enumerate(right_rows):
            right.setdefault(witness, []).append((cj, c2))
        stride = len(right_rows)
        for ci, (witness, c1) in enumerate(left_rows):
            base = ci * stride
            for cj, c2 in right.get(witness, ()):
                yield new_row(PrimRow, (witness, (c1 & c2) | ((1 << witness) & (c1 | c2)))), base + cj


class SparsePrimAlgorithm:
    """``prim`` for one solve with each counter set a frozenset of slot
    masks, for decompositions wider than ``DENSE_MAX_WIDTH``."""

    name = "prim"
    solution_row = PrimRow(0, frozenset())

    @staticmethod
    def interp(row: PrimRow) -> int:
        return row.witness

    # the same inputs, read through the same masks
    rule = staticmethod(PrimAlgorithm.rule)
    context = staticmethod(PrimAlgorithm.context)

    @staticmethod
    def introduce(ctx: tuple, child_rows: Sequence[PrimRow]) -> Iterator[tuple[PrimRow, int]]:
        new_row = tuple.__new__
        slot, rules = ctx
        bit = 1 << slot
        # per witness, the (head, positive body) of the reduct's rules;
        # None if the witness is no model
        reducts: dict[int, list[tuple[int, int]] | None] = {}
        for ci, (base, c) in enumerate(child_rows):
            for witness in (base, base | bit):
                if witness in reducts:
                    reduct = reducts[witness]
                else:
                    reduct = None
                    if is_model(witness, rules):
                        reduct = [(head, pos) for head, pos, neg in rules if not neg & witness]
                    reducts[witness] = reduct
                if reduct is None:
                    continue
                candidates = set(c)
                if witness & bit:
                    # as in the bitset form: every counter with and
                    # without the new slot, and the old witness
                    candidates.update([n | bit for n in candidates])
                    candidates.add(base)
                counters = frozenset(n for n in candidates if all(head & n or pos & ~n for head, pos in reduct))
                yield new_row(PrimRow, (witness, counters)), ci

    @staticmethod
    def remove(ctx: tuple, child_rows: Sequence[PrimRow]) -> Iterator[tuple[PrimRow, int]]:
        new_row = tuple.__new__
        keep = ~(1 << ctx[0])
        for ci, (witness, counters) in enumerate(child_rows):
            yield new_row(PrimRow, (witness & keep, frozenset([n & keep for n in counters]))), ci

    @staticmethod
    def join(left_rows: Sequence[PrimRow], right_rows: Sequence[PrimRow]) -> Iterator[tuple[PrimRow, int]]:
        new_row = tuple.__new__
        right: dict[int, list[tuple[int, Any]]] = {}
        for cj, (witness, c2) in enumerate(right_rows):
            right.setdefault(witness, []).append((cj, c2))
        stride = len(right_rows)
        for ci, (witness, c1) in enumerate(left_rows):
            base = ci * stride
            for cj, c2 in right.get(witness, ()):
                merged = c1 & c2
                if witness in c1 or witness in c2:
                    merged |= {witness}
                yield new_row(PrimRow, (witness, merged)), base + cj

"""Projected counting pass over the DP tables' kept rows, read in place.

Rows of a purged table are grouped into buckets by the projection of their
interpretation part; every nonempty subset of a bucket (a sub-bucket) gets an
entry holding the number of projected answer sets shared by all of its rows.
Those intersection counts are combined bottom-up with the inclusion-exclusion
principle over origin subsets, and the root entry is the projected count.

All counts are exact arbitrary-precision integers.  ``run_proj`` evaluates
the defining per-entry formulas (kept as the reference in the tests)
bucket-wise, which turns the per-entry exponential enumeration into one
shared pass per bucket.  Each bucket stores one array indexed by local row
mask: the projected (union) counts; the intersection counts are their
subset Moebius transform, derived where they are read.

The pass reads the kept rows and their origins where the DP tables store
them, the origins one int each (see ``engine``): a row's first origin from
the node's ``first`` array, its further ones from the side store ``more``,
which most rows are not in.  Under one child an origin is the child row's
index; at a join, origin o is the pair (i, j) = divmod(o, stride) of left
row i and right row j, stride being the right child's row count.

A row set's projected count sums, per child bucket its origins fall into,
the size of the union of those origins' sets.  One origin mask per row,
ORed over every row subset, gives each subset's mask, read as that count.
Below a one-child node the origins meet at most two child buckets, with
disjoint sets, so a read adds two stored union counts.  Below a join an
origin pair (i, j) stands for the product A_i x B_j of the children's sets,
and a set S of pairs from buckets (b1, b2) has

    |U_{(i,j) in S} A_i x B_j| = sum over nonempty I of e(I) * P2(N_S(I)),

where e(I) is the size of the Venn region "in exactly the A_i with i in I"
(derived from b1's union counts once per evaluated bucket, kept where
nonzero), N_S(I) is the set of right partners of I's rows in S, and P2 the
stored union counts of b2 (zero for no partners).

Each node's work is split into a plan and its evaluation.  The plan
(``_plan``) is what the node's shape fixes: the partition of its kept rows
into buckets, each kept row's bucket and bit there (``bucket_of``,
``pos_in_bucket``), each bucket's reads of its children's count arrays,
and the work counts: buckets, the largest one, and entries, 2^|b| - 1 per
bucket b.  A bucket reads:

- one row of one origin (no entry in ``more``), as most are: the origin's
  singleton entry in each child, (child bucket, bit), whose product is the
  count (none at a leaf, whose table holds at most the solution row); below
  one child, when that child bucket has one row, its whole array;
- one row of several origins below one child: the one or two entries of
  its mask;
- several rows below one child: every row subset's mask, whose low and
  high parts are the entries (p1, p2) it reads in the two child buckets;
- at a join otherwise: every row subset's ORed pair mask.

The evaluation (``_evaluate``) is the numbers only: the entries read, and
at a join the Venn regions, which depend on b1's counts.  A node's shape
is its table, its kept rows, its projected slot mask and its first child's
slot mask (0 at a leaf), which fix its children's partitions too: a shared
table has equal child row lists (``run_dp``), a child's kept rows follow
from its one parent's (``purge``), and only a remove node's child has a
slot mask the node's does not tell (whether the atom is projected).  A
memo local to ``run_proj`` maps each shape to its plan, keyed by those
objects themselves: a table is hashed and compared by identity, a kept
list by its few ints, and ``purge`` keeps one object per distinct kept
list, so a key refers only to objects the solve holds anyway.  Every node
takes its shape's plan from the memo or plans it, then evaluates it.  The
memo keeps a plan only if a later node has the same table (shared by
``run_dp``).  ``plans`` counts the plans built.

A node keeps per kept row its bucket and its bit there, the arrays of its
plan, which the nodes of one plan share, and per bucket its count array,
whose length 2^|b| gives the bucket's size.  Where every bucket has one
row, every bit is 0, and the plans of all such nodes share one all-zero
tuple per table length as their bits.  A one-row bucket's array is
the tuple ``(0, count)``, one per count over the whole pass, shared by
every one-row bucket of that count; every other bucket owns its list.
Plans, bucket maps and count arrays are read-only.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Any, Callable, Iterable, Sequence

from .engine import NodeTable, PurgedTables


@dataclass(slots=True)
class NodeCounts:
    """One node's projection counts, bucket by bucket; the nodes of one plan
    share its ``bucket_of`` and ``pos_in_bucket``."""

    bucket_of: list[int]  # per table row, kept rows only: its bucket id
    pos_in_bucket: Sequence[int]  # per table row, kept rows only: its bit in the bucket's masks
    pcnts: list[Sequence[int]]  # per bucket, by local row mask: projected counts


@dataclass
class ProjTables:
    """Per-node bucket count arrays of one projection pass, and its work."""

    nodes: list[NodeCounts]
    kept: list[tuple[int, ...]]  # the purge's kept table indices, per node
    buckets: int  # over all nodes
    max_bucket: int  # rows of the largest bucket; the pass is exponential in it
    entries: int  # sum of 2^|b| - 1 over all buckets b
    plans: int  # node plans built: distinct node shapes

    @cached_property
    def tables(self) -> list[dict[frozenset[int], int]]:
        """Per node, sub-bucket (as a set of purged-row indices) ->
        intersection count, derived from the stored projected counts: a
        view built on first access, for traces and tests.  A bucket's
        members, ascending, are the kept rows with its id in ``bucket_of``."""
        out = []
        for node, kept in zip(self.nodes, self.kept):
            members: list[list[int]] = [[] for _ in node.pcnts]
            for u, j in enumerate(kept):
                members[node.bucket_of[j]].append(u)
            table = {}
            for bucket, pcnts in zip(members, node.pcnts):
                vals = _bucket_values(pcnts)
                for m in range(1, 1 << len(bucket)):
                    table[frozenset(j for i, j in enumerate(bucket) if m >> i & 1)] = vals[m]
            out.append(table)
        return out


def buckets(row_interps: Iterable[int], pmask: int) -> list[list[int]]:
    """Partition row indices into classes with equal projected interpretation."""
    classes: dict[int, list[int]] = {}
    for j, interp in enumerate(row_interps):
        bucket = classes.get(interp & pmask)
        if bucket is None:
            classes[interp & pmask] = [j]
        else:
            bucket.append(j)
    return [classes[k] for k in sorted(classes)]


# What one bucket reads of its children's count arrays, by its shape (see
# the module docstring): below one child, the index of the one-row child
# bucket whose array it takes, else a tuple whose first item names the
# shape.  Below one child both children are the one child.
_LEAF = 0  # (_LEAF,): a leaf's row, count 1
_PRODUCT = 1  # (_PRODUCT, cb1, m1, cb2, m2): entry m1 of left bucket cb1 times entry m2 of right bucket cb2
_READ = 2  # (_READ, cb1, m1, cb2, m2): entry m1 of child bucket cb1 plus entry m2 of child bucket cb2
_UNION = 3  # (_UNION, acc, cb1, cb2, s): per row subset, its mask's low s bits in cb1 plus the rest in cb2 (None: 0)
_JOIN = 4  # (_JOIN, acc, cb1, cb2): per row subset m, pair mask acc[m] read through cb1's Venn regions
_LEAF_READS = (_LEAF,)


def _bucket_reads(rows: Sequence[int], tab: NodeTable, children: Sequence[NodeCounts]) -> tuple:
    """What a bucket reads of its children's count arrays, the bucket's rows
    given as row indices of ``tab``: one mask per row over its origins'
    bits, ORed per row subset.  Below one child a one-row bucket reduces to
    one or two entries (``_READ``), and a larger one keeps its subsets'
    masks, whose low and high parts index the two child buckets
    (``_UNION``); a join bucket keeps its subsets' pair masks (``_JOIN``).
    Raises ``ValueError`` when the origins meet a third child bucket (one
    child) or a second bucket pair (join)."""
    c1, c2 = children[0], children[-1]
    first, more = tab.first, tab.more
    row_masks = []
    if len(children) == 1:
        # the origins of a remove node's bucket may differ in the removed
        # projected atom: two child buckets, with disjoint sets; origin j in
        # the k-th of them is bit k * |b1| + pos(j)
        of, pos = c1.bucket_of, c1.pos_in_bucket
        cbs = [of[first[rows[0]]]]  # the child buckets met, in bit order
        stride = (len(c1.pcnts[cbs[0]]) - 1).bit_length()  # |b1|
        for u in rows:
            mask = 0
            for j in (first[u], *more.get(u, ())):
                if of[j] not in cbs:
                    cbs.append(of[j])
                mask |= 1 << (cbs.index(of[j]) * stride + pos[j])
            row_masks.append(mask)
        if len(cbs) > 2:
            raise ValueError(f"a one-child bucket's origins meet child buckets {cbs}")
        if len(rows) == 1:
            # one child bucket: the second read is its entry 0, which is 0
            mask = row_masks[0]
            return _READ, cbs[0], mask & (1 << stride) - 1, cbs[-1], mask >> stride
        return _UNION, _subset_ors(row_masks), cbs[0], cbs[1] if len(cbs) == 2 else None, stride
    # a join's children share its bag and its rows keep their children's
    # interpretation, so all origin pairs of a bucket fall into one child
    # bucket pair; pair (i, j) is bit pos(i) * |b2| + pos(j), so left row
    # i's partners are one slice of a mask
    split = tab.stride
    i, j = divmod(first[rows[0]], split)
    b1, b2 = c1.bucket_of[i], c2.bucket_of[j]
    stride = (len(c2.pcnts[b2]) - 1).bit_length()  # |b2|
    for u in rows:
        mask = 0
        for o in (first[u], *more.get(u, ())):
            i, j = divmod(o, split)
            if c1.bucket_of[i] != b1 or c2.bucket_of[j] != b2:
                raise ValueError(f"join row {u} has origins outside child buckets ({b1}, {b2})")
            mask |= 1 << (c1.pos_in_bucket[i] * stride + c2.pos_in_bucket[j])
        row_masks.append(mask)
    return _JOIN, _subset_ors(row_masks), b1, b2


def _subset_ors(row_masks: list[int]) -> Sequence[int]:
    """Per row subset (by local mask), the OR of its rows' masks; as an
    unsigned 64-bit array when they fit, which a plan keeps at 8 bytes an
    entry where a list of large ints takes 40."""
    acc = [0] * (1 << len(row_masks))
    for m in range(1, len(acc)):
        low = m & -m
        acc[m] = acc[m ^ low] | row_masks[low.bit_length() - 1]
    return array("Q", acc) if acc[-1] >> 64 == 0 else acc


def _bucket_counts(
    reads: tuple, pc1: Sequence[Sequence[int]], pc2: Sequence[Sequence[int]], one_row: dict[int, tuple[int, int]]
) -> Sequence[int]:
    """A bucket's projected counts, by local row mask, from its reads (a
    tuple: ``_evaluate`` takes a child bucket's array itself) and its
    children's count arrays (``pc1`` and ``pc2`` are the same one below one
    child).  A one-row bucket's array is its count's tuple in ``one_row``,
    which the call adds when missing."""
    shape = reads[0]
    if shape == _UNION:
        _, acc, cb1, cb2, stride = reads
        if cb2 is None:
            return list(map(pc1[cb1].__getitem__, acc))
        low = map(((1 << stride) - 1).__and__, acc)
        return list(map(add, map(pc1[cb1].__getitem__, low), map(pc1[cb2].__getitem__, map(stride.__rrshift__, acc))))
    if shape == _JOIN:
        _, acc, cb1, cb2 = reads
        left, right = pc1[cb1], pc2[cb2]
        full = len(right) - 1
        regions = _venn_regions(left, len(left).bit_length() - 1, full.bit_length())
        out = []
        for mask in acc:
            # each Venn region of the left bucket times the union count of its partners
            total = 0
            for e, shifts in regions:
                n = 0
                for s in shifts:
                    n |= mask >> s
                total += e * right[n & full]
            out.append(total)
        if len(out) > 2:
            return out
        count = out[1]
    elif shape == _READ:
        count = pc1[reads[1]][reads[2]] + pc1[reads[3]][reads[4]]
    elif shape == _PRODUCT:
        count = pc1[reads[1]][reads[2]] * pc2[reads[3]][reads[4]]
    else:
        count = 1
    return one_row.setdefault(count, (0, count))


def _moebius(vals: list[int]) -> list[int]:
    """The subset Moebius transform of an array indexed by mask, in place:
    vals[m] becomes the sum over T subset of m of (-1)^(|m| - |T|) vals[T]."""
    bit = 1
    while bit < len(vals):
        for m in range(len(vals)):
            if m & bit:
                vals[m] -= vals[m ^ bit]
        bit <<= 1
    return vals


def _venn_regions(pcnts: Sequence[int], b: int, stride: int) -> list[tuple[int, list[int]]]:
    """The nonempty Venn regions of a bucket's row sets, as (size, shifts):
    one per row subset I whose region "in exactly the sets of I" is not
    empty, with the pair-bit offset pos * stride of each row of I.

    g(S) = pcnts[full] - pcnts[full ^ S] counts the elements of the union
    that lie in no set outside S, i.e. the regions of the nonempty subsets
    of S, so the region sizes are the subset Moebius transform of g."""
    full = len(pcnts) - 1
    e = _moebius([pcnts[full] - pcnts[full ^ m] for m in range(len(pcnts))])
    return [(e[m], [p * stride for p in range(b) if m >> p & 1]) for m in range(1, len(e)) if e[m]]


def _bucket_values(pcnts: Sequence[int]) -> list[int]:
    """Intersection counts for every nonempty subset of a bucket.

    The rows stand for sets whose union sizes are ``pcnts``, so the size of
    an intersection is, up to its sign, the subset Moebius transform of the
    union sizes: |sum over T subset of m of (-1)^(|m| - |T|) pcnts[T]|."""
    return list(map(abs, _moebius(list(pcnts))))


@dataclass(slots=True)
class _Plan:
    """What one node's shape fixes (see the module docstring)."""

    bucket_of: list[int]  # per table row, kept rows only: its bucket id
    pos_in_bucket: Sequence[int]  # per table row, kept rows only: its bit in the bucket's masks
    reads: list[int | tuple]  # per bucket: a one-row child bucket's index, or a tuple
    entries: int  # sum of 2^|b| - 1 over the node's buckets b
    max_bucket: int  # rows of its largest bucket


def _memory_error(t: int, kind: str, b: int) -> MemoryError:
    return MemoryError(f"node {t} ({kind}): bucket of {b} rows, {(1 << b) - 1} entries")


def _plan(
    t: int,
    kind: str,
    tab: NodeTable,
    kept: Sequence[int],
    smask: int,
    interp: Callable[[Any], int],
    children: Sequence[NodeCounts],
    zeros: dict[int, tuple[int, ...]],
) -> _Plan:
    """Node t's plan: its kept rows bucketed by ``smask``, and each bucket's
    reads of its children's count arrays.  A plan whose buckets all have
    one row takes ``zeros``' all-zero tuple of its table's length as its
    ``pos_in_bucket``, made on first need.  A bucket whose subset masks are
    too large to allocate raises ``MemoryError`` naming it."""
    partition = buckets(map(interp, map(tab.rows.__getitem__, kept)), smask)
    n = len(tab.rows)
    bucket_of = [0] * n
    pos_in_bucket: Sequence[int]
    if len(partition) < len(kept):  # some bucket has several rows
        pos_in_bucket = [0] * n
    elif n in zeros:
        pos_in_bucket = zeros[n]
    else:
        pos_in_bucket = zeros[n] = (0,) * n
    plan = _Plan(bucket_of, pos_in_bucket, [0] * len(partition), len(partition), min(len(partition), 1))
    first, more, split = tab.first, tab.more, tab.stride
    arity = len(children)
    if arity:
        # the child lookups of the one-row reads, taken once per node (for
        # a one-child node both lines read its child)
        of1, pos1, pc1 = children[0].bucket_of, children[0].pos_in_bucket, children[0].pcnts
        of2, pos2 = children[-1].bucket_of, children[-1].pos_in_bucket
    for bi, bucket in enumerate(partition):
        j = kept[bucket[0]]
        if len(bucket) == 1 and j not in more:
            # one row of one origin: the origin's singleton count in each
            # child, which below one child is a one-row child bucket's whole
            # array or one entry of a larger one
            bucket_of[j] = bi
            o = first[j]
            if arity == 1:
                cb = of1[o]
                reads: int | tuple = cb if len(pc1[cb]) == 2 else (_READ, cb, 1 << pos1[o], cb, 0)
            elif arity:
                i, o = divmod(o, split)
                reads = _PRODUCT, of1[i], 1 << pos1[i], of2[o], 1 << pos2[o]
            else:
                reads = _LEAF_READS
        else:
            rows = [kept[u] for u in bucket]
            for pos, j in enumerate(rows):
                bucket_of[j] = bi
                if pos:  # only a bucket of several rows has a nonzero bit
                    pos_in_bucket[j] = pos  # type: ignore[index]
            plan.entries += (1 << len(rows)) - 2  # beyond its one entry, counted with the buckets
            plan.max_bucket = max(plan.max_bucket, len(rows))
            try:
                reads = _bucket_reads(rows, tab, children)
            except MemoryError as exc:
                raise _memory_error(t, kind, len(rows)) from exc
        plan.reads[bi] = reads
    return plan


def _evaluate(
    t: int,
    kind: str,
    plan: _Plan,
    pc1: Sequence[Sequence[int]],
    pc2: Sequence[Sequence[int]],
    one_row: dict[int, tuple[int, int]],
) -> list[Sequence[int]]:
    """Node t's count arrays, one per bucket of its plan, from its children's
    (``pc1`` and ``pc2`` as in ``_bucket_counts``).  A bucket too large to
    allocate raises ``MemoryError`` naming it."""
    pcnts: list[Sequence[int]] = [()] * len(plan.reads)  # exact size: the node keeps it
    try:
        for bi, reads in enumerate(plan.reads):
            pcnts[bi] = pc1[reads] if isinstance(reads, int) else _bucket_counts(reads, pc1, pc2, one_row)
    except MemoryError as exc:
        # a bucket of several rows holds its per-subset reads at index 1
        b = len(reads[1]).bit_length() - 1 if reads[0] in (_UNION, _JOIN) else 1
        raise _memory_error(t, kind, b) from exc
    return pcnts


def run_proj(purged: PurgedTables, pmask: int) -> ProjTables:
    """Bottom-up pass computing every node's bucket count arrays: each node
    takes its shape's plan from the memo or plans it, then evaluates it
    (see the module docstring).  ``pmask`` is the projection as an atom
    mask; rows are bucketed by its slot mask at each node.  A bucket too
    large to allocate raises ``MemoryError`` naming it, its node and the
    node's kind."""
    ttd = purged.ttd
    td = ttd.td
    interp = ttd.alg.interp
    tables = ttd.tables
    # per atom: its slot bit if projected, else 0 (bin() keeps this linear)
    projected = bin(pmask)[:1:-1]
    proj_bits = [(projected[a : a + 1] == "1") << s for a, s in enumerate(ttd.slots)]
    # by node id, each set before its parent reads it (post-order)
    nodes: list[NodeCounts] = [None] * len(td.nodes)  # type: ignore[list-item]
    smasks = [0] * len(td.nodes)  # per node: its projected slot mask
    n_buckets = max_bucket = entries = n_plans = 0
    # for this pass only: per node shape, its plan, per count the shared
    # one-row array, and per table length the all-zero ``pos_in_bucket``
    # that plans of one-row buckets share.  A shape is keyed by the objects
    # that fix it, the node's (table, kept list, slot mask) and its first
    # child's slot mask: a table is hashed and compared by identity, a kept
    # list by its ints
    plans: dict[tuple, _Plan] = {}
    one_row: dict[int, tuple[int, int]] = {}
    zeros: dict[int, tuple[int, ...]] = {}
    # per table, the last node that has it: only a plan whose table a later
    # node has can be read again, so only such plans are kept
    last_node = dict(zip(map(tables.__getitem__, ttd.post_order), ttd.post_order))

    for t in ttd.post_order:
        kept = purged.kept[t]
        nd = td.nodes[t]
        tab = tables[t]
        smask = 0
        for a in nd.bag:
            smask |= proj_bits[a]
        smasks[t] = smask
        children = nd.children
        key = tab, kept, smask, smasks[children[0]] if children else 0
        plan = plans.get(key)
        if plan is None:
            plan = _plan(t, nd.kind, tab, kept, smask, interp, [nodes[c] for c in children], zeros)
            n_plans += 1
            if last_node[tab] != t:
                plans[key] = plan
        pc1 = nodes[children[0]].pcnts if children else ()
        pc2 = nodes[children[-1]].pcnts if children else ()
        n_buckets += len(plan.reads)
        entries += plan.entries
        max_bucket = max(max_bucket, plan.max_bucket)
        nodes[t] = NodeCounts(plan.bucket_of, plan.pos_in_bucket, _evaluate(t, nd.kind, plan, pc1, pc2, one_row))
    return ProjTables(nodes, purged.kept, n_buckets, max_bucket, entries, n_plans)


def final_count(proj: ProjTables, purged: PurgedTables) -> int:
    """Projected answer-set count: the union count of the root's one bucket
    (its bag is empty; zero when the root keeps no row)."""
    return sum(pcnts[-1] for pcnts in proj.nodes[purged.ttd.td.root].pcnts)

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
the size of the union of those origins' sets.  ``_bucket_pcnts`` ORs one
origin mask per row over every row subset and reads each subset's mask as
that count.  Below a one-child node the origins meet at most two child
buckets, with disjoint sets, so a read adds two stored union counts.  Below
a join an origin pair (i, j) stands for the product A_i x B_j of the
children's sets, and a set S of pairs from buckets (b1, b2) has

    |U_{(i,j) in S} A_i x B_j| = sum over nonempty I of e(I) * P2(N_S(I)),

where e(I) is the size of the Venn region "in exactly the A_i with i in I"
(derived from b1's union counts once per bucket pair, kept where nonzero),
N_S(I) is the set of right partners of I's rows in S, and P2 the stored
union counts of b2 (zero for no partners).

A bucket of one row with one origin (no entry in ``more``), as most are,
needs no inclusion-exclusion: the node loop reads its count as the product
of the origin's singleton counts over the node's children (none at a leaf,
whose table holds at most the solution row).  The loop also counts the pass's
work: buckets, the largest one, and entries, 2^|b| - 1 per bucket b.

A node keeps per kept row its bucket and its bit there, and per bucket its
count array, whose length 2^|b| gives the bucket's size; its partition into
buckets lives only while the loop visits the node.  The one-row read's
arrays are tuples ``(0, count)``, one per count over the whole pass, shared
by every bucket of that count; every other bucket owns its list.  Count
arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .engine import NodeTable, PurgedTables


@dataclass(slots=True)
class NodeCounts:
    """One node's projection counts, bucket by bucket."""

    bucket_of: list[int]  # per table row, kept rows only: its bucket id
    pos_in_bucket: list[int]  # per table row, kept rows only: its bit in the bucket's masks
    pcnts: list[Sequence[int]]  # per bucket, by local row mask: projected counts


@dataclass
class ProjTables:
    """Per-node bucket count arrays of one projection pass, and its work."""

    nodes: list[NodeCounts]
    kept: list[list[int]]  # the purge's kept table indices, per node
    buckets: int  # over all nodes
    max_bucket: int  # rows of the largest bucket; the pass is exponential in it
    entries: int  # sum of 2^|b| - 1 over all buckets b

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


def _bucket_pcnts(bucket: list[int], tab: NodeTable, children: Sequence[NodeCounts]) -> list[int]:
    """Projected counts for every nonempty subset of one bucket (by local
    mask), the bucket's rows given as row indices of ``tab``: one mask per
    row over its origins' bits, ORed per row subset and read as the union
    count of the module docstring.  Raises ``ValueError`` when the origins
    meet a third child bucket (one child) or a second bucket pair (join)."""
    c1, c2 = children[0], children[-1]
    first, more = tab.first, tab.more
    row_masks = []
    if len(children) == 1:
        # the origins of a remove node's bucket may differ in the removed
        # projected atom: two child buckets, with disjoint sets; origin j in
        # the k-th of them is bit k * |b1| + pos(j)
        b1 = c1.bucket_of[first[bucket[0]]]
        p1 = c1.pcnts[b1]
        full = len(p1) - 1
        stride = full.bit_length()  # |b1|
        cbs = [b1]  # the child buckets met, in bit order
        for u in bucket:
            mask = 0
            for j in (first[u], *more.get(u, ())):
                if c1.bucket_of[j] not in cbs:
                    cbs.append(c1.bucket_of[j])
                mask |= 1 << (cbs.index(c1.bucket_of[j]) * stride + c1.pos_in_bucket[j])
            row_masks.append(mask)
        if len(cbs) > 2:
            raise ValueError(f"a one-child bucket's origins meet child buckets {cbs}")
        p2 = c1.pcnts[cbs[-1]] if len(cbs) == 2 else [0]

        def read(mask: int) -> int:
            return p1[mask & full] + p2[mask >> stride]

    else:
        # a join's children share its bag and its rows keep their children's
        # interpretation, so all origin pairs of a bucket fall into one child
        # bucket pair; pair (i, j) is bit pos(i) * |b2| + pos(j), so left
        # row i's partners are one slice of a mask
        split = tab.stride
        i, j = divmod(first[bucket[0]], split)
        b1, b2 = c1.bucket_of[i], c2.bucket_of[j]
        pc1, pc2 = c1.pcnts[b1], c2.pcnts[b2]
        full = len(pc2) - 1
        stride = full.bit_length()  # |b2|
        for u in bucket:
            mask = 0
            for o in (first[u], *more.get(u, ())):
                i, j = divmod(o, split)
                if c1.bucket_of[i] != b1 or c2.bucket_of[j] != b2:
                    raise ValueError(f"join row {u} has origins outside child buckets ({b1}, {b2})")
                mask |= 1 << (c1.pos_in_bucket[i] * stride + c2.pos_in_bucket[j])
            row_masks.append(mask)
        regions = _venn_regions(pc1, len(pc1).bit_length() - 1, stride)

        def read(mask: int) -> int:
            # each Venn region of b1 times the union count of its partners
            total = 0
            for e, shifts in regions:
                n = 0
                for s in shifts:
                    n |= mask >> s
                total += e * pc2[n & full]
            return total

    acc = [0] * (1 << len(bucket))  # per row subset: the union of its rows' masks
    out = [0] * len(acc)
    for m in range(1, len(acc)):
        low = m & -m
        acc[m] = mask = acc[m ^ low] | row_masks[low.bit_length() - 1]
        out[m] = read(mask)
    return out


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


def run_proj(purged: PurgedTables, pmask: int) -> ProjTables:
    """Bottom-up pass computing every node's bucket count arrays.  ``pmask``
    is the projection as an atom mask; rows are bucketed by its slot mask
    at each node.  A bucket too large to allocate raises ``MemoryError``
    naming it, its node and the node's kind."""
    ttd = purged.ttd
    td = ttd.td
    alg = ttd.alg
    # per atom: its slot bit if projected, else 0 (bin() keeps this linear)
    projected = bin(pmask)[:1:-1]
    proj_bits = [(projected[a : a + 1] == "1") << s for a, s in enumerate(ttd.slots)]
    interp = alg.interp
    # by node id, each set before its parent reads it (post-order)
    nodes: list[NodeCounts] = [None] * len(td.nodes)  # type: ignore[list-item]
    n_buckets = max_bucket = entries = 0
    one_row: dict[int, tuple[int, int]] = {}  # count -> the one-row array shared by this pass

    for t in ttd.post_order:
        kept = purged.kept[t]
        nd = td.nodes[t]
        tab = ttd.table(t)
        first, more, split = tab.first, tab.more, tab.stride
        smask = 0
        for a in nd.bag:
            smask |= proj_bits[a]
        partition = buckets((interp(tab.rows[j]) for j in kept), smask)
        n_buckets += len(partition)
        bucket_of = [0] * len(tab)
        pos_in_bucket = [0] * len(tab)
        pcnts: list[Sequence[int]] = []
        children = [nodes[c] for c in nd.children]
        arity = len(children)
        if children:
            # the child lookups of the one-row read, taken once per node (for
            # a one-child node both triples are its child's)
            of1, pos1, pc1 = children[0].bucket_of, children[0].pos_in_bucket, children[0].pcnts
            of2, pos2, pc2 = children[-1].bucket_of, children[-1].pos_in_bucket, children[-1].pcnts
        for bi, bucket in enumerate(partition):
            j = kept[bucket[0]]
            if len(bucket) == 1 and j not in more:
                # one row of one origin needs no inclusion-exclusion: the
                # product of the origin's singleton counts in the children,
                # none for a leaf's row
                bucket_of[j] = bi
                o = first[j]
                if arity == 1:
                    count = pc1[of1[o]][1 << pos1[o]]
                elif arity:
                    i, o = divmod(o, split)
                    count = pc1[of1[i]][1 << pos1[i]] * pc2[of2[o]][1 << pos2[o]]
                else:
                    count = 1
                pcnts.append(one_row.setdefault(count, (0, count)))
                continue
            entries += (1 << len(bucket)) - 2  # beyond its one entry, counted with n_buckets
            max_bucket = max(max_bucket, len(bucket))
            rows = [kept[u] for u in bucket]
            for pos, j in enumerate(rows):
                bucket_of[j] = bi
                pos_in_bucket[j] = pos
            try:
                pcnts.append(_bucket_pcnts(rows, tab, children))
            except MemoryError as exc:
                b = len(rows)
                raise MemoryError(f"node {t} ({nd.kind}): bucket of {b} rows, {(1 << b) - 1} entries") from exc
        nodes[t] = NodeCounts(bucket_of, pos_in_bucket, pcnts)
    # one-row reads skip max_bucket, which any bucket makes at least 1
    return ProjTables(nodes, purged.kept, n_buckets, max(max_bucket, min(n_buckets, 1)), n_buckets + entries)


def final_count(proj: ProjTables, purged: PurgedTables) -> int:
    """Projected answer-set count: the union count of the root's one bucket
    (its bag is empty; zero when the root keeps no row)."""
    return sum(pcnts[-1] for pcnts in proj.nodes[purged.ttd.td.root].pcnts)

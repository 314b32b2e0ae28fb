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

A row set's projected count sums, per child bucket its origins fall into,
the size of the union of those origins' sets.  Below a one-child node that
union count is stored in the child.  Below a join an origin pair (i, j)
stands for the product A_i x B_j of the children's sets, and a set S of
pairs from buckets (b1, b2) has

    |U_{(i,j) in S} A_i x B_j| = sum over nonempty I of e(I) * P2(N_S(I)),

where e(I) is the size of the Venn region "in exactly the A_i with i in I"
(derived from b1's union counts once per bucket pair, kept where nonzero),
N_S(I) is the set of right partners of I's rows in S, and P2 the stored
union counts of b2 (zero for no partners).  One read costs O(regions *
rows) whatever the number of pairs.

Most buckets have one row, and those need no inclusion-exclusion: the node
loop takes their one count straight from the children's stored union
counts, a single read for one origin and a product of two for one origin
pair.  ``_bucket_pcnts`` evaluates every other bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .engine import PurgedTables


@dataclass
class NodeCounts:
    """One node's projection counts, bucket by bucket."""

    buckets: list[list[int]]  # purged-row indices per bucket, ascending
    bucket_of: list[int]  # per table row, kept rows only: its bucket id
    pos_in_bucket: list[int]  # per table row, kept rows only: its bit in the bucket's masks
    pcnts: list[list[int]]  # per bucket, by local row mask: projected counts


@dataclass
class ProjTables:
    """Per-node bucket count arrays of one projection pass."""

    nodes: list[NodeCounts]

    @cached_property
    def tables(self) -> list[dict[frozenset[int], int]]:
        """Per node, sub-bucket (as a set of purged-row indices) ->
        intersection count, derived from the stored projected counts: a
        view built on first access, for traces and tests."""
        out = []
        for node in self.nodes:
            table = {}
            for bucket, pcnts in zip(node.buckets, node.pcnts):
                vals = _bucket_values(pcnts, len(bucket))
                for m in range(1, 1 << len(bucket)):
                    table[frozenset(j for i, j in enumerate(bucket) if m >> i & 1)] = vals[m]
            out.append(table)
        return out


def buckets(row_interps: Sequence[int], pmask: int) -> list[list[int]]:
    """Partition row indices into classes with equal projected interpretation."""
    classes: dict[int, list[int]] = {}
    for j, interp in enumerate(row_interps):
        classes.setdefault(interp & pmask, []).append(j)
    return [classes[k] for k in sorted(classes)]


def _bucket_pcnts(
    bucket: list[int],
    origins: list[list[tuple[int, ...]]],
    children: Sequence[NodeCounts],
) -> list[int]:
    """Projected counts for every nonempty subset of one bucket (by local
    mask), the bucket's rows given as indices into ``origins``: per child
    bucket (one child) or for the one bucket pair (two children) its rows'
    origins fall into, the size of the union of the origins' sets.

    One child: the child's stored union count.  Two children: the Venn-region
    sum of the module docstring, O(regions * rows) per row subset instead of
    inclusion-exclusion over the pairs' 2^u subsets.  Raises ``ValueError``
    when a join bucket's origins span several child bucket pairs."""
    size = 1 << len(bucket)
    out = [0] * size
    if len(children) == 1:
        child = children[0]
        per_row: list[dict[int, int]] = []
        for u in bucket:
            g: dict[int, int] = {}
            for (j,) in origins[u]:
                cb = child.bucket_of[j]
                g[cb] = g.get(cb, 0) | (1 << child.pos_in_bucket[j])
            per_row.append(g)
        for m in range(1, size):
            low = m & -m
            k = low.bit_length() - 1
            rest = m ^ low
            merged = dict(per_row[k])
            mm = rest
            while mm:
                lo = mm & -mm
                for cb, mask in per_row[lo.bit_length() - 1].items():
                    merged[cb] = merged.get(cb, 0) | mask
                mm ^= lo
            total = 0
            for cb, mask in merged.items():
                # origins within one child bucket: their union count is stored
                total += child.pcnts[cb][mask]
            out[m] = total
        return out

    c1, c2 = children
    # a join's children share its bag and its rows keep their children's
    # interpretation, so all origin pairs of a bucket fall into one child
    # bucket pair (b1, b2); a row's pairs (i, j) are bits pos(i) * |b2| +
    # pos(j) of one mask, so left row i's partners are one slice
    i0, j0 = origins[bucket[0]][0]
    b1, b2 = c1.bucket_of[i0], c2.bucket_of[j0]
    stride = len(c2.buckets[b2])
    row_pairs = []
    for u in bucket:
        mask = 0
        for i, j in origins[u]:
            if c1.bucket_of[i] != b1 or c2.bucket_of[j] != b2:
                raise ValueError(f"join row {u} has origins outside child buckets ({b1}, {b2})")
            mask |= 1 << (c1.pos_in_bucket[i] * stride + c2.pos_in_bucket[j])
        row_pairs.append(mask)
    regions = _venn_regions(c1.pcnts[b1], len(c1.buckets[b1]), stride)
    pc2 = c2.pcnts[b2]
    full = len(pc2) - 1
    pairs = [0] * size  # per row subset: the union of its rows' pair masks
    for m in range(1, size):
        low = m & -m
        mask = pairs[m] = pairs[m ^ low] | row_pairs[low.bit_length() - 1]
        # each Venn region of b1 times the union count of its partners
        total = 0
        for e, shifts in regions:
            n = 0
            for s in shifts:
                n |= mask >> s
            total += e * pc2[n & full]
        out[m] = total
    return out


def _venn_regions(pcnts: list[int], b: int, stride: int) -> list[tuple[int, list[int]]]:
    """The nonempty Venn regions of a bucket's row sets, as (size, shifts):
    one per row subset I whose region "in exactly the sets of I" is not
    empty, with the pair-bit offset pos * stride of each row of I.

    g(S) = pcnts[full] - pcnts[full ^ S] counts the elements of the union
    that lie in no set outside S, i.e. the regions of the nonempty subsets
    of S, so the region sizes are the subset Moebius transform of g."""
    full = len(pcnts) - 1
    e = [pcnts[full] - pcnts[full ^ m] for m in range(len(pcnts))]
    for i in range(b):
        bit = 1 << i
        for m in range(len(e)):
            if m & bit:
                e[m] -= e[m ^ bit]
    return [(e[m], [p * stride for p in range(b) if m >> p & 1]) for m in range(1, len(e)) if e[m]]


def _bucket_values(pcnts: list[int], b: int) -> list[int]:
    """Intersection counts for every nonempty subset of a bucket.

    The rows stand for sets whose union sizes are ``pcnts``, so the size of
    an intersection is, up to its sign, the subset Moebius transform of the
    union sizes: |sum over T subset of m of (-1)^(|m| - |T|) pcnts[T]|.  A
    single row's intersection is its union."""
    if b == 1:
        return pcnts
    vals = list(pcnts)
    for i in range(b):
        bit = 1 << i
        for m in range(len(vals)):
            if m & bit:
                vals[m] -= vals[m ^ bit]
    return list(map(abs, vals))


def run_proj(purged: PurgedTables, pmask: int) -> ProjTables:
    """Bottom-up pass computing every node's bucket count arrays.  ``pmask``
    is the projection as an atom mask; rows are bucketed by its slot mask
    at each node."""
    ttd = purged.ttd
    td = ttd.td
    alg = ttd.alg
    # per atom: its slot bit if projected, else 0 (bin() keeps this linear)
    projected = bin(pmask)[:1:-1]
    proj_bits = [(projected[a : a + 1] == "1") << s for a, s in enumerate(ttd.slots)]
    interp = alg.interp
    # by node id, each set before its parent reads it (post-order)
    nodes: list[NodeCounts] = [None] * len(td.nodes)  # type: ignore[list-item]

    for t in ttd.post_order:
        kept = purged.kept[t]
        nd = td.nodes[t]
        tab = ttd.table(t)
        origins = tab.origins
        smask = 0
        for a in nd.bag:
            smask |= proj_bits[a]
        classes: dict[int, list[int]] = {}
        for u, r in enumerate(purged.rows[t]):
            key = interp(r) & smask
            bucket = classes.get(key)
            if bucket is None:
                classes[key] = [u]
            else:
                bucket.append(u)
        partition = [classes[k] for k in sorted(classes)]
        bucket_of = [0] * len(tab)
        pos_in_bucket = [0] * len(tab)
        pcnts: list[list[int]] = []
        children = [nodes[c] for c in nd.children]
        if children:
            # the child lookups of the one-row paths, read once per node (for
            # a one-child node both triples are its child's)
            of1, pos1, pc1 = children[0].bucket_of, children[0].pos_in_bucket, children[0].pcnts
            of2, pos2, pc2 = children[-1].bucket_of, children[-1].pos_in_bucket, children[-1].pcnts
        for bi, bucket in enumerate(partition):
            if len(bucket) == 1 and children:
                # a one-row bucket needs no inclusion-exclusion: its one union
                # count is read off the children's stored union counts
                j = kept[bucket[0]]
                bucket_of[j] = bi
                row_origins = origins[j]
                if len(children) == 1:
                    if len(row_origins) == 1:
                        ((i,),) = row_origins
                        pcnts.append([0, pc1[of1[i]][1 << pos1[i]]])
                    else:
                        # per child bucket its origins fall into, their union count
                        masks: dict[int, int] = {}
                        for (i,) in row_origins:
                            masks[of1[i]] = masks.get(of1[i], 0) | 1 << pos1[i]
                        pcnts.append([0, sum(pc1[cb][m] for cb, m in masks.items())])
                    continue
                if len(row_origins) == 1:
                    # one origin pair (i, i2) stands for the product A_i x B_i2
                    ((i, i2),) = row_origins
                    pcnts.append([0, pc1[of1[i]][1 << pos1[i]] * pc2[of2[i2]][1 << pos2[i2]]])
                    continue
                # a join row of several origin pairs: the Venn-region sum
            rows = [kept[u] for u in bucket]
            for pos, j in enumerate(rows):
                bucket_of[j] = bi
                pos_in_bucket[j] = pos
            if children:
                pcnts.append(_bucket_pcnts(rows, origins, children))
            else:
                # every row of a leaf stands for the one empty projected
                # answer set: all union counts are one
                pcnts.append([0] + [1] * ((1 << len(bucket)) - 1))
        nodes[t] = NodeCounts(partition, bucket_of, pos_in_bucket, pcnts)
    return ProjTables(nodes)


def final_count(proj: ProjTables, purged: PurgedTables) -> int:
    """Projected answer-set count: the union count of the root's one bucket
    (its bag is empty; zero when the root keeps no row)."""
    return sum(pcnts[-1] for pcnts in proj.nodes[purged.ttd.td.root].pcnts)

"""Projected counting pass over purged tables.

Rows of a purged table are grouped into buckets by the projection of their
interpretation part; every nonempty subset of a bucket (a sub-bucket) gets an
entry holding the number of projected answer sets shared by all of its rows.
Those intersection counts are combined bottom-up with the inclusion-exclusion
principle over origin subsets, and the root entry is the projected count.

All counts are exact arbitrary-precision integers.  ``pcnt`` and ``ipmc`` are
the direct formulations; ``run_proj`` computes the same sums bucket-wise with
subset-sum transforms, which turns the per-entry exponential enumeration into
one shared pass per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .decomposition import LEAF
from .engine import PurgedTables

ProjTable = dict[frozenset[int], int]


@dataclass
class ProjTables:
    """Per-node sub-bucket count tables, keyed by purged-row index sets."""

    tables: list[ProjTable]
    bucket_of: list[dict[int, int]]  # per node: row index -> bucket id


def buckets(row_interps: Sequence[int], pmask: int) -> list[list[int]]:
    """Partition row indices into classes with equal projected interpretation."""
    classes: dict[int, list[int]] = {}
    for j, interp in enumerate(row_interps):
        classes.setdefault(interp & pmask, []).append(j)
    return [classes[k] for k in sorted(classes)]


def subbuckets(row_interps: Sequence[int], pmask: int) -> list[frozenset[int]]:
    """All nonempty subsets of the individual buckets."""
    out = []
    for bucket in buckets(row_interps, pmask):
        for size in range(1, len(bucket) + 1):
            out.extend(frozenset(c) for c in combinations(bucket, size))
    return out


def sipmc(table: Mapping[frozenset[int], int], rho: frozenset[int]) -> int:
    """Stored count of a row set; absent keys contribute zero."""
    return table.get(rho, 0)


def pcnt(
    origin_seqs: set[tuple[int, ...]],
    child_tables: Sequence[Mapping[frozenset[int], int]],
    child_bucket_of: Sequence[Mapping[int, int]],
) -> int:
    """Projected count of a row set via inclusion-exclusion over its origins.

    Sums (-1)^(|O|-1) times the product of per-child stored counts over all
    nonempty origin subsets O.  Subsets mixing rows from different buckets of
    some child have no stored key, contribute zero, and are skipped by
    grouping the sequences on their per-child bucket signature first.
    """
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for seq in origin_seqs:
        sig = tuple(child_bucket_of[i][j] for i, j in enumerate(seq))
        groups.setdefault(sig, []).append(seq)

    total = 0
    n_children = len(child_tables)
    for sig in sorted(groups):
        seqs = sorted(groups[sig])
        m = len(seqs)
        for bits in range(1, 1 << m):
            chosen = [seqs[k] for k in range(m) if bits >> k & 1]
            term = 1
            for i in range(n_children):
                key = frozenset(seq[i] for seq in chosen)
                term *= child_tables[i].get(key, 0)
                if term == 0:
                    break
            total += term if len(chosen) % 2 else -term
    return total


def ipmc(
    kind: str,
    rho: frozenset[int],
    origin_seqs: set[tuple[int, ...]],
    child_tables: Sequence[Mapping[frozenset[int], int]],
    child_bucket_of: Sequence[Mapping[int, int]],
    smaller: Mapping[frozenset[int], int],
) -> int:
    """Intersection count of a sub-bucket.

    One at leaves; otherwise the absolute value of the projected count of the
    set plus the signed intersection counts of all strict nonempty subsets
    (``smaller`` must already hold them).  The inner sum is routinely
    negative, e.g. |2 - 2 - 1| = 1.
    """
    if kind == LEAF:
        return 1
    value = pcnt(origin_seqs, child_tables, child_bucket_of)
    items = sorted(rho)
    for size in range(1, len(items)):
        for sub in combinations(items, size):
            sgn = -1 if size % 2 else 1
            value += sgn * smaller[frozenset(sub)]
    return abs(value)


# --- bucket-wise fast evaluation --------------------------------------------


def _sum_over_subsets(arr: list[int], nbits: int) -> None:
    """In place: arr[m] becomes the sum of arr over all submasks of m."""
    for i in range(nbits):
        bit = 1 << i
        for m in range(len(arr)):
            if m & bit:
                arr[m] += arr[m ^ bit]


@dataclass
class _NodeCtx:
    bucket_rows: list[list[int]]
    bucket_of: dict[int, int]
    pos_in_bucket: dict[int, int]
    vals: list[list[int]]  # per bucket, indexed by local row mask
    union: list[list[int] | None]  # lazy per-bucket union counts


def _union_table(ctx: _NodeCtx, bi: int) -> list[int]:
    """Union counts per row subset of one bucket: the inclusion-exclusion
    (-1)^(|T|-1) sum of stored intersection counts, materialized with one
    subset-sum pass."""
    cached = ctx.union[bi]
    if cached is not None:
        return cached
    b = len(ctx.bucket_rows[bi])
    vals = ctx.vals[bi]
    arr = [0] * (1 << b)
    for m in range(1, 1 << b):
        v = vals[m]
        arr[m] = v if m.bit_count() % 2 else -v
    _sum_over_subsets(arr, b)
    ctx.union[bi] = arr
    return arr


def _bucket_pcnts(
    bucket: list[int],
    origins: list[list[tuple[int, ...]]],
    children: Sequence[_NodeCtx],
) -> list[int]:
    """Projected counts for every nonempty subset of one bucket (by local
    mask), equal to ``pcnt`` of the corresponding row sets."""
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
                total += _union_table(child, cb)[mask]
            out[m] = total
        return out

    c1, c2 = children
    # pair universe per child-bucket signature, shared by the whole bucket
    pairs_by_sig: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    per_row_masks: list[dict[tuple[int, int], int]] = []
    for u in bucket:
        g: dict[tuple[int, int], int] = {}
        for (i, j) in origins[u]:
            sig = (c1.bucket_of[i], c2.bucket_of[j])
            universe = pairs_by_sig.setdefault(sig, {})
            bit = universe.setdefault((i, j), 1 << len(universe))
            g[sig] = g.get(sig, 0) | bit
        per_row_masks.append(g)
    sig_pairs = {
        sig: [pair for pair, _ in sorted(universe.items(), key=lambda kv: kv[1])]
        for sig, universe in pairs_by_sig.items()
    }
    # small pair universes: tabulate the whole union-count function with one
    # subset-sum pass, so each key costs one lookup per signature
    sig_tables: dict[tuple[int, int], list[int] | None] = {}
    for sig, seqs in sig_pairs.items():
        u = len(seqs)
        if u > 18:
            sig_tables[sig] = None
            continue
        v1, v2 = c1.vals[sig[0]], c2.vals[sig[1]]
        p1, p2 = c1.pos_in_bucket, c2.pos_in_bucket
        left = [0] * (1 << u)
        right = [0] * (1 << u)
        q = [0] * (1 << u)
        for mask in range(1, 1 << u):
            lo = mask & -mask
            i, j = seqs[lo.bit_length() - 1]
            rest = mask ^ lo
            left[mask] = left[rest] | (1 << p1[i])
            right[mask] = right[rest] | (1 << p2[j])
            v = v1[left[mask]] * v2[right[mask]]
            q[mask] = v if mask.bit_count() % 2 else -v
        _sum_over_subsets(q, u)
        sig_tables[sig] = q
    # distinct pair unions recur across keys, so fallback evaluations memoize
    memo: dict[tuple[tuple[int, int], int], int] = {}

    def evaluate(sig: tuple[int, int], mask: int) -> int:
        got = memo.get((sig, mask))
        if got is not None:
            return got
        seqs = sig_pairs[sig]
        v1, v2 = c1.vals[sig[0]], c2.vals[sig[1]]
        p1, p2 = c1.pos_in_bucket, c2.pos_in_bucket
        chosen = []
        mm = mask
        while mm:
            lo = mm & -mm
            chosen.append(seqs[lo.bit_length() - 1])
            mm ^= lo
        n = len(chosen)
        total = 0
        for bits in range(1, 1 << n):
            k1 = k2 = 0
            bb = bits
            count = 0
            while bb:
                lo = bb & -bb
                i, j = chosen[lo.bit_length() - 1]
                k1 |= 1 << p1[i]
                k2 |= 1 << p2[j]
                count += 1
                bb ^= lo
            term = v1[k1] * v2[k2]
            total += term if count % 2 else -term
        memo[(sig, mask)] = total
        return total

    for m in range(1, size):
        merged: dict[tuple[int, int], int] = {}
        mm = m
        while mm:
            lo = mm & -mm
            for sig, mask in per_row_masks[lo.bit_length() - 1].items():
                merged[sig] = merged.get(sig, 0) | mask
            mm ^= lo
        total = 0
        for sig, mask in merged.items():
            table = sig_tables[sig]
            total += table[mask] if table is not None else evaluate(sig, mask)
        out[m] = total
    return out


_LAYERED_THRESHOLD = 11  # naive strict-submask sums are cheaper below this


def _bucket_values(kind: str, pcnts: list[int], b: int) -> list[int]:
    """Intersection counts for every nonempty subset of a bucket.

    Matches ``ipmc``: each value is |own projected count + signed sum of the
    strictly smaller values|.  Small buckets enumerate submasks directly;
    large ones fold each cardinality layer with a subset-sum pass.
    """
    size = 1 << b
    vals = [0] * size
    if kind == LEAF:
        for m in range(1, size):
            vals[m] = 1
        return vals
    if b < _LAYERED_THRESHOLD:
        for m in range(1, size):
            t = 0
            sub = (m - 1) & m
            while sub:
                v = vals[sub]
                t += -v if sub.bit_count() % 2 else v
                sub = (sub - 1) & m
            vals[m] = abs(pcnts[m] + t)
        return vals

    layers: list[list[int]] = [[] for _ in range(b + 1)]
    for m in range(1, size):
        layers[m.bit_count()].append(m)
    acc = [0] * size  # signed sums over all strictly smaller layers
    for s in range(1, b + 1):
        tmp = [0] * size
        for m in layers[s]:
            v = abs(pcnts[m] + acc[m])
            vals[m] = v
            tmp[m] = -v if s % 2 else v
        _sum_over_subsets(tmp, b)
        for i in range(size):
            acc[i] += tmp[i]
    return vals


def run_proj(purged: PurgedTables, pmask: int) -> ProjTables:
    """Bottom-up pass computing every node's sub-bucket count table."""
    ttd = purged.ttd
    td = ttd.td
    alg = ttd.alg
    tables: list[ProjTable] = [{} for _ in td.nodes]
    bucket_maps: list[dict[int, int]] = [{} for _ in td.nodes]
    ctxs: list[_NodeCtx | None] = [None] * len(td.nodes)

    for t in ttd.post_order:
        rows = purged.rows[t]
        nd = td.nodes[t]
        partition = buckets([alg.interp(r) for r in rows], pmask)
        ctx = _NodeCtx(partition, {}, {}, [], [None] * len(partition))
        for bi, bucket in enumerate(partition):
            for pos, j in enumerate(bucket):
                ctx.bucket_of[j] = bi
                ctx.pos_in_bucket[j] = pos
        children = [ctxs[c] for c in nd.children]
        table: ProjTable = {}
        for bi, bucket in enumerate(partition):
            b = len(bucket)
            if nd.kind == LEAF:
                pcnts = []
            else:
                pcnts = _bucket_pcnts(bucket, purged.origins[t], children)  # type: ignore[arg-type]
            vals = _bucket_values(nd.kind, pcnts, b)
            ctx.vals.append(vals)
            for m in range(1, 1 << b):
                key = frozenset(bucket[i] for i in range(b) if m >> i & 1)
                table[key] = vals[m]
        tables[t] = table
        bucket_maps[t] = ctx.bucket_of
        ctxs[t] = ctx
    return ProjTables(tables, bucket_maps)


def final_count(proj: ProjTables, purged: PurgedTables) -> int:
    """Projected answer-set count: the sum of stored counts at the root
    (the root table has at most one entry; zero when it is empty)."""
    return sum(proj.tables[purged.ttd.td.root].values())


def reference_proj_table(
    kind: str,
    rows: Sequence,
    interp_of,
    pmask: int,
    row_origins: Sequence[list[tuple[int, ...]]],
    child_tables: Sequence[Mapping[frozenset[int], int]],
    child_bucket_of: Sequence[Mapping[int, int]],
) -> ProjTable:
    """One node's table straight from the defining formulas; cross-checks
    the bucket-wise evaluation in tests."""
    table: ProjTable = {}
    interps = [interp_of(r) for r in rows]
    for rho in sorted(subbuckets(interps, pmask), key=lambda s: (len(s), sorted(s))):
        seqs: set[tuple[int, ...]] = set()
        for j in rho:
            seqs.update(row_origins[j])
        table[rho] = ipmc(kind, rho, seqs, child_tables, child_bucket_of, table)
    return table

"""Reference formulations kept for the tests: the defining per-entry
formulas of the projection pass, the union-count transform of a bucket's
intersection counts, the engine's origin links as row tuples and their
definitional recomputation, structural row checks on decoded rows, the
``prim`` table algorithm with counter sets as frozensets of atom masks, the
first elimination-ordering decomposition, and the structural check of the
nice shape.
The library computes the same quantities bucket-wise (``paspc.proj``),
records them during the table pass (``paspc.engine``), encodes rows in bag
slots with counter sets as subset bitsets (``paspc.prim``), selects and
links bags with cheaper structures, or builds nice decompositions that are
nice by construction (``paspc.decomposition``)."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Any, Mapping, NamedTuple, Sequence

from paspc.decomposition import (
    INTRODUCE,
    JOIN,
    LEAF,
    REMOVE,
    NiceTreeDecomposition,
    PrimalGraph,
    TreeDecomposition,
    assign_slots,
)
from paspc.engine import BagRule, NodeTable, TabledTreeDecomposition, bag_rule, entering_rules, node_table
from paspc.phc import PhcAlgorithm
from paspc.program import Program, Rule, is_model, iter_bits, mask_of
from paspc.proj import buckets

ProjTable = dict[frozenset[int], int]


def ids_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


# --- projection pass ----------------------------------------------------------


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


def union_counts(vals: Sequence[int], b: int) -> list[int]:
    """Union counts per row subset of one bucket: the inclusion-exclusion
    (-1)^(|T|-1) sum of its intersection counts, materialized with
    one subset-sum pass."""
    arr = [0] * (1 << b)
    for m in range(1, 1 << b):
        v = vals[m]
        arr[m] = v if m.bit_count() % 2 else -v
    for i in range(b):
        bit = 1 << i
        for m in range(len(arr)):
            if m & bit:
                arr[m] += arr[m ^ bit]
    return arr


# --- engine: origins as rows, scopes and origin verification ----------------


def origins(ttd: TabledTreeDecomposition, t: int, row: Any) -> set[tuple]:
    """Originating child-row sequences of a row, as row tuples."""
    tab = ttd.table(t)
    try:
        at = tab.rows.index(row)
    except ValueError:
        raise KeyError(f"row not present in table of node {t}") from None
    kids = ttd.td.nodes[t].children
    out = set()
    for seq in tab.origins[at]:
        out.add(tuple(ttd.table(kids[i]).rows[j] for i, j in enumerate(seq)))
    return out


def origins_table(ttd: TabledTreeDecomposition, t: int, rows: Sequence[Any]) -> set[tuple]:
    """Union of the row tuples that originate the given rows."""
    out: set[tuple] = set()
    for row in rows:
        out |= origins(ttd, t, row)
    return out



@dataclass(frozen=True)
class NodeScope:
    """Program below a node, and its atoms (inclusive and strict)."""

    rules_below: frozenset[Rule]
    atoms_below: int
    atoms_strictly_below: int


def node_scope(ttd: TabledTreeDecomposition, t: int) -> NodeScope:
    td = ttd.td
    below_rules: set[Rule] = set()
    below_atoms = 0
    stack = [t]
    while stack:
        x = stack.pop()
        below_rules.update(r.source for r in ttd.rules[x])
        below_atoms |= mask_of(td.nodes[x].bag)
        stack.extend(td.nodes[x].children)
    return NodeScope(
        frozenset(below_rules),
        below_atoms,
        below_atoms & ~mask_of(td.nodes[t].bag),
    )


def definitional_origins(ttd: TabledTreeDecomposition, t: int, row: Any) -> set[tuple[int, ...]]:
    """Recompute origins from the algorithm itself: all child-row sequences
    whose singleton tables reproduce the row.  Quadratic; debug use only."""
    nd = ttd.td.nodes[t]
    alg = ttd.alg
    out = set()
    child_tables = [ttd.table(c) for c in nd.children]
    ranges = [range(len(tab)) for tab in child_tables]
    for combo in product(*ranges):
        singles = [
            NodeTable([child_tables[i].rows[j]], [child_tables[i].origins[j]])
            for i, j in enumerate(combo)
        ]
        slot = None if nd.atom is None else ttd.slots[nd.atom]
        produced = node_table(alg, nd.kind, nd.atom, slot, ttd.rules[t], singles)
        if row in produced:
            out.add(combo)
    return out


def verify_origins(ttd: TabledTreeDecomposition) -> list[str]:
    """Debug mode: check that every row's recorded origin links are nonempty
    and identical to the definitional recomputation.  Expensive."""
    problems = []
    for t in ttd.post_order:
        tab = ttd.table(t)
        for i, row in enumerate(tab.rows):
            recorded = set(tab.origins[i])
            if not recorded:
                problems.append(f"node {t} row {i}: no origin recorded")
                continue
            if recorded != definitional_origins(ttd, t, row):
                problems.append(f"node {t} row {i}: recorded origins differ from definition")
    return problems


def check_row_invariants(ttd: TabledTreeDecomposition) -> list[str]:
    """Structural row checks used by fuzz tests, on rows decoded to atom
    masks: proven within interpretation within bag, and for ``phc`` the
    ordering enumerating exactly the true cyclic atoms, grouped by
    component."""
    problems = []
    comp = ttd.alg.components if isinstance(ttd.alg, PhcAlgorithm) else None
    for t in ttd.post_order:
        bag_slots = sum(1 << ttd.slots[a] for a in ttd.td.nodes[t].bag)
        for row in ttd.table(t).rows:
            interp, proven = ttd.decode(t, row.interp), ttd.decode(t, row.proven)
            if (row.interp | row.proven) & ~bag_slots:
                problems.append(f"node {t}: interpretation outside bag")
            if proven & ~interp:
                problems.append(f"node {t}: proven atom outside interpretation")
            if comp is not None:
                cyclic = {a for a in ids_of(interp) if a in comp}
                if len(set(row.order)) != len(row.order) or set(row.order) != cyclic:
                    problems.append(f"node {t}: ordering does not enumerate the true cyclic atoms")
                elif [comp[a] for a in row.order] != sorted(comp[a] for a in row.order):
                    problems.append(f"node {t}: ordering not grouped by component")
    return problems


# --- prim with frozenset counters -------------------------------------------


class PrimRow(NamedTuple):
    witness: int
    counters: frozenset[int]


def _reduct_models(interp: int, reduct_rules: Sequence[BagRule]) -> bool:
    for r in reduct_rules:
        if not (r.head_mask & interp or r.pos_mask & ~interp):
            return False
    return True


class ReferencePrim:
    """``prim`` as first written, on atom ids: a row pairs a witness with
    the frozenset of its counter-witnesses' atom masks, and every reduct
    test is an interpreted loop over the node's rules."""

    name = "prim"
    solution_row = PrimRow(0, frozenset())

    @staticmethod
    def interp(row: PrimRow) -> int:
        return row.witness

    @staticmethod
    def node_table(
        kind: str,
        atom: int | None,
        rules: Sequence[BagRule],
        child_tables: Sequence[NodeTable],
    ) -> dict[PrimRow, list[tuple[int, ...]]]:
        out: dict[PrimRow, list[tuple[int, ...]]] = {}
        if kind == LEAF:
            if is_model(0, rules):
                out[PrimRow(0, frozenset())] = [()]
        elif kind == INTRODUCE:
            bit = 1 << atom
            for ci, row in enumerate(child_tables[0].rows):
                for witness in (row.witness, row.witness | bit):
                    if not is_model(witness, rules):
                        continue
                    reduct = [r for r in rules if not (r.neg_mask & witness)]
                    counters = set()
                    for n in row.counters:
                        candidates = (n, n | bit) if witness & bit else (n,)
                        for n2 in candidates:
                            if _reduct_models(n2, reduct):
                                counters.add(n2)
                    if witness & bit and _reduct_models(row.witness, reduct):
                        # the old witness, lacking the new atom, is now a
                        # strictly smaller model candidate
                        counters.add(row.witness)
                    new = PrimRow(witness, frozenset(counters))
                    out.setdefault(new, []).append((ci,))
        elif kind == REMOVE:
            bit = 1 << atom
            for ci, row in enumerate(child_tables[0].rows):
                new = PrimRow(row.witness & ~bit, frozenset(n & ~bit for n in row.counters))
                out.setdefault(new, []).append((ci,))
        elif kind == JOIN:
            right: dict[int, list[int]] = {}
            for cj, row in enumerate(child_tables[1].rows):
                right.setdefault(row.witness, []).append(cj)
            for ci, row in enumerate(child_tables[0].rows):
                for cj in right.get(row.witness, ()):
                    c1, c2 = row.counters, child_tables[1].rows[cj].counters
                    full = frozenset((row.witness,))
                    merged = (c1 & c2) | (full & (c1 | c2))
                    new = PrimRow(row.witness, merged)
                    out.setdefault(new, []).append((ci, cj))
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        return out


def reference_prim_tables(program: Program, td: NiceTreeDecomposition) -> list[NodeTable]:
    """Per node, the table of ``ReferencePrim`` over the same entering rules
    as ``paspc.engine.run_dp``, with atom-id masks: each atom its own slot."""
    rules = entering_rules(program, td, assign_slots(td, program.n_atoms))
    ids = range(program.n_atoms)
    tables: list[NodeTable] = [None] * len(td.nodes)  # type: ignore[list-item]
    for t in td.post_order():
        nd = td.nodes[t]
        source = [bag_rule(r.source, ids) for r in rules[t]]
        produced = ReferencePrim.node_table(nd.kind, nd.atom, source, [tables[c] for c in nd.children])
        tables[t] = NodeTable(list(produced), list(produced.values()))
    return tables


def decoded_prim_row(ttd: TabledTreeDecomposition, t: int, row: Any) -> PrimRow:
    """A slot-encoded ``prim`` row of node t as a ``ReferencePrim`` row: bit
    n of a counter bitset stands for the slot subset n, and a sparse counter
    set holds the slot subsets themselves."""
    subsets = row.counters if isinstance(row.counters, frozenset) else ids_of(row.counters)
    return PrimRow(ttd.decode(t, row.witness), frozenset(ttd.decode(t, n) for n in subsets))


# --- decomposition ------------------------------------------------------------


def reference_decompose(graph: PrimalGraph, heuristic: str = "min-fill", seed: int = 0) -> TreeDecomposition:
    """The elimination-ordering decomposition as first written: a heap with
    lazy deletion for seed 0 and a scan over all live vertices per step for a
    nonzero seed (O(n^2)), and bag linking by a forward scan for the first
    superset bag.  ``paspc.decomposition.decompose`` must return the same
    bags and edges for every (graph, heuristic, seed).

    Repeatedly eliminates a vertex chosen by the heuristic (``min-fill`` or
    ``min-degree``), turns its neighborhood into a clique, records the bag
    vertex+neighborhood, and later connects each bag to the first later bag
    containing all its neighbors.  Ties are broken by smallest vertex id;
    with a nonzero seed a seeded RNG picks among the tied candidates instead.

    Scores are maintained incrementally (only vertices whose neighborhood
    changed are rescored), so sparse graphs decompose in near-linear time.
    """
    if heuristic not in ("min-fill", "min-degree"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    n = graph.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])

    rng = random.Random(seed) if seed != 0 else None
    nbrs: list[set[int]] = [set(s) for s in graph.adj]
    alive = [True] * n
    by_fill = heuristic == "min-fill"

    def rescore(v: int) -> int:
        if not by_fill:
            return len(nbrs[v])
        ns = sorted(nbrs[v])
        missing = 0
        for i in range(len(ns)):
            ni = nbrs[ns[i]]
            for j in range(i + 1, len(ns)):
                if ns[j] not in ni:
                    missing += 1
        return missing

    score = [rescore(v) for v in range(n)]
    heap = [(score[v], v) for v in range(n)]
    heapq.heapify(heap)

    bags: list[frozenset[int]] = []
    elim_neighbors: list[set[int]] = []
    remaining = n
    while remaining:
        if rng is None:
            while True:
                s, v = heapq.heappop(heap)
                if alive[v] and score[v] == s:
                    break
        else:
            best = min(score[u] for u in range(n) if alive[u])
            v = rng.choice([u for u in range(n) if alive[u] and score[u] == best])

        neigh = set(nbrs[v])
        bags.append(frozenset(neigh | {v}))
        elim_neighbors.append(neigh)
        touched = set(neigh)
        ns = sorted(neigh)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                x, y = ns[i], ns[j]
                if y not in nbrs[x]:
                    nbrs[x].add(y)
                    nbrs[y].add(x)
                    if by_fill:
                        touched.update(nbrs[x] & nbrs[y])
        for u in neigh:
            nbrs[u].discard(v)
        nbrs[v].clear()
        alive[v] = False
        remaining -= 1
        for u in touched:
            if alive[u]:
                score[u] = rescore(u)
                heapq.heappush(heap, (score[u], u))

    edges = []
    for i in range(len(bags)):
        need = elim_neighbors[i]
        if not need:
            if i + 1 < len(bags):
                edges.append((i, i + 1))
            continue
        for j in range(i + 1, len(bags)):
            if need <= bags[j]:
                edges.append((i, j))
                break
    return TreeDecomposition(bags, edges)


def to_tree_decomposition(ntd: NiceTreeDecomposition) -> TreeDecomposition:
    """The nice decomposition as a plain one: the same bags, one edge per
    parent-child pair."""
    edges = [(t, c) for t, nd in enumerate(ntd.nodes) for c in nd.children]
    return TreeDecomposition([nd.bag for nd in ntd.nodes], edges)


def check_nice(ntd: NiceTreeDecomposition) -> list[str]:
    """Structural checks for the nice shape, joins over empty bags included
    (empty when nice)."""
    problems = []
    for t, nd in enumerate(ntd.nodes):
        if nd.kind == LEAF:
            if nd.children or nd.bag:
                problems.append(f"node {t}: leaf must have no children and empty bag")
        elif nd.kind == INTRODUCE:
            if len(nd.children) != 1:
                problems.append(f"node {t}: introduce needs one child")
            else:
                cb = ntd.nodes[nd.children[0]].bag
                if nd.atom is None or nd.atom in cb or cb | {nd.atom} != nd.bag:
                    problems.append(f"node {t}: bad introduce")
        elif nd.kind == REMOVE:
            if len(nd.children) != 1:
                problems.append(f"node {t}: remove needs one child")
            else:
                cb = ntd.nodes[nd.children[0]].bag
                if nd.atom is None or nd.atom in nd.bag or nd.bag | {nd.atom} != cb:
                    problems.append(f"node {t}: bad remove")
        elif nd.kind == JOIN:
            if len(nd.children) != 2:
                problems.append(f"node {t}: join needs two children")
            elif any(ntd.nodes[c].bag != nd.bag for c in nd.children):
                problems.append(f"node {t}: join children bags differ")
        else:
            problems.append(f"node {t}: unknown kind {nd.kind}")
    if ntd.nodes[ntd.root].bag:
        problems.append("root bag not empty")
    return problems

"""Reference formulations kept for the tests: the defining per-entry
formulas of the projection pass, the union-count transform of a bucket's
intersection counts, the purge by per-node mark arrays, a node's bucket
members rebuilt from the pass's per-row bucket ids and bits, tables built
from and read as lists of origin tuples, the engine's origin links as row
tuples and their definitional recomputation, each node's entering rules
found node by node, each node's context translated node by node from its
entering program rules, structural row checks on decoded rows, the
``prim`` table algorithm with counter sets as frozensets of atom masks, the
positive dependency digraph as an edge set with its reachability closure,
the primal graph built edge by edge, the first elimination-ordering
decomposition, the structural check of the nice shape, the brute-force
oracle that builds every interpretation's reduct before checking it, and
the program parser over ``(kind, lexeme, offset)`` token tuples.
The library computes the same quantities bucket-wise (``paspc.proj``),
records them during the table pass as ints, finds each rule's entering
nodes from the rule and purges top-down from each node's parent's kept
list (``paspc.engine``), translates each rule once per solve
(the table algorithms' ``rule``), encodes rows
in bag slots with counter sets as subset bitsets (``paspc.prim``), builds
both program graphs on atom-indexed lists (``paspc.program``,
``paspc.decomposition``), selects and links bags with cheaper structures,
builds nice decompositions that are nice by construction
(``paspc.decomposition``), checks the program before building a reduct,
and only for its models (``paspc.oracle``), or parses from bare lexemes,
working out a token's offset only for a diagnostic (``paspc.formats``)."""

from __future__ import annotations

import heapq
import random
import re
from array import array
from dataclasses import dataclass
from itertools import chain, combinations, compress, product
from typing import Any, Mapping, NamedTuple, NoReturn, Sequence

from paspc.decomposition import (
    INTRODUCE,
    JOIN,
    LEAF,
    REMOVE,
    NiceTreeDecomposition,
    PrimalGraph,
    TreeDecomposition,

)
from paspc.engine import (
    NO_MORE,
    NodeTable,
    PurgedTables,
    TabledTreeDecomposition,
    entering_rules,
    has_solution,
    node_table,
)
from paspc.formats import ParseDiagnostic, ParseError
from paspc.oracle import MAX_ATOMS, OracleSizeError
from paspc.phc import PhcAlgorithm
from paspc.program import Program, Rule, is_model, iter_bits, mask_of
from paspc.proj import NodeCounts, buckets

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


def bucket_members(node: NodeCounts, kept: Sequence[int]) -> list[list[int]]:
    """A node's buckets as lists of purged-row indices, rebuilt from what
    the pass keeps: purged row u (table row ``kept[u]``) sits in bucket
    ``bucket_of[kept[u]]`` at bit ``pos_in_bucket[kept[u]]``, and a bucket's
    count array has 2^|b| entries.  Each list is in bit order, which is
    ascending; a slot no row claims stays ``None``."""
    members: list[list] = [[None] * (len(pcnts).bit_length() - 1) for pcnts in node.pcnts]
    for u, j in enumerate(kept):
        members[node.bucket_of[j]][node.pos_in_bucket[j]] = u
    return members


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


# --- engine: origins as lists and rows, scopes and origin verification ------


def reference_entering_rules(program: Program, td: NiceTreeDecomposition, forms: Sequence[Any]) -> list[Sequence[Any]]:
    """``engine.entering_rules`` found node by node: the rules' forms
    (``forms[i]`` for ``program.rules[i]``) grouped by atom, and every
    introduce node scanning all rules of its atom for those that fit its
    bag."""
    rules_by_atom: dict[int, list[tuple[Any, tuple[int, ...]]]] = {}
    atomless = []
    for r, form in zip(program.rules, forms):
        atoms = r.head + r.pos_body + r.neg_body
        if not atoms:
            atomless.append(form)
        for a in set(atoms):
            rules_by_atom.setdefault(a, []).append((form, atoms))

    out: list[Sequence[Any]] = [()] * len(td.nodes)
    for t, nd in enumerate(td.nodes):
        if nd.kind == LEAF:
            out[t] = atomless
        elif nd.kind == INTRODUCE:
            out[t] = [form for form, atoms in rules_by_atom.get(nd.atom, ()) if nd.bag.issuperset(atoms)]  # type: ignore[arg-type]
    return out


def node_rules(ttd: TabledTreeDecomposition) -> list[Sequence[Any]]:
    """Per node, its entering rules in the forms ``run_dp`` hands the
    algorithm: each program rule translated by the algorithm's ``rule``."""
    forms = [ttd.alg.rule(r, ttd.slots) for r in ttd.program.rules]
    return entering_rules(ttd.program, ttd.td, forms)


def reference_context(alg: Any, atom: int, rules: Sequence[Rule], bag: Any, slots: Sequence[int]) -> Any:
    """An introduce or remove node's context translated node by node from
    its entering program rules, as the library did before each algorithm
    translated a rule once per solve: every rule's slot masks, for ``prim``
    as they are, and for ``phc`` with, per rule, its acyclic head mask and
    per cyclic head atom its slot bit, its slot and the slots of the
    positive-body atoms of its component."""
    masks = [tuple(mask_of(slots[a] for a in ids) for ids in r) for r in rules]
    slot = slots[atom]
    if not isinstance(alg, PhcAlgorithm):
        return slot, tuple(masks)
    get = alg.components.get
    ctx_rules = []
    for (head_mask, pos_mask, neg_mask), r in zip(masks, rules):
        acyclic, cyclic = head_mask, ()
        for a in r.head:
            c = get(a)
            if c is not None:
                acyclic &= ~(1 << slots[a])
                cyclic += ((1 << slots[a], slots[a], tuple(slots[b] for b in r.pos_body if get(b) == c)),)
        ctx_rules.append((head_mask, pos_mask, neg_mask, acyclic, cyclic))
    c = get(atom)
    if c is None:
        return 1 << slot, None, 0, tuple(ctx_rules)
    same = mask_of(slots[b] for b in bag if b != atom and get(b) == c)
    return 1 << slot, slot, same, tuple(ctx_rules)


def table_of(rows: list, origins: Sequence[Sequence[tuple[int, ...]]]) -> NodeTable:
    """A table of the given rows whose origins decode to the given lists of
    child-index tuples (``NodeTable.origins``).  The tuples' length is the
    node's arity; a join pair (i, j) is stored as i * stride + j, with the
    stride one more than the largest j."""
    arity = len(origins[0][0]) if origins else 0
    stride = 1 + max((j for seqs in origins for _, j in seqs), default=0) if arity == 2 else 0
    encoded = [[seq[0] * stride + seq[1] if arity == 2 else (seq[0] if seq else 0) for seq in seqs] for seqs in origins]
    more = {j: tuple(seq[1:]) for j, seq in enumerate(encoded) if len(seq) > 1}
    return NodeTable(rows, array("q", [seq[0] for seq in encoded]), more or NO_MORE, arity, stride)


def reference_purge(ttd: TabledTreeDecomposition) -> PurgedTables:
    """The purge by mark arrays: one mark byte per table row of every node,
    the root's solution row marked first, then, top-down, every origin of a
    marked row marked in its child.  Pools equal kept lists into one object
    as ``engine.purge`` does."""
    td = ttd.td
    marked = [bytearray(len(ttd.table(t))) for t in range(len(td.nodes))]
    if has_solution(ttd):
        marked[td.root][ttd.table(td.root).rows.index(ttd.alg.solution_row)] = 1
    kept: list[tuple[int, ...]] = [()] * len(td.nodes)
    pool: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t in reversed(ttd.post_order):
        mark = marked[t]
        keep = tuple(compress(range(len(mark)), mark))
        if not keep:
            continue
        tab = ttd.table(t)
        kept[t] = pool.setdefault(keep, keep)
        children = td.nodes[t].children
        if not children:
            continue
        origins = chain(compress(tab.first, mark), [o for j, seq in tab.more.items() if mark[j] for o in seq])
        if len(children) == 1:
            child_mark = marked[children[0]]
            for o in origins:
                child_mark[o] = 1
        else:
            left, right = (marked[c] for c in children)
            for o in origins:
                i, j = divmod(o, tab.stride)
                left[i] = 1
                right[j] = 1
    return PurgedTables(ttd, kept)


def table_dict(tab: NodeTable) -> dict[Any, list[tuple[int, ...]]]:
    """A table as row -> its origins, decoded to child-index tuples."""
    return dict(zip(tab.rows, tab.origins))


def node_context(ttd: TabledTreeDecomposition, t: int, rules: Sequence[Any]) -> Any:
    """The context that ``run_dp`` builds node t's table from, given the
    node's entering rules' forms (``node_rules``): at a leaf whether they
    hold, at a join None, and
    elsewhere the algorithm's ``context`` of the node's atom and bag."""
    nd = ttd.td.nodes[t]
    if nd.kind == LEAF:
        return is_model(0, rules)
    if nd.kind == JOIN:
        return None
    return ttd.alg.context(nd.atom, rules, nd.bag, ttd.slots)


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
    rules = entering_rules(ttd.program, td, ttd.program.rules)
    below_rules: set[Rule] = set()
    below_atoms = 0
    stack = [t]
    while stack:
        x = stack.pop()
        below_rules.update(rules[x])
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
    child_origins = [tab.origins for tab in child_tables]
    ctx = node_context(ttd, t, node_rules(ttd)[t])
    ranges = [range(len(tab)) for tab in child_tables]
    for combo in product(*ranges):
        singles = [table_of([child_tables[i].rows[j]], [child_origins[i][j]]) for i, j in enumerate(combo)]
        produced = node_table(alg, nd.kind, ctx, singles)
        if row in produced.rows:
            out.add(combo)
    return out


def verify_origins(ttd: TabledTreeDecomposition) -> list[str]:
    """Debug mode: check that every row's recorded origin links are nonempty
    and identical to the definitional recomputation.  Expensive."""
    problems = []
    for t in ttd.post_order:
        tab = ttd.table(t)
        seqs = tab.origins
        for i, row in enumerate(tab.rows):
            recorded = set(seqs[i])
            if not recorded:
                problems.append(f"node {t} row {i}: no origin recorded")
                continue
            if recorded != definitional_origins(ttd, t, row):
                problems.append(f"node {t} row {i}: recorded origins differ from definition")
    return problems


def check_row_invariants(ttd: TabledTreeDecomposition) -> list[str]:
    """Structural row checks used by fuzz tests, on rows decoded to atom
    masks: proven within interpretation within bag, and for ``phc`` the
    ordering, decoded from (slot, rank) pairs through the node's slots,
    enumerating exactly the true cyclic atoms once each, ascending by slot,
    with the ranks of each component's atoms exactly 0..k-1."""
    problems = []
    comp = ttd.alg.components if isinstance(ttd.alg, PhcAlgorithm) else None
    for t in ttd.post_order:
        bag = ttd.td.nodes[t].bag
        bag_slots = sum(1 << ttd.slots[a] for a in bag)
        atom_at = {ttd.slots[a]: a for a in bag}
        for row in ttd.table(t).rows:
            interp, proven = ttd.decode(t, row.interp), ttd.decode(t, row.proven)
            if (row.interp | row.proven) & ~bag_slots:
                problems.append(f"node {t}: interpretation outside bag")
            if proven & ~interp:
                problems.append(f"node {t}: proven atom outside interpretation")
            if comp is not None:
                cyclic = {a for a in ids_of(interp) if a in comp}
                order_slots = [s for s, _ in row.order]
                atoms = [atom_at.get(s) for s in order_slots]
                if order_slots != sorted(set(order_slots)) or set(atoms) != cyclic:
                    problems.append(f"node {t}: ordering does not enumerate the true cyclic atoms")
                    continue
                ranks: dict[int, list[int]] = {}
                for a, (_, r) in zip(atoms, row.order):
                    ranks.setdefault(comp[a], []).append(r)
                if any(sorted(rs) != list(range(len(rs))) for rs in ranks.values()):
                    problems.append(f"node {t}: ranks of a component are not 0..k-1")
    return problems


# --- prim with frozenset counters -------------------------------------------


class PrimRow(NamedTuple):
    witness: int
    counters: frozenset[int]


def _reduct_models(interp: int, reduct_rules: Sequence[tuple[int, int, int]]) -> bool:
    for head, pos, _ in reduct_rules:
        if not (head & interp or pos & ~interp):
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
        rules: Sequence[tuple[int, int, int]],
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
                    reduct = [r for r in rules if not (r[2] & witness)]
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
    rules = entering_rules(program, td, program.rules)
    tables: list[NodeTable] = [None] * len(td.nodes)  # type: ignore[list-item]
    for t in td.post_order():
        nd = td.nodes[t]
        masks = [tuple(map(mask_of, r)) for r in rules[t]]
        produced = ReferencePrim.node_table(nd.kind, nd.atom, masks, [tables[c] for c in nd.children])
        tables[t] = table_of(list(produced), list(produced.values()))
    return tables


def decoded_prim_row(ttd: TabledTreeDecomposition, t: int, row: Any) -> PrimRow:
    """A slot-encoded ``prim`` row of node t as a ``ReferencePrim`` row: bit
    n of a counter bitset stands for the slot subset n, and a sparse counter
    set holds the slot subsets themselves."""
    subsets = row.counters if isinstance(row.counters, frozenset) else ids_of(row.counters)
    return PrimRow(ttd.decode(t, row.witness), frozenset(ttd.decode(t, n) for n in subsets))


# --- program graphs -----------------------------------------------------------


@dataclass(frozen=True)
class DependencyDigraph:
    """Positive dependency digraph: edge (a, b) for a in B+ and b in H of a rule."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]


def dependency_digraph(program: Program) -> DependencyDigraph:
    verts = set()
    edges = set()
    for r in program.rules:
        verts.update(r.head)
        verts.update(r.pos_body)
        for a in r.pos_body:
            for b in r.head:
                edges.add((a, b))
    return DependencyDigraph(frozenset(verts), frozenset(edges))


def reachable(dep: DependencyDigraph) -> dict[int, set[int]]:
    """Per vertex, the vertices it reaches by a path of one or more edges:
    a vertex is in its own set iff it lies on a cycle."""
    succ: dict[int, set[int]] = {}
    for a, b in dep.edges:
        succ.setdefault(a, set()).add(b)
    out = {}
    for src in dep.vertices:
        seen: set[int] = set()
        stack = [src]
        while stack:
            for w in succ.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out[src] = seen
    return out


def add_edge(g: PrimalGraph, a: int, b: int) -> None:
    """Join two vertices of a graph built by hand; a loop is dropped."""
    if a != b:
        g.adj[a].add(b)
        g.adj[b].add(a)


def pairwise_primal_graph(program: Program) -> PrimalGraph:
    """The primal graph as first written: one ``add_edge`` per pair of a
    rule's atoms."""
    g = PrimalGraph(program.n_atoms)
    for r in program.rules:
        atoms = sorted(set(r.head) | set(r.pos_body) | set(r.neg_body))
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                add_edge(g, atoms[i], atoms[j])
    return g


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


# --- brute-force oracle -------------------------------------------------------


def enumerate_answer_sets(program: Program) -> list[int]:
    """All answer sets as interpretation bitmasks, ascending: every
    interpretation's reduct is built and checked, and each of its models
    walks all its proper subsets for a smaller one."""
    n = program.n_atoms
    if n > MAX_ATOMS:
        raise OracleSizeError(f"{n} atoms exceed the brute-force guard of {MAX_ATOMS}")
    # atom masks of at most MAX_ATOMS bits
    rules = [(mask_of(r.head), mask_of(r.pos_body), mask_of(r.neg_body)) for r in program.rules]
    out = []
    for interp in range(1 << n):
        reduct = [(h, p) for h, p, ng in rules if not ng & interp]
        ok = True
        for h, p in reduct:
            if not (h & interp or p & ~interp):
                ok = False
                break
        if not ok:
            continue
        if interp:
            minimal = True
            sub = (interp - 1) & interp
            while True:
                good = True
                for h, p in reduct:
                    if not (h & sub or p & ~sub):
                        good = False
                        break
                if good:
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & interp
            if not minimal:
                continue
        out.append(interp)
    return out


# --- program text -------------------------------------------------------------

# Whitespace and comments match no group and are dropped; the catch-all
# ``bad`` takes any other character.
_TOKEN_RE = re.compile(
    r"""\s+ | %[^\n]*
      | (?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)
      | (?P<project>\#project\b)
      | (?P<arrow>:-)
      | (?P<pipe>\|)
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _fail(text: str, offset: int, message: str) -> NoReturn:
    line = text.count("\n", 0, offset) + 1
    raise ParseError(ParseDiagnostic(line, offset - text.rfind("\n", 0, offset), message))


def _atom(text: str, tok: tuple[str, str, int]) -> str:
    kind, lexeme, offset = tok
    if kind != "ident":
        _fail(text, offset, f"expected atom, found {lexeme!r}" if lexeme else "expected atom, found end of input")
    if lexeme == "not":
        _fail(text, offset, "'not' is reserved and cannot be used as an atom")
    return lexeme


def reference_parse_program(text: str) -> Program:
    """``formats.parse_program`` over ``(kind, lexeme, offset)`` token tuples,
    with name triples handed to ``Program.from_specs`` and the projection
    set afterwards by ``with_projection``."""
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if m.lastgroup]
    for kind, lexeme, offset in toks:
        if kind == "bad":
            _fail(text, offset, f"unknown token {lexeme!r}")
    toks.append(("end", "", len(text)))

    rule_specs: list[tuple[list[str], list[str], list[str]]] = []
    project_toks: list[tuple[str, str, int]] = []
    i = 0
    while True:
        kind, lexeme, offset = toks[i]
        if kind == "end":
            break
        if kind == "project":
            while True:  # i is at the directive or a comma
                _atom(text, toks[i + 1])
                project_toks.append(toks[i + 1])
                i += 2
                if toks[i][0] != "comma":
                    break
        else:
            if kind == "dot":
                _fail(text, offset, "empty rule: no head and no body")
            head: list[str] = []
            if kind == "ident":
                head.append(_atom(text, toks[i]))
                i += 1
                while toks[i][0] == "pipe":
                    head.append(_atom(text, toks[i + 1]))
                    i += 2
            elif kind != "arrow":
                _fail(text, offset, f"expected rule, found {lexeme!r}")
            pos_body: list[str] = []
            neg_body: list[str] = []
            if toks[i][0] == "arrow":
                i += 1
                while True:
                    if toks[i][1] == "not":  # only an ident reads "not"
                        neg_body.append(_atom(text, toks[i + 1]))
                        i += 2
                    else:
                        pos_body.append(_atom(text, toks[i]))
                        i += 1
                    if toks[i][0] != "comma":
                        break
                    i += 1
            rule_specs.append((head, pos_body, neg_body))
        if toks[i][0] != "dot":
            _fail(text, toks[i][2], "missing terminating period")
        i += 1

    program = Program.from_specs(rule_specs, projection=None)
    if project_toks:
        pmask = 0
        for _, name, offset in project_toks:
            try:
                pmask |= 1 << program.atom_id(name)
            except KeyError:
                _fail(text, offset, f"projection atom {name!r} does not occur in any rule")
        program = program.with_projection(pmask)
    return program

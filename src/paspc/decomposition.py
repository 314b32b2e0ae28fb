"""Primal graphs, elimination-ordering tree decompositions, validation, and
normalization to nice decompositions with empty root and leaf bags.

``validate_td`` is the one decomposition check: ``pipeline.solve`` runs it on
every supplied decomposition, and ``decompose`` builds valid ones.
``make_nice`` is nice by construction and does not check its output.  A nice
decomposition's node ids are its evaluation order (``NiceTreeDecomposition.add``)."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from .program import Program


class PrimalGraph:
    """Atoms as vertices; the atoms of each rule form a clique."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in sorted(self.adj[a]) if a < b]


def primal_graph(program: Program) -> PrimalGraph:
    """One ``set.update`` per rule atom; the self-loops are dropped at the end."""
    g = PrimalGraph(program.n_atoms)
    adj = g.adj
    for r in program.rules:
        atoms = r.head + r.pos_body + r.neg_body
        if len(atoms) > 1:
            for a in atoms:
                adj[a].update(atoms)
    for a, ns in enumerate(adj):
        ns.discard(a)
    return g


@dataclass
class TreeDecomposition:
    """Unrooted decomposition: bags per node, undirected tree edges."""

    bags: list[frozenset[int]]
    edges: list[tuple[int, int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def validate_td(graph: PrimalGraph, td: TreeDecomposition) -> list[str]:
    """Return the list of violated decomposition conditions (empty when valid).

    Each vertex's holders (the nodes whose bags contain it) are listed in one
    pass over the bags.  A graph edge is covered iff a holder of its endpoint
    with fewer holders also holds the other one.  On a tree, a vertex's
    holders induce a forest, which is connected iff the holders outnumber the
    tree edges joining two of them by exactly one; that check is skipped when
    the bag graph is not a tree (already reported)."""
    problems: list[str] = []
    n_nodes = len(td.bags)
    if n_nodes == 0:
        return ["decomposition has no nodes"]

    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for i, j in td.edges:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            problems.append(f"edge ({i},{j}) references unknown node")
            continue
        adj[i].append(j)
        adj[j].append(i)

    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n_nodes:
        problems.append("bag tree is disconnected")
    if len(td.edges) != n_nodes - 1:
        problems.append("bag graph has a cycle or wrong edge count")
    is_tree = not problems

    holders: dict[int, list[int]] = {}
    for t, bag in enumerate(td.bags):
        for v in bag:
            holders.setdefault(v, []).append(t)
    for v in holders:
        if not 0 <= v < graph.n:
            problems.append(f"bag vertex {v} is not a vertex of the graph")
    for v in range(graph.n):
        if v not in holders:
            problems.append(f"vertex {v} in no bag")
    for a, b in graph.edges():
        ha, hb = holders.get(a, []), holders.get(b, [])
        x, hx = (b, ha) if len(ha) <= len(hb) else (a, hb)
        if not any(x in td.bags[t] for t in hx):
            problems.append(f"edge ({a},{b}) inside no bag")

    if is_tree:
        # occurrence sets must induce connected subtrees
        inner = dict.fromkeys(holders, 0)
        for i, j in td.edges:
            for v in td.bags[i] & td.bags[j]:
                inner[v] += 1
        for v, ts in holders.items():
            if len(ts) - inner[v] != 1:
                problems.append(f"occurrences of vertex {v} are not connected")
    return problems


def decompose(graph: PrimalGraph, heuristic: str = "min-fill", seed: int = 0) -> TreeDecomposition:
    """Elimination-ordering decomposition.

    Repeatedly eliminates a vertex chosen by the heuristic (``min-fill`` or
    ``min-degree``), turns its neighborhood into a clique and records the bag
    vertex+neighborhood.  One selection rule serves both modes: among the
    live vertices of the lowest score, in ascending id order, each step
    takes the first (seed 0) or a seeded ``rng.choice`` (nonzero seed).  A
    (graph, heuristic, seed) thus always yields the decomposition that a
    scan over all live vertices per step would pick (the reference form
    kept in the tests).  ``tied`` keeps each score's live vertices sorted
    (as negated ids, so the lowest id is last); only vertices whose
    neighborhood changed are rescored, and one moves between lists, by
    bisection, only when its score changed, so both modes take O(n log n)
    plus the rescoring.

    Each bag is linked to the first later bag containing all its neighbors.
    Every such bag holds the neighbor eliminated first, and that neighbor's
    own bag is one, so only its holders after the bag are searched.
    """
    if heuristic not in ("min-fill", "min-degree"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    n = graph.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])

    rng = random.Random(seed) if seed != 0 else None
    nbrs: list[set[int]] = [set(s) for s in graph.adj]
    by_fill = heuristic == "min-fill"

    def rescore(v: int) -> int:
        ns = nbrs[v]
        k = len(ns)
        if not by_fill:
            return k
        # pairs of neighbors minus the edges among them (each seen twice)
        have = 0
        for x in ns:
            have += len(ns & nbrs[x])
        return (k * (k - 1) - have) // 2

    score = [rescore(v) for v in range(n)]
    # negated ids, ascending: the lowest id is popped from the end
    tied: dict[int, list[int]] = {}
    for v in range(n - 1, -1, -1):
        tied.setdefault(score[v], []).append(-v)

    bags: list[frozenset[int]] = []
    elim_neighbors: list[set[int]] = []
    step = [0] * n  # per vertex: the index of its own bag
    holders: list[list[int]] = [[] for _ in range(n)]  # bags holding it as a neighbor
    for i in range(n):
        best = min(tied)
        cands = tied[best]
        # cands[~k] is the k-th lowest id
        v = -cands.pop(~rng.choice(range(len(cands))) if rng is not None else -1)
        if not cands:
            del tied[best]

        neigh = nbrs[v]
        bags.append(frozenset(neigh | {v}))
        elim_neighbors.append(neigh)
        step[v] = i
        touched = set(neigh)
        ns = sorted(neigh)
        for a in range(len(ns)):
            x = ns[a]
            holders[x].append(i)
            for b in range(a + 1, len(ns)):
                y = ns[b]
                if y not in nbrs[x]:
                    nbrs[x].add(y)
                    nbrs[y].add(x)
                    if by_fill:
                        touched.update(nbrs[x] & nbrs[y])
        for u in neigh:
            nbrs[u].discard(v)
        touched.discard(v)
        for u in touched:
            old, new = score[u], rescore(u)
            if new == old:
                continue
            score[u] = new
            lst = tied[old]
            del lst[bisect_left(lst, -u)]
            if not lst:
                del tied[old]
            insort(tied.setdefault(new, []), -u)

    edges = []
    for i, need in enumerate(elim_neighbors):
        if not need:
            if i + 1 < n:
                edges.append((i, i + 1))
            continue
        if len(need) == 1:  # most bags of sparse graphs; a keyed min costs more
            (w,) = need
        else:
            w = min(need, key=step.__getitem__)
        hw = holders[w]
        for j in hw[bisect_right(hw, i) :]:
            if need <= bags[j]:
                break
        else:
            j = step[w]
        edges.append((i, j))
    return TreeDecomposition(bags, edges)


# --- nice decompositions ----------------------------------------------------

LEAF, INTRODUCE, REMOVE, JOIN = "leaf", "int", "rem", "join"


@dataclass(slots=True)
class NiceNode:
    kind: str
    bag: frozenset[int]
    atom: int | None
    children: tuple[int, ...]


@dataclass
class NiceTreeDecomposition:
    nodes: list[NiceNode] = field(default_factory=list)
    root: int = -1

    def add(self, kind: str, bag: frozenset[int], atom: int | None, children: tuple[int, ...]) -> int:
        """Append a node; ``children`` are earlier ids, so the ids ascending are
        a post-order, and ``make_nice`` adds the root last."""
        self.nodes.append(NiceNode(kind, bag, atom, children))
        return len(self.nodes) - 1

    def post_order(self) -> range:
        return range(len(self.nodes))

    @property
    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1


def assign_slots(ntd: NiceTreeDecomposition, n_atoms: int) -> list[int]:
    """A slot in 0..width per atom, distinct among the atoms of each bag.

    One top-down pass (node ids descending): an atom enters the bags below
    exactly one remove node, the parent of the topmost bag holding it, and
    there takes the lowest slot that the other atoms of that bag leave free.
    The bags are the cliques of a chordal supergraph of the primal graph, so
    width+1 slots suffice (Gavril 1972).  ``used[t]`` is the mask of the
    slots taken in node t's bag.  Atoms in no bag keep slot -1."""
    slots = [-1] * n_atoms
    used = [0] * len(ntd.nodes)
    for t in reversed(range(len(ntd.nodes))):
        nd = ntd.nodes[t]
        taken = used[t]
        if nd.kind == REMOVE:
            free = ~taken & (taken + 1)  # the lowest zero bit
            slots[nd.atom] = free.bit_length() - 1  # type: ignore[index]
            taken |= free
        elif nd.kind == INTRODUCE:
            taken &= ~(1 << slots[nd.atom])  # type: ignore[index]
        for c in nd.children:
            used[c] = taken
    return slots


def make_nice(td: TreeDecomposition, root: int | None = None) -> NiceTreeDecomposition:
    """Normalize a valid decomposition to a nice one of the same width.
    The input is not checked: the walk below never ends on a bag graph with
    a cycle, so callers run ``validate_td`` first.

    The designated root defaults to the node with the largest id.  Between
    original bags, removals come first and introductions second, both in
    ascending atom order.  Multi-child nodes become chains of binary joins,
    over an empty bag too.

    The output is nice by construction, so it is not checked either:
    ``chain_up`` removes only atoms in the bag and introduces only atoms not
    in it, starting from an empty leaf bag; a join only combines tops already
    lifted to its bag; and the root chain ends on the empty bag.
    """
    ntd = NiceTreeDecomposition()
    n = len(td.bags)
    if n == 0:
        raise ValueError("decomposition has no nodes")
    if root is None:
        root = n - 1

    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in td.edges:
        adj[i].append(j)
        adj[j].append(i)
    for lst in adj:
        lst.sort()

    def chain_up(top: int, have: frozenset[int], want: frozenset[int]) -> int:
        for a in sorted(have - want):
            have = have - {a}
            top = ntd.add(REMOVE, have, a, (top,))
        for a in sorted(want - have):
            have = have | {a}
            top = ntd.add(INTRODUCE, have, a, (top,))
        return top

    def fresh_chain(bag: frozenset[int]) -> int:
        top = ntd.add(LEAF, frozenset(), None, ())
        return chain_up(top, frozenset(), bag)

    # iterative post-order over the original tree
    order: list[tuple[int, int]] = []
    stack = [(root, -1)]
    while stack:
        t, parent = stack.pop()
        order.append((t, parent))
        for c in adj[t]:
            if c != parent:
                stack.append((c, t))
    order.reverse()

    built: dict[int, int] = {}
    for t, parent in order:
        bag = td.bags[t]
        kids = [c for c in adj[t] if c != parent]
        if not kids:
            built[t] = fresh_chain(bag)
            continue
        tops = [chain_up(built[c], td.bags[c], bag) for c in kids]
        cur = tops[0]
        for other in tops[1:]:
            cur = ntd.add(JOIN, bag, None, tuple(sorted((cur, other))))
        built[t] = cur

    ntd.root = chain_up(built[root], td.bags[root], frozenset())
    return ntd

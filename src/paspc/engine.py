"""Post-order dynamic-programming driver over a nice tree decomposition.

Each table algorithm turns one node's child tables into the node's own table
and reports, per emitted row, the child-row index sequences it came from.
It sees only the rules entering at the node, those whose atoms first all fit
a bag there: the rules of an introduced atom that fit its bag, and the
atomless rules at a leaf.  Every other rule that fits the bag was checked
below, on the same interpretation of its atoms.  The driver records tables
and origin links in the order the algorithm emitted them; a later top-down
pass (purge) keeps only rows reachable from the solution row at the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from .decomposition import INTRODUCE, LEAF, NiceTreeDecomposition
from .program import Program, Rule


class TableAlgorithm(Protocol):
    name: str
    solution_row: Any

    def node_table(
        self,
        kind: str,
        atom: int | None,
        rules: Sequence[Rule],
        child_tables: Sequence["NodeTable"],
    ) -> dict[Any, set[tuple[int, ...]]]: ...

    def interp(self, row: Any) -> int: ...

    def format_row(self, row: Any, program: Program) -> str: ...


class NodeTable:
    """Rows in emission order plus per-row origin sequences (child indices)."""

    __slots__ = ("rows", "origins")

    def __init__(self, rows: list, origins: list[list[tuple[int, ...]]]):
        self.rows = rows
        self.origins = origins

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class TabledTreeDecomposition:
    """Nice decomposition attributed with per-node tables of one algorithm."""

    td: NiceTreeDecomposition
    program: Program
    alg: TableAlgorithm
    tables: list[NodeTable | None]
    rules: list[Sequence[Rule]]  # per node: the rules entering there
    post_order: list[int] = field(default_factory=list)

    def table(self, t: int) -> NodeTable:
        tab = self.tables[t]
        if tab is None:
            raise KeyError(f"node {t} has no table")
        return tab


def entering_rules(program: Program, td: NiceTreeDecomposition) -> list[Sequence[Rule]]:
    """Per node, the rules that fit its bag but not its child's: at a leaf the
    atomless rules, at an introduce node the rules of its atom that fit the
    bag, and none at remove and join nodes."""
    rules_by_atom: dict[int, list[Rule]] = {}
    atomless = []
    for r in program.rules:
        if r.atom_mask == 0:
            atomless.append(r)
            continue
        for a in sorted(set(r.head) | set(r.pos_body) | set(r.neg_body)):
            rules_by_atom.setdefault(a, []).append(r)

    out: list[Sequence[Rule]] = [()] * len(td.nodes)
    for t, nd in enumerate(td.nodes):
        if nd.kind == LEAF:
            out[t] = atomless
        elif nd.kind == INTRODUCE:
            out[t] = [r for r in rules_by_atom.get(nd.atom, ()) if not (r.atom_mask & ~nd.bag_mask)]
    return out


def run_dp(alg: TableAlgorithm, program: Program, td: NiceTreeDecomposition) -> TabledTreeDecomposition:
    """Run the table algorithm over all nodes in post-order."""
    order = td.post_order()
    rules = entering_rules(program, td)
    tables: list[NodeTable | None] = [None] * len(td.nodes)
    for t in order:
        nd = td.nodes[t]
        children = [tables[c] for c in nd.children]
        assert all(c is not None for c in children)
        produced = alg.node_table(nd.kind, nd.atom, rules[t], children)  # type: ignore[arg-type]
        tables[t] = NodeTable(list(produced), [list(seqs) for seqs in produced.values()])
    return TabledTreeDecomposition(td, program, alg, tables, rules, order)


@dataclass
class PurgedTables:
    """Per-node surviving rows (in table order) with re-indexed origins."""

    ttd: TabledTreeDecomposition
    rows: list[list]  # per node
    origins: list[list[list[tuple[int, ...]]]]  # per node, per row

    def max_rows(self) -> int:
        return max((len(r) for r in self.rows), default=0)


def has_solution(ttd: TabledTreeDecomposition) -> bool:
    """Whether the algorithm's solution row reached the root table, i.e. the
    program has an answer set.  The root bag is empty, so the root table has
    at most two rows."""
    return ttd.alg.solution_row in ttd.table(ttd.td.root).rows


def purge(ttd: TabledTreeDecomposition) -> PurgedTables:
    """Keep only rows reachable from the root solution row via origin links.

    An inconsistent instance yields empty tables everywhere."""
    td = ttd.td
    root = td.root
    marked: list[set[int]] = [set() for _ in td.nodes]
    if has_solution(ttd):
        marked[root].add(ttd.table(root).rows.index(ttd.alg.solution_row))

    for t in reversed(ttd.post_order):
        if not marked[t]:
            continue
        nd = td.nodes[t]
        tab = ttd.table(t)
        for u in marked[t]:
            for seq in tab.origins[u]:
                for i, j in enumerate(seq):
                    marked[nd.children[i]].add(j)

    rows: list[list] = [[] for _ in td.nodes]
    new_index: list[dict[int, int]] = [{} for _ in td.nodes]
    origins_out: list[list[list[tuple[int, ...]]]] = [[] for _ in td.nodes]
    for t in ttd.post_order:
        tab = ttd.table(t)
        keep = sorted(marked[t])
        new_index[t] = {j: i for i, j in enumerate(keep)}
        rows[t] = [tab.rows[j] for j in keep]
        nd = td.nodes[t]
        remapped = []
        for j in keep:
            seqs = [
                tuple(new_index[nd.children[i]][x] for i, x in enumerate(seq))
                for seq in tab.origins[j]
            ]
            remapped.append(sorted(seqs))  # sorted also trims the list to its size
        origins_out[t] = remapped
    return PurgedTables(ttd, rows, origins_out)


def format_table(ttd: TabledTreeDecomposition, t: int) -> str:
    """Human-readable dump of one node table (trace output)."""
    nd = ttd.td.nodes[t]
    names = ",".join(sorted(ttd.program.names(nd.bag_mask)))
    head = f"node {t} kind={nd.kind} bag={{{names}}} rows={len(ttd.table(t))}"
    lines = [head]
    tab = ttd.table(t)
    for i, row in enumerate(tab.rows):
        lines.append(f"  {i}: {ttd.alg.format_row(row, ttd.program)} origins={tab.origins[i]}")
    return "\n".join(lines)

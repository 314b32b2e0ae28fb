"""Post-order dynamic-programming driver over a nice tree decomposition.

Each table algorithm turns one node's child tables into the node's own table
and reports, per emitted row, the child-row index sequences it came from.
The driver records tables and those origin links; a later top-down pass
(purge) keeps only rows reachable from the solution row at the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from .decomposition import INTRODUCE, LEAF, REMOVE, NiceTreeDecomposition
from .program import Program, Rule


class TableAlgorithm(Protocol):
    name: str
    solution_row: Any

    def node_table(
        self,
        kind: str,
        bag_mask: int,
        atom: int | None,
        bag_rules: Sequence[Rule],
        child_tables: Sequence["NodeTable"],
    ) -> dict[Any, set[tuple[int, ...]]]: ...

    def interp(self, row: Any) -> int: ...

    def sort_key(self, row: Any) -> Any: ...

    def format_row(self, row: Any, program: Program) -> str: ...


class NodeTable:
    """Rows in canonical order plus per-row origin sequences (child indices)."""

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
    bag_rules: list[list[Rule]]
    post_order: list[int] = field(default_factory=list)

    def table(self, t: int) -> NodeTable:
        tab = self.tables[t]
        if tab is None:
            raise KeyError(f"node {t} has no table")
        return tab


def bag_programs(program: Program, td: NiceTreeDecomposition) -> list[list[Rule]]:
    """Per-node rule lists: a rule belongs to a node iff its atoms fit the bag.

    Computed incrementally bottom-up: rules enter at introduce nodes of one of
    their atoms and leave when an atom is removed."""
    rules_by_atom: dict[int, list[Rule]] = {}
    atomless = []
    for r in program.rules:
        if r.atom_mask == 0:
            atomless.append(r)  # fits every bag
            continue
        for a in sorted(set(r.head) | set(r.pos_body) | set(r.neg_body)):
            rules_by_atom.setdefault(a, []).append(r)

    out: list[list[Rule]] = [[] for _ in td.nodes]
    for t in td.post_order():
        nd = td.nodes[t]
        if nd.kind == LEAF:
            out[t] = list(atomless)
        elif nd.kind == INTRODUCE:
            # a rule enters exactly when its last missing atom is introduced
            fresh = [r for r in rules_by_atom.get(nd.atom, ()) if not (r.atom_mask & ~nd.bag_mask)]
            out[t] = out[nd.children[0]] + fresh
        elif nd.kind == REMOVE:
            bit = 1 << nd.atom
            out[t] = [r for r in out[nd.children[0]] if not (r.atom_mask & bit)]
        else:  # join: same bag as both children
            out[t] = out[nd.children[0]]
    return out


def run_dp(alg: TableAlgorithm, program: Program, td: NiceTreeDecomposition) -> TabledTreeDecomposition:
    """Run the table algorithm over all nodes in post-order."""
    order = td.post_order()
    rules = bag_programs(program, td)
    tables: list[NodeTable | None] = [None] * len(td.nodes)
    for t in order:
        nd = td.nodes[t]
        children = [tables[c] for c in nd.children]
        assert all(c is not None for c in children)
        produced = alg.node_table(nd.kind, nd.bag_mask, nd.atom, rules[t], children)  # type: ignore[arg-type]
        rows = sorted(produced, key=alg.sort_key)
        origins = [sorted(produced[row]) for row in rows]
        tables[t] = NodeTable(rows, origins)
    return TabledTreeDecomposition(td, program, alg, tables, rules, order)


@dataclass
class PurgedTables:
    """Per-node surviving rows (in table order) with re-indexed origins."""

    ttd: TabledTreeDecomposition
    rows: list[list]  # per node
    origins: list[list[list[tuple[int, ...]]]]  # per node, per row
    kept: list[list[int]]  # per node: original row indices

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
    kept: list[list[int]] = [[] for _ in td.nodes]
    new_index: list[dict[int, int]] = [{} for _ in td.nodes]
    origins_out: list[list[list[tuple[int, ...]]]] = [[] for _ in td.nodes]
    for t in ttd.post_order:
        tab = ttd.table(t)
        keep = sorted(marked[t])
        kept[t] = keep
        new_index[t] = {j: i for i, j in enumerate(keep)}
        rows[t] = [tab.rows[j] for j in keep]
        nd = td.nodes[t]
        remapped = []
        for j in keep:
            seqs = [
                tuple(new_index[nd.children[i]][x] for i, x in enumerate(seq))
                for seq in tab.origins[j]
            ]
            remapped.append(sorted(seqs))
        origins_out[t] = remapped
    return PurgedTables(ttd, rows, origins_out, kept)


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

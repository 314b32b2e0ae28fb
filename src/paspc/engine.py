"""Post-order dynamic-programming driver over a nice tree decomposition.

Rows index atoms by bag slot, not by atom id: every atom gets a slot in
0..width (``decomposition.assign_slots``), distinct among the atoms of each
bag, so a row's interpretation is an int of at most width+1 bits however
many atoms the program has, and ``prim`` keeps a row's counter-witness set
as a bitset over the slot subsets, an int of 2^(width+1) bits, up to width
9 (see ``prim``).  The driver asks the algorithm for the form it runs at
the decomposition's width (``for_width``).  The rules reach the table
algorithms translated once per solve into ``BagRule``s, whose masks are
slot masks.  ``TabledTreeDecomposition.decode`` turns a node's slot mask
back into an atom mask, for traces and tests.

The engine owns the table contract.  ``node_table`` builds each node's
table: a leaf holds the algorithm's ``solution_row`` (the empty row) if the
atomless rules hold, and an introduce, remove or join node holds the rows
that the algorithm's generator of that kind yields as (row, origin) pairs,
an origin being the child-row indices the row came from.  An algorithm sees
only the rules entering at the node, those whose atoms first all fit a bag
there: the rules of an introduced atom that fit its bag, and the atomless
rules at a leaf.  Every other rule that fits the bag was checked below, on
the same interpretation of its atoms.  Tables keep their rows in the order
the algorithm first emitted them; a later top-down pass (purge) marks the
rows reachable from the solution row at the root and keeps their table
indices, so the projection pass reads the kept rows' origins in place.

A row's origins are a list in emission order, built by ``node_table`` alone.
No origin repeats: a one-child node visits each child row once and the rows
one child row yields are distinct, and a join visits each pair of matching
child rows once, left row outer and right row inner.  So each list comes out
strictly ascending, and ``run_dp`` stores the lists as they are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Iterator, NamedTuple, Protocol, Sequence

from .decomposition import INTRODUCE, JOIN, LEAF, REMOVE, NiceTreeDecomposition, assign_slots
from .program import Program, Rule, is_model


class BagRule(NamedTuple):
    """A rule as the table algorithms see it: its atom sets as slot masks.
    The head and positive body also stay atom ids, for the atom orderings
    of ``phc``, and ``head_bits`` holds each head atom's slot bit."""

    head_mask: int
    pos_mask: int
    neg_mask: int
    head: tuple[int, ...]
    head_bits: tuple[int, ...]
    pos_body: tuple[int, ...]
    source: Rule


class TableAlgorithm(Protocol):
    """One table form.  ``solution_row`` is the empty row: both a leaf's one
    row and, at the root, the witness that the program has an answer set.
    ``introduce``, ``remove`` and ``join`` yield the (row, origin) pairs of
    one node of their kind, each child row (or matching pair of child rows)
    visited in table order; ``node_table`` turns them into the table."""

    name: str
    solution_row: Any

    def introduce(
        self, atom: int, slot: int, rules: Sequence[BagRule], child_rows: Sequence[Any]
    ) -> Iterator[tuple[Any, tuple[int, ...]]]: ...

    def remove(self, atom: int, slot: int, child_rows: Sequence[Any]) -> Iterator[tuple[Any, tuple[int, ...]]]: ...

    def join(self, left_rows: Sequence[Any], right_rows: Sequence[Any]) -> Iterator[tuple[Any, tuple[int, ...]]]: ...

    def interp(self, row: Any) -> int: ...

    def for_width(self, width: int) -> "TableAlgorithm":
        """The algorithm to run on a nice decomposition of this width."""
        ...


class NodeTable:
    """Rows in emission order plus per-row origin sequences (child indices),
    each row's strictly ascending."""

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
    rules: list[Sequence[BagRule]]  # per node: the rules entering there
    slots: list[int]  # per atom: its bag slot
    post_order: list[int] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict)  # wall seconds of run_dp per node kind
    row_counts: dict[str, int] = field(default_factory=dict)  # rows of run_dp per node kind
    max_table: int = 0  # rows of the largest table

    def table(self, t: int) -> NodeTable:
        tab = self.tables[t]
        if tab is None:
            raise KeyError(f"node {t} has no table")
        return tab

    def decode(self, t: int, mask: int) -> int:
        """The atom mask of a slot mask of node t's rows."""
        slots = self.slots
        out = 0
        for a in self.td.nodes[t].bag:
            if mask >> slots[a] & 1:
                out |= 1 << a
        return out


def bag_rule(r: Rule, slots: Sequence[int]) -> BagRule:
    """The rule with its atom sets as slot masks."""
    head_bits = tuple(1 << slots[a] for a in r.head)
    pos = 0
    for a in r.pos_body:
        pos |= 1 << slots[a]
    neg = 0
    for a in r.neg_body:
        neg |= 1 << slots[a]
    return BagRule(sum(head_bits), pos, neg, r.head, head_bits, r.pos_body, r)


def entering_rules(program: Program, td: NiceTreeDecomposition, slots: Sequence[int]) -> list[Sequence[BagRule]]:
    """Per node, the rules that fit its bag but not its child's: at a leaf the
    atomless rules, at an introduce node the rules of its atom that fit the
    bag, and none at remove and join nodes.  Each rule is translated to slot
    masks once, however many nodes it enters at."""
    rules_by_atom: dict[int, list[tuple[BagRule, tuple[int, ...]]]] = {}
    atomless = []
    for r in program.rules:
        br = bag_rule(r, slots)
        atoms = r.head + r.pos_body + r.neg_body
        if not atoms:
            atomless.append(br)
        for a in set(atoms):
            rules_by_atom.setdefault(a, []).append((br, atoms))

    out: list[Sequence[BagRule]] = [()] * len(td.nodes)
    for t, nd in enumerate(td.nodes):
        if nd.kind == LEAF:
            out[t] = atomless
        elif nd.kind == INTRODUCE:
            out[t] = [br for br, atoms in rules_by_atom.get(nd.atom, ()) if nd.bag.issuperset(atoms)]  # type: ignore[arg-type]
    return out


def node_table(
    alg: TableAlgorithm,
    kind: str,
    atom: int | None,
    slot: int | None,
    rules: Sequence[BagRule],
    child_tables: Sequence[NodeTable],
) -> dict[Any, list[tuple[int, ...]]]:
    """One node's table: each row the algorithm emits, in first-emission
    order, with the list of its origins in emission order."""
    if kind == LEAF:
        return {alg.solution_row: [()]} if is_model(0, rules) else {}
    if kind == INTRODUCE:
        pairs = alg.introduce(atom, slot, rules, child_tables[0].rows)  # type: ignore[arg-type]
    elif kind == REMOVE:
        pairs = alg.remove(atom, slot, child_tables[0].rows)  # type: ignore[arg-type]
    elif kind == JOIN:
        pairs = alg.join(child_tables[0].rows, child_tables[1].rows)
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    # the first origin creates the row's list and later ones are appended:
    # no setdefault(row, []), which allocates a list per call
    out: dict[Any, list[tuple[int, ...]]] = {}
    for row, origin in pairs:
        seqs = out.get(row)
        if seqs is None:
            out[row] = [origin]
        else:
            seqs.append(origin)
    return out


def run_dp(alg: TableAlgorithm, program: Program, td: NiceTreeDecomposition) -> TabledTreeDecomposition:
    """Run the table algorithm, as chosen for the decomposition's width,
    over all nodes in post-order."""
    alg = alg.for_width(td.width)
    order = td.post_order()
    slots = assign_slots(td, program.n_atoms)
    rules = entering_rules(program, td, slots)
    tables: list[NodeTable | None] = [None] * len(td.nodes)
    seconds = dict.fromkeys((LEAF, INTRODUCE, REMOVE, JOIN), 0.0)
    row_counts = dict.fromkeys(seconds, 0)
    max_table = 0
    clock = time.perf_counter
    start = clock()
    # post-order: every child's table exists before its parent's
    for t in order:
        nd = td.nodes[t]
        children = [tables[c] for c in nd.children]
        slot = None if nd.atom is None else slots[nd.atom]
        produced = node_table(alg, nd.kind, nd.atom, slot, rules[t], children)  # type: ignore[arg-type]
        tables[t] = NodeTable(list(produced), list(produced.values()))
        row_counts[nd.kind] += len(produced)
        max_table = max(max_table, len(produced))
        # one clock read per node: its end is the next node's start
        end = clock()
        seconds[nd.kind] += end - start
        start = end
    return TabledTreeDecomposition(td, program, alg, tables, rules, slots, order, seconds, row_counts, max_table)


@dataclass
class PurgedTables:
    """Per-node surviving rows: their table indices, ascending, and the rows
    themselves.  A kept row's origins point at kept child rows only."""

    ttd: TabledTreeDecomposition
    kept: list[list[int]]  # per node: table indices of the kept rows
    rows: list[list]  # per node: the kept rows, in table order

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
    # per node, one mark byte per table row, set by the kept parent rows
    marked = [bytearray(len(ttd.table(t))) for t in range(len(td.nodes))]
    if has_solution(ttd):
        marked[root][ttd.table(root).rows.index(ttd.alg.solution_row)] = 1

    kept: list[list[int]] = [[] for _ in td.nodes]
    rows: list[list] = [[] for _ in td.nodes]
    for t in reversed(ttd.post_order):
        mark = marked[t]
        keep = list(compress(range(len(mark)), mark))
        if not keep:
            continue
        tab = ttd.table(t)
        kept[t] = keep
        # a table whose rows are all kept lends its row list: no copy
        rows[t] = tab.rows if len(keep) == len(mark) else list(compress(tab.rows, mark))
        children = td.nodes[t].children
        if len(children) == 1:
            child_mark = marked[children[0]]
            for seqs in compress(tab.origins, mark):
                for (j,) in seqs:
                    child_mark[j] = 1
        elif children:
            left, right = (marked[c] for c in children)
            for seqs in compress(tab.origins, mark):
                for i, j in seqs:
                    left[i] = 1
                    right[j] = 1
    return PurgedTables(ttd, kept, rows)


"""The post-order dynamic program over a nice tree decomposition, whose
node ids are the evaluation order (``NiceTreeDecomposition.add``): ``run_dp``
visits them ascending and ``purge`` descending, without walking the tree.

Rows index atoms by bag slot, not by atom id: every atom gets a slot in
0..width (``decomposition.assign_slots``), distinct among the atoms of each
bag, so a row's interpretation is an int of at most width+1 bits however
many atoms the program has, and ``prim`` keeps a row's counter-witness set
as a bitset over the slot subsets, an int of 2^(width+1) bits, up to width
9 (see ``prim``).  ``run_dp`` runs the form it is given, which
``pipeline.pick_algorithm`` chose for the decomposition's width.  The rules
reach the table algorithm translated once per solve by its own ``rule``,
into forms whose masks are slot masks.  ``TabledTreeDecomposition.decode``
turns a node's slot mask back into an atom mask, for traces and tests.

The engine owns the table contract.  ``node_table`` builds each node's
table: a leaf holds the algorithm's ``solution_row`` (the empty row) if the
atomless rules hold, and an introduce, remove or join node holds the rows
that the algorithm's generator of that kind yields as (row, origin) pairs,
an origin being the child row, or pair of child rows, the row came from.
An algorithm sees only the rules entering at the node, those whose atoms
first all fit a bag there: the rules of an introduced atom that fit its
bag, and the atomless rules at a leaf.  Every other rule that fits the bag
was checked below, on the same interpretation of its atoms.  ``run_dp``
keeps the entering rules only while it runs; ``entering_rules`` rebuilds
them.  Tables keep their rows in first-appearance order over the solve
(see the row pool below); a later top-down pass (purge) keeps the table
indices of the rows reachable from the solution row at the root, and
nothing else, so the projection pass reads the kept rows and their origins
in place.

A row's origins are its child rows, each encoded as one int: the child
row's index under one child, and ``i * len(right_rows) + j`` for the pair of
left row i and right row j at a join.  No origin repeats: a one-child node
visits each child row once and the rows one child row yields are distinct,
and a join visits each pair of matching child rows once, left row outer and
right row inner.  So each row's origins come out strictly ascending, and
``node_table`` stores them as they come: every row's first origin in one
``array('q')`` per node, and the rarer further ones in a map from the row's
index to a tuple of them.  A node whose rows all have one origin builds no
map but holds one empty map that all such nodes share.
``NodeTable.origins`` decodes the whole store back into lists of
child-index tuples on each access, for traces and tests.

Rows are immutable and slot-encoded, so the same few rows recur at node
after node.  ``run_dp`` keeps one object per distinct row over all tables of
a solve: a row pool, local to the call, gives each row a serial when it
first appears, re-points each new table's rows at the pooled ones, and its
size is ``distinct_rows``.  Tables of one solve therefore share row objects,
and no two solves share any but the algorithm's constant ``solution_row``.
``node_table`` returns its rows in the order the algorithm first emitted
them; ``run_dp`` then stores every table's rows in ascending serial order,
its origins moved with them, which is the order in which the rows first
appear over the solve, nodes by ascending id.  A table whose rows are all
new is in that order as emitted.  An origin indexes the child's stored
rows, so origins stay strictly ascending.

A node's table is a function of its kind, its context and its child row
lists.  The algorithm's ``context`` states everything an introduce or
remove node reads of its atom, its entering rules and its bag, given the
solve's slots; a leaf's context is whether the atomless rules hold, and a
join's is None.  Both table forms state it in slots and slot masks only,
never in atom ids, so nodes whose atoms differ only in name share a
context: ``prim`` its atom's slot and its entering rules' forms, ``phc``
also the bag slots that its orderings compare (see ``phc``).  The generators
read only the context, the child rows and an algorithm object that a solve
never changes, and ``node_table`` builds each table from exactly that
context, so the context is also the memo key.  Which rows a table holds
depends on its child row sets, not on their order, and in first-appearance
order equal row sets of one solve are one row list, so ``run_dp`` names
each distinct row list by a small int, looked up by the tuple of its rows'
serials.  A memo, local to the call, maps (kind, context, child row-list ids)
to the table built for them, and a node whose key equals an earlier node's
takes that table object instead of building its own: nodes of equal inputs
share one read-only ``NodeTable``.  ``built_tables`` counts the tables
built; every other count is per node, shared table or not.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Protocol

from .decomposition import INTRODUCE, JOIN, LEAF, REMOVE, NiceTreeDecomposition, assign_slots
from .program import Program, Rule, is_model


class TableAlgorithm(Protocol):
    """One table form.  ``solution_row`` is the empty row: both a leaf's one
    row and, at the root, the witness that the program has an answer set.
    ``introduce``, ``remove`` and ``join`` yield the (row, origin) pairs of
    one node of their kind, each child row (or matching pair of child rows)
    visited in table order; ``node_table`` turns them into the table.  An
    origin is an int: the child row's index, or ``i * len(right_rows) + j``
    for left row i and right row j at a join.

    A solve translates each program rule once, by ``rule``, into the
    algorithm's own form of it; a node's entering rules reach ``context``
    in that form.  A generator reads only its context, its child rows and
    the algorithm object, which a solve never changes; so two nodes of one
    kind with equal contexts and equal child row lists get equal tables,
    and ``run_dp`` builds only the first."""

    name: str
    solution_row: Any

    def rule(self, r: Rule, slots: Sequence[int]) -> Hashable:
        """The rule in this algorithm's form, given each atom's slot: a
        tuple whose positions 0 to 2 are its (head, positive body, negative
        body) slot masks, where ``is_model`` reads them."""
        ...

    def context(self, atom: int, rules: Sequence[Any], bag: Iterable[int], slots: Sequence[int]) -> Hashable:
        """What the generator of an introduce or remove node reads of the
        node's atom, its entering rules' forms and its bag, as one hashable
        value.  ``slots`` gives each atom's slot; a context that names slots
        rather than atom ids lets nodes whose atoms differ only in name share."""
        ...

    def introduce(self, ctx: Any, child_rows: Sequence[Any]) -> Iterator[tuple[Any, int]]: ...

    def remove(self, ctx: Any, child_rows: Sequence[Any]) -> Iterator[tuple[Any, int]]: ...

    def join(self, left_rows: Sequence[Any], right_rows: Sequence[Any]) -> Iterator[tuple[Any, int]]: ...

    def interp(self, row: Any) -> int: ...


# the side store of every node whose rows all have one origin, read-only
NO_MORE: Mapping[int, tuple[int, ...]] = MappingProxyType({})


class NodeTable:
    """Rows in first-appearance order over the solve and their int-encoded
    origins (see the module docstring): ``first[j]`` is row j's first
    origin, and ``more[j]``, where
    present, the tuple of its further ones, all strictly ascending.
    ``arity`` is the node's number of children, and ``stride`` the right
    child's row count at a join (0 elsewhere): origin o of a join row decodes to
    ``divmod(o, stride)``, of a one-child row to ``(o,)``, and of a leaf's
    row, stored as 0, to ``()``."""

    __slots__ = ("rows", "first", "more", "arity", "stride")

    def __init__(
        self, rows: list, first: Sequence[int], more: Mapping[int, tuple[int, ...]], arity: int, stride: int
    ):
        self.rows = rows
        self.first = first
        self.more = more
        self.arity = arity
        self.stride = stride

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def origins(self) -> list[list[tuple[int, ...]]]:
        """Per row, its origins as child-index tuples: ``[(i,), ...]`` under
        one child, ``[(i, j), ...]`` at a join, ``[()]`` at a leaf.  Each
        access decodes the whole table, so read it once per table."""
        first, more = self.first, self.more
        if self.arity == 0:
            return [[()] for _ in first]
        if self.arity == 1:
            return [[(o,) for o in (f, *more.get(j, ()))] for j, f in enumerate(first)]
        return [[divmod(o, self.stride) for o in (f, *more.get(j, ()))] for j, f in enumerate(first)]


@dataclass
class TabledTreeDecomposition:
    """Nice decomposition attributed with per-node tables of one algorithm."""

    td: NiceTreeDecomposition
    program: Program
    alg: TableAlgorithm
    tables: list[NodeTable]  # per node; nodes of equal inputs share one read-only table
    slots: list[int]  # per atom: its bag slot
    post_order: range  # the node ids: children before parents
    seconds: dict[str, float] = field(default_factory=dict)  # wall seconds of run_dp per node kind
    row_counts: dict[str, int] = field(default_factory=dict)  # rows of run_dp per node kind
    max_table: int = 0  # rows of the largest table
    origin_links: int = 0  # origins held by all tables
    distinct_rows: int = 0  # distinct rows over all tables, one object each
    built_tables: int = 0  # tables built: nodes less those that took an equal-input node's table

    def table(self, t: int) -> NodeTable:
        return self.tables[t]

    def decode(self, t: int, mask: int) -> int:
        """The atom mask of a slot mask of node t's rows."""
        slots = self.slots
        out = 0
        for a in self.td.nodes[t].bag:
            if mask >> slots[a] & 1:
                out |= 1 << a
        return out


def entering_rules(program: Program, td: NiceTreeDecomposition, forms: Sequence[Any]) -> list[Sequence[Any]]:
    """Per node, the rules that fit its bag but not its child's, as their
    ``forms`` (``forms[i]`` stands for ``program.rules[i]``): at a leaf the
    atomless rules (one list that all leaves share), at an introduce node
    the rules of its atom that fit the bag, in program order, and none at
    remove and join nodes.  Each rule finds its own entering nodes: the
    introduce nodes of its atoms whose bags hold all of its atoms."""
    out: list[Sequence[Any]] = [()] * len(td.nodes)
    atomless: list[Any] = []
    # per atom, (entering list, bag) of each of its introduce nodes
    intro: dict[int, list[tuple[list[Any], frozenset[int]]]] = {}
    for t, nd in enumerate(td.nodes):
        if nd.kind == INTRODUCE:
            out[t] = entering = []
            intro.setdefault(nd.atom, []).append((entering, nd.bag))  # type: ignore[arg-type]
        elif nd.kind == LEAF:
            out[t] = atomless
    for r, form in zip(program.rules, forms):
        atoms = {*r.head, *r.pos_body, *r.neg_body}
        if not atoms:
            atomless.append(form)
        for a in atoms:
            for entering, bag in intro.get(a, ()):
                if atoms <= bag:
                    entering.append(form)
    return out


def node_table(alg: TableAlgorithm, kind: str, ctx: Any, child_tables: Sequence[NodeTable]) -> NodeTable:
    """One node's table, built from its context (see ``run_dp``): each row
    the algorithm emits, in first-emission order, with its origins in
    emission order."""
    if kind == LEAF:
        rows = [alg.solution_row] if ctx else []
        return NodeTable(rows, array("q", [0] * len(rows)), NO_MORE, 0, 0)
    arity, stride = 1, 0
    if kind == INTRODUCE:
        pairs = alg.introduce(ctx, child_tables[0].rows)
    elif kind == REMOVE:
        pairs = alg.remove(ctx, child_tables[0].rows)
    elif kind == JOIN:
        pairs = alg.join(child_tables[0].rows, child_tables[1].rows)
        arity, stride = 2, len(child_tables[1].rows)
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    index: dict[Any, int] = {}  # row -> its table index
    place = index.setdefault  # one hash per pair: a new row takes the next index
    first = array("q")
    add_first = first.append
    more = NO_MORE  # a dict from the first row of several origins on
    n = 0
    for row, origin in pairs:
        j = place(row, n)
        if j == n:
            add_first(origin)
            n += 1
        elif more is NO_MORE:
            more = {j: (origin,)}
        else:
            further = more.get(j)
            more[j] = (origin,) if further is None else further + (origin,)
    return NodeTable(list(index), first, more, arity, stride)


def run_dp(alg: TableAlgorithm, program: Program, td: NiceTreeDecomposition) -> TabledTreeDecomposition:
    """Run the table algorithm over all nodes by ascending id, each built
    table's rows put in first-appearance order.  A node whose kind, context
    and child row lists equal an earlier node's takes that node's table
    (see the module docstring)."""
    context = alg.context
    nodes = td.nodes
    order = td.post_order()
    slots = assign_slots(td, program.n_atoms)
    # for this solve only, one object per distinct rule form: rules that
    # differ only in their atoms' names translate to equal forms
    forms: dict[Hashable, Hashable] = {}
    intern = forms.setdefault
    rules = entering_rules(program, td, [intern(f, f) for f in (alg.rule(r, slots) for r in program.rules)])
    # every node's table is set below, so a finished solve holds no None
    tables: list[NodeTable] = [None] * len(nodes)  # type: ignore[list-item]
    lists = [0] * len(nodes)  # per node: the id of its table's row list
    seconds = dict.fromkeys((LEAF, INTRODUCE, REMOVE, JOIN), 0.0)
    row_counts = dict.fromkeys(seconds, 0)
    max_table = origin_links = 0
    # for this solve only: per distinct row over all tables its serial, and
    # per serial the row's one object; a small int per distinct row list
    # (as its rows' serials); and per node key its table, its row list's id
    # and its origin count
    pool: dict[Any, int] = {}
    pooled: dict[int, Any] = {}
    serial = 0  # above every serial given so far
    list_ids: dict[tuple[int, ...], int] = {}
    memo: dict[tuple, tuple[NodeTable, int, int]] = {}
    clock = time.perf_counter
    start = clock()
    # ids ascending: every child's table exists before its parent's
    for t in order:
        nd = nodes[t]
        kind, children = nd.kind, nd.children
        if kind == JOIN:
            ctx = None
            key = kind, ctx, lists[children[0]], lists[children[1]]
        elif children:
            ctx = context(nd.atom, rules[t], nd.bag, slots)
            key = kind, ctx, lists[children[0]]
        else:
            ctx = is_model(0, rules[t])
            key = kind, ctx
        hit = memo.get(key)
        if hit is None:
            tab = node_table(alg, kind, ctx, [tables[c] for c in children])
            # a new row's serial is ``base`` plus its index: serials grow, with
            # gaps, in first-appearance order, one pool lookup per row gives
            # it, and a table of new rows is in serial order already
            rows = tab.rows
            base, serial = serial, serial + len(rows)
            serials = list(map(pool.setdefault, rows, range(base, serial)))
            ordered = sorted(serials)
            if ordered != serials:
                perm = sorted(range(len(rows)), key=serials.__getitem__)
                rows = list(map(rows.__getitem__, perm))
                tab.first = array("q", map(tab.first.__getitem__, perm))
                if tab.more:
                    to = {j: k for k, j in enumerate(perm)}
                    tab.more = {to[j]: further for j, further in tab.more.items()}
            tab.rows = list(map(pooled.setdefault, ordered, rows))
            # one origin per row, and a row's further ones in the side store
            links = len(tab.rows)
            if tab.more:
                links += sum(map(len, tab.more.values()))
            hit = memo[key] = tab, list_ids.setdefault(tuple(ordered), len(list_ids)), links
        tab, lists[t], links = hit
        tables[t] = tab
        n = len(tab.rows)
        row_counts[kind] += n
        max_table = max(max_table, n)
        origin_links += links
        # one clock read per node: its end is the next node's start
        end = clock()
        seconds[kind] += end - start
        start = end
    return TabledTreeDecomposition(
        td, program, alg, tables, slots, order, seconds, row_counts, max_table, origin_links, len(pool), len(memo)
    )


@dataclass
class PurgedTables:
    """Per node, the table indices of its surviving rows, ascending: the
    root's solution row, and below it the origins of the parent's kept rows.
    A kept row's origins point at kept child rows only.  Equal kept lists of
    one solve are one read-only tuple."""

    ttd: TabledTreeDecomposition
    kept: list[tuple[int, ...]]  # per node: table indices of the kept rows

    @cached_property
    def rows(self) -> list[list]:
        """Per node, the kept rows in table order: a view built on first
        access, for traces and tests."""
        return [[self.ttd.table(t).rows[j] for j in kept] for t, kept in enumerate(self.kept)]


def has_solution(ttd: TabledTreeDecomposition) -> bool:
    """Whether the algorithm's solution row reached the root table, i.e. the
    program has an answer set.  The root bag is empty, so the root table has
    at most two rows."""
    return ttd.alg.solution_row in ttd.table(ttd.td.root).rows


def purge(ttd: TabledTreeDecomposition) -> PurgedTables:
    """Keep only rows reachable from the root solution row via origin links,
    top-down: the root keeps the solution row if ``has_solution`` holds, and
    a node's children keep the distinct origins of its kept rows, split by
    ``divmod(o, stride)`` at a join.  A node has one parent, so a dict local
    to the call works out the children's lists once per distinct (table,
    kept list).  A pool local to the call keeps one exact-size tuple per
    distinct list, so nodes of equal kept lists share it (the projection
    pass keys its plans by that object).  An inconsistent instance yields
    empty tables everywhere."""
    td = ttd.td
    nodes, tables = td.nodes, ttd.tables
    kept: list[tuple[int, ...]] = [()] * len(nodes)
    pool: dict[tuple[int, ...], tuple[int, ...]] = {}
    if has_solution(ttd):
        root = td.root
        keep = (tables[root].rows.index(ttd.alg.solution_row),)
        kept[root] = pool[keep] = keep
    # per (table, kept list): the children's kept lists
    below: dict[tuple[NodeTable, tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
    for t in reversed(ttd.post_order):
        keep = kept[t]
        children = nodes[t].children
        if not keep or not children:
            continue
        tab = tables[t]
        lists = below.get((tab, keep))
        if lists is None:
            # the kept rows' first origins, then their further ones
            origins = set(map(tab.first.__getitem__, keep))
            if tab.more:
                origins.update(*filter(None, map(tab.more.get, keep)))
            if len(children) == 1:
                split = [origins]
            else:
                stride = tab.stride
                split = [set(map(stride.__rfloordiv__, origins)), set(map(stride.__rmod__, origins))]
            lists = below[tab, keep] = tuple(pool.setdefault(c, c) for c in map(tuple, map(sorted, split)))
        for c, child_keep in zip(children, lists):
            kept[c] = child_keep
    return PurgedTables(ttd, kept)

"""End-to-end solving: classify, decompose, run both DP passes, count; each pass's counts go to ``RunStats``."""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass, field

from . import engine, proj
from .decomposition import TreeDecomposition, decompose, make_nice, primal_graph, validate_td
from .phc import PhcAlgorithm
from .prim import DENSE_MAX_WIDTH, PrimAlgorithm, SparsePrimAlgorithm
from .program import Program, ProgramClass, ProgramKind, classify

ALGORITHMS = ("auto", "phc", "prim")


class AlgorithmMismatchError(ValueError):
    """Requested table algorithm is unsound for the program's class."""


class InvalidDecompositionError(ValueError):
    """A supplied decomposition violates the conditions ``validate_td``
    checks; the message names every violation."""


@dataclass
class RunStats:
    """What one solve cost, each figure counted by the pass that does the work."""

    width: int = 0
    nodes: int = 0
    max_table: int = 0
    max_purged: int = 0
    algorithm: str = ""
    rows: dict[str, int] = field(default_factory=dict)  # rows before purging, per node kind
    origin_links: int = 0  # origins the tables hold, one or more per row
    distinct_rows: int = 0  # distinct rows over all tables: the row objects a solve holds
    built_tables: int = 0  # node tables built: nodes less those that took an equal-input node's table
    proj_plans: int = 0  # projection plans built: nodes less those whose shape equals an earlier node's
    dp_seconds: dict[str, float] = field(default_factory=dict)  # seconds of the dp pass, per node kind
    timings: dict[str, float] = field(default_factory=dict)
    max_bucket: int = 0  # rows of the largest projection bucket
    proj_buckets: int = 0
    proj_entries: int = 0  # sum of 2^|b| - 1 over all projection buckets b

    def to_dict(self) -> dict:
        """``--stats`` less the CLI's parse time and peak RSS, seconds rounded to 1 us."""
        out = asdict(self)
        return {k: {n: round(x, 6) for n, x in v.items()} if isinstance(v, dict) else v for k, v in out.items()}


@dataclass
class SolveResult:
    count: int
    stats: RunStats
    program: Program
    ttd: engine.TabledTreeDecomposition
    purged: engine.PurgedTables
    proj_tables: proj.ProjTables
    td: TreeDecomposition


def pick_algorithm(program_class: ProgramClass | Program, requested: str = "auto", width: int | None = None):
    """The table form a solve runs, chosen here and nowhere else: ``phc``
    (SCC-local orderings, which stay empty on tight programs) unless the
    program is disjunctive, then ``prim``, whose counter sets are subset
    bitsets on decompositions of width up to ``DENSE_MAX_WIDTH`` and
    frozensets on wider ones.  ``width`` is the nice decomposition's.

    ``bench/cliffs.py`` calls ``pick_algorithm(program)`` before it has a
    decomposition, so a ``Program`` is classified first, and with no width
    ``prim`` takes the frozenset form, which runs any width and builds the
    same rows."""
    if requested not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {requested!r}")
    if isinstance(program_class, Program):
        program_class = classify(program_class)
    kind = program_class.kind
    if requested == "phc" and kind is ProgramKind.DISJUNCTIVE:
        raise AlgorithmMismatchError(f"phc requires a head-cycle-free program, got {kind.value}")
    if requested == "prim" or (requested == "auto" and kind is ProgramKind.DISJUNCTIVE):
        return PrimAlgorithm(width) if width is not None and width <= DENSE_MAX_WIDTH else SparsePrimAlgorithm()
    return PhcAlgorithm(program_class.components)


def solve(
    program: Program,
    algorithm: str = "auto",
    heuristic: str = "min-fill",
    seed: int = 0,
    td: TreeDecomposition | None = None,
) -> SolveResult:
    """Count the projected answer sets of the program.

    A tree decomposition may be supplied, and is then validated against the
    program's primal graph before anything else runs; otherwise one is
    computed with the given elimination heuristic and seed.  The algorithm
    defaults to the strongest sound one for the program's class; its form
    is picked once ``make_nice`` has given the width, so an
    ``AlgorithmMismatchError`` comes after the decomposition.

    The cyclic garbage collector is paused for the duration of the call,
    process-wide, and its previous state is restored on return or error.
    """
    if td is not None:
        problems = validate_td(primal_graph(program), td)
        if problems:
            raise InvalidDecompositionError("; ".join(problems))
    # The cyclic garbage collector would scan every live table row many times
    # per solve and find nothing to free: a solve builds no reference cycles,
    # so reference counting reclaims all of it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        stats = RunStats()

        t0 = time.perf_counter()
        program_class = classify(program)
        stats.timings["classify"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        if td is None:
            td = decompose(primal_graph(program), heuristic, seed)
        stats.timings["decompose"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        nice = make_nice(td)
        stats.timings["make_nice"] = time.perf_counter() - t0
        stats.width = width = nice.width
        stats.nodes = len(nice.nodes)

        t0 = time.perf_counter()
        alg = pick_algorithm(program_class, algorithm, width)
        stats.algorithm = alg.name
        ttd = engine.run_dp(alg, program, nice)
        stats.timings["dp"] = time.perf_counter() - t0
        stats.dp_seconds = dict(ttd.seconds)
        stats.rows = dict(ttd.row_counts)
        stats.max_table = ttd.max_table
        stats.origin_links = ttd.origin_links
        stats.distinct_rows = ttd.distinct_rows
        stats.built_tables = ttd.built_tables

        t0 = time.perf_counter()
        purged = engine.purge(ttd)
        stats.timings["purge"] = time.perf_counter() - t0
        stats.max_purged = max(map(len, purged.kept), default=0)

        t0 = time.perf_counter()
        tables = proj.run_proj(purged, program.projection)
        stats.timings["proj"] = time.perf_counter() - t0
        stats.max_bucket, stats.proj_buckets, stats.proj_entries = tables.max_bucket, tables.buckets, tables.entries
        stats.proj_plans = tables.plans

        count = proj.final_count(tables, purged)
        return SolveResult(count, stats, program, ttd, purged, tables, td)
    finally:
        if gc_was_enabled:
            gc.enable()

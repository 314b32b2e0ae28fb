import gc
import tracemalloc

import pytest

import helpers
import reference
from paspc import engine, oracle, pipeline
from paspc.cli import format_table
from paspc.decomposition import TreeDecomposition, decompose, make_nice, primal_graph
from paspc.formats import parse_program
from paspc.phc import PhcAlgorithm
from paspc.pipeline import AlgorithmMismatchError, InvalidDecompositionError
from paspc.prim import DENSE_MAX_WIDTH, PrimAlgorithm, SparsePrimAlgorithm
from paspc.program import Program, classify


@pytest.fixture
def gc_state():
    """Restores the collector's state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPause:
    def test_paused_during_solve_and_reenabled(self, gc_state, monkeypatch):
        seen = []
        run_dp = engine.run_dp

        def recording_run_dp(*args):
            seen.append(gc.isenabled())
            return run_dp(*args)

        monkeypatch.setattr(engine, "run_dp", recording_run_dp)
        gc.enable()
        assert pipeline.solve(helpers.example1()).count == 3
        assert seen == [False]
        assert gc.isenabled()

    def test_reenabled_after_algorithm_mismatch(self, gc_state):
        gc.enable()
        with pytest.raises(AlgorithmMismatchError):
            pipeline.solve(parse_program("a | b.\na :- b.\nb :- a.\n"), algorithm="phc")
        assert gc.isenabled()

    def test_stays_disabled_when_caller_disabled_it(self, gc_state):
        gc.disable()
        assert pipeline.solve(helpers.example1()).count == 3
        assert not gc.isenabled()

    def test_solve_leaves_no_cyclic_garbage(self, gc_state):
        # what the pause relies on: reference counting frees a whole solve
        program = parse_program(helpers.WIDE_HCF_TEXT)
        gc.collect()
        gc.disable()
        result = pipeline.solve(program.with_projection(program.atom_mask))
        assert result.count == 1
        del result
        assert gc.collect() == 0


class TestAtomFreeConstraint:
    """An empty constraint ``:-.`` is violated by every interpretation.  It
    enters at the leaves, so a program without atoms, whose decomposition is
    one leaf, must count 0 as well."""

    @pytest.mark.parametrize("algorithm", ("auto", "phc", "prim"))
    @pytest.mark.parametrize("facts", ((), ("a",)), ids=("no_atoms", "one_atom"))
    def test_counts_zero(self, facts, algorithm):
        p = Program.from_specs([((), (), ())] + [((a,), (), ()) for a in facts])
        assert oracle.projected_count(p) == 0
        assert pipeline.solve(p, algorithm=algorithm).count == 0


class TestOverlappingRules:
    """Rules whose head or negative body meets their positive body
    (``helpers.overlap_fuzz``): ``a :- a.`` and its kin hold in every
    interpretation but put a self-loop in the dependency digraph."""

    def test_counts_match_both_oracles(self):
        for p in helpers.overlap_fuzz():
            answer_sets = oracle.enumerate_answer_sets(p)
            assert answer_sets == reference.enumerate_answer_sets(p)
            want = len({m & p.projection for m in answer_sets})
            assert pipeline.solve(p).count == want
            assert pipeline.solve(p, "prim").count == want


class TestSuppliedDecomposition:
    """``solve`` validates a supplied decomposition before anything else."""

    def test_uncovered_constraint_is_rejected(self):
        # the constraint's atoms a, b share no bag, so it would never enter
        # and the count would be 3
        p = parse_program("a :- not b.\nb :- not a.\n:- a, b.\nc :- a.\n")
        a, b, c = (p.atom_id(x) for x in "abc")
        td = TreeDecomposition([frozenset({a}), frozenset({b}), frozenset({a, c})], [(0, 1), (1, 2)])
        assert oracle.projected_count(p) == pipeline.solve(p).count == 2
        with pytest.raises(InvalidDecompositionError, match=r"edge \(0,1\) inside no bag"):
            pipeline.solve(p, td=td)

    def test_cyclic_bag_graph_is_rejected(self):
        # make_nice never finishes on a cycle of bags
        p = parse_program("a :- b.\n")
        bag = frozenset({p.atom_id("a"), p.atom_id("b")})
        td = TreeDecomposition([bag, bag, bag], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(InvalidDecompositionError, match="cycle"):
            pipeline.solve(p, td=td)

    @pytest.mark.parametrize("vertex", (-1, 5))
    def test_bag_vertex_outside_the_graph_is_rejected(self, vertex):
        # -1 used to count 3 where there are 2 answer sets, 5 to fail with an
        # IndexError deep in the pipeline
        p = parse_program("a :- not b. b :- not a.")
        td = TreeDecomposition([frozenset({0, 1, vertex})], [])
        with pytest.raises(InvalidDecompositionError, match=rf"bag vertex {vertex} is not a vertex of the graph"):
            pipeline.solve(p, td=td)

    def test_invalid_decomposition_reported_before_algorithm_mismatch(self):
        p = parse_program("a | b.\na :- b.\nb :- a.\n")
        td = TreeDecomposition([frozenset({0}), frozenset({1})], [(0, 1)])
        with pytest.raises(InvalidDecompositionError):
            pipeline.solve(p, algorithm="phc", td=td)


class TestPickAlgorithm:
    """``pick_algorithm`` is the one place that chooses a table form: from
    the program's class, the requested algorithm and the decomposition's
    width; ``run_dp`` runs the object it is given."""

    CLASSES = {
        "tight": "a :- not b. b :- not a.",
        "head-cycle-free": "a :- b. b :- a. a :- not c. c :- not a.",
        "disjunctive": helpers.HEAD_CYCLE_TEXT,
    }

    @pytest.mark.parametrize("width", (0, DENSE_MAX_WIDTH, DENSE_MAX_WIDTH + 1))
    @pytest.mark.parametrize("requested", pipeline.ALGORITHMS)
    @pytest.mark.parametrize("kind", CLASSES)
    def test_form_by_class_request_and_width(self, kind, requested, width):
        program_class = classify(parse_program(self.CLASSES[kind]))
        assert program_class.kind.value == kind
        if requested == "phc" and kind == "disjunctive":
            with pytest.raises(AlgorithmMismatchError, match="phc requires a head-cycle-free program, got disjunctive"):
                pipeline.pick_algorithm(program_class, requested, width)
            return
        alg = pipeline.pick_algorithm(program_class, requested, width)
        if requested == "prim" or (requested == "auto" and kind == "disjunctive"):
            want = PrimAlgorithm if width <= DENSE_MAX_WIDTH else SparsePrimAlgorithm
        else:
            want = PhcAlgorithm
        assert type(alg) is want
        # every form runs a decomposition of width 0
        p = parse_program("a.")
        assert engine.run_dp(alg, p, make_nice(decompose(primal_graph(p)))).alg is alg

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm 'dlv'"):
            pipeline.pick_algorithm(classify(helpers.example1()), "dlv", 0)

    @pytest.mark.parametrize("n", (3, DENSE_MAX_WIDTH + 2))
    def test_a_program_alone_runs_at_any_width(self, n):
        # bench/cliffs.py calls pick_algorithm(program) before it has a
        # decomposition; one-of-n with a head cycle is disjunctive and has
        # width n - 1, on each side of DENSE_MAX_WIDTH
        atoms = [f"a{i}" for i in range(1, n + 1)]
        pairs = "".join(f":- {a}, {b}.\n" for i, a in enumerate(atoms) for b in atoms[i + 1 :])
        p = parse_program(" | ".join(atoms) + ".\n" + pairs + "a1 :- a2. a2 :- a1.\n")
        result = pipeline.solve(p)
        assert result.stats.width == n - 1
        ttd = engine.run_dp(pipeline.pick_algorithm(p), p, result.ttd.td)
        assert [format_table(ttd, t) for t in ttd.post_order] == [
            format_table(result.ttd, t) for t in result.ttd.post_order
        ]


class TestRowStats:
    def test_rows_and_max_table_match_a_recount(self):
        # run_dp counts rows per node kind and the largest table as it goes;
        # a recount over the tables must agree under both algorithms
        seen = set()
        for prim, p, pmask in helpers.projection_fuzz():
            result = pipeline.solve(p.with_projection(pmask), algorithm="prim" if prim else "auto")
            want = dict.fromkeys(("leaf", "int", "rem", "join"), 0)
            for nd, tab in zip(result.ttd.td.nodes, result.ttd.tables):
                want[nd.kind] += len(tab)
            assert result.stats.rows == want
            assert list(result.stats.rows) == list(want)
            assert result.stats.max_table == max(len(tab) for tab in result.ttd.tables)
            seen.add(result.stats.algorithm)
        assert seen == {"phc", "prim"}

    def test_projection_counts_match_a_recount(self):
        # solve reads the largest kept table off purge, and run_proj counts
        # buckets, the largest bucket and entries in its node loop, one-row
        # buckets included; a recount over the kept rows and buckets must agree
        for prim, p, pmask in helpers.projection_fuzz():
            result = pipeline.solve(p.with_projection(pmask), algorithm="prim" if prim else "auto")
            nodes = zip(result.proj_tables.nodes, result.purged.kept)
            sizes = [len(b) for node, kept in nodes for b in reference.bucket_members(node, kept)]
            stats = result.stats
            assert stats.max_purged == max(len(rows) for rows in result.purged.rows)
            assert stats.max_bucket == max(sizes, default=0)
            assert stats.proj_buckets == len(sizes)
            assert stats.proj_entries == sum((1 << b) - 1 for b in sizes)

    @pytest.mark.parametrize(
        "text, want",
        (
            ("a :- not a.\n", (0, 0, 0, 0)),  # inconsistent: purge keeps no row
            ("", (1, 1, 1, 1)),  # one leaf, holding the solution row
            (helpers.EXAMPLE1_TEXT, (5, 3, 27, 49)),  # buckets of up to three rows
        ),
        ids=("inconsistent", "empty", "example1"),
    )
    def test_projection_counts_pinned(self, text, want):
        stats = pipeline.solve(parse_program(text)).stats
        assert (stats.max_purged, stats.max_bucket, stats.proj_buckets, stats.proj_entries) == want


class TestRetainedMemory:
    def test_purge_and_projection_bytes_per_kept_row(self):
        # what the purge and the projection pass keep beyond the DP tables,
        # before any view is read: the kept indices, and per node each kept
        # row's bucket and bit and each bucket's count array.  About 63
        # bytes a kept row here, where a kept list and a bucket map per node
        # took about 150, a fresh array per one-row bucket and a dict per
        # NodeCounts about 228, and copies of the purged rows and per-bucket
        # member lists about 331
        result = pipeline.solve(parse_program(helpers.disjunctive_chain(20, 3)))
        assert result.count == 21**3
        seen = {id(result.ttd)}
        helpers.deep_size([tab.rows for tab in result.ttd.tables], seen)
        size = helpers.deep_size(result.purged, seen) + helpers.deep_size(result.proj_tables, seen)
        kept = sum(map(len, result.purged.kept))
        assert kept > 4000
        assert size / kept < 175

    def test_bytes_held_after_solve_per_dp_row(self):
        # everything a solve allocates and its result still holds, by
        # tracemalloc: about 60 bytes a DP row here, 85 when every node kept
        # its own kept list and bucket map, 117 when every node also built
        # its own table, and about 213 with, in addition, an object per
        # table row and a fresh array per one-row bucket
        program = parse_program(helpers.disjunctive_chain(20, 3))
        tracemalloc.start()
        try:
            result = pipeline.solve(program)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.count == 21**3
        rows = sum(map(len, result.ttd.tables))
        assert rows > 14000
        assert held / rows < 150


SHARING_CASES = {
    "example1": helpers.EXAMPLE1_TEXT,  # phc, #project d, e
    "wide_hcf": helpers.WIDE_HCF_TEXT,  # phc, positive cycle
    "head_cycles": helpers.HEAD_CYCLE_TEXT,  # prim
    "disjunctive_chain": helpers.disjunctive_chain(6, 2),  # prim, many equal rows
}


class TestSharedObjects:
    """Equal rows, equal kept lists and equal one-row count arrays are one
    object within a solve, and no object is shared between solves."""

    @pytest.mark.parametrize("name", SHARING_CASES)
    def test_equal_rows_are_one_object(self, name):
        result = pipeline.solve(parse_program(SHARING_CASES[name]))
        rows = [row for tab in result.ttd.tables for row in tab.rows]
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
        assert result.stats.distinct_rows == len(set(rows))

    @pytest.mark.parametrize("name", SHARING_CASES)
    def test_one_row_arrays_are_shared_per_count(self, name):
        # the arrays of all one-row buckets, whatever their row's origins:
        # one read-only tuple per count
        result = pipeline.solve(parse_program(SHARING_CASES[name]))
        arrays = []
        for node, kept in zip(result.proj_tables.nodes, result.purged.kept):
            for b, pcnts in zip(reference.bucket_members(node, kept), node.pcnts):
                if len(b) == 1:
                    arrays.append(pcnts)
        assert all(type(pcnts) is tuple for pcnts in arrays)
        assert len({id(pcnts) for pcnts in arrays}) == len(set(arrays)) < len(arrays)

    @pytest.mark.parametrize("name", SHARING_CASES)
    def test_equal_kept_lists_are_one_object(self, name):
        # purge keeps one read-only tuple per distinct list of kept rows
        kept = pipeline.solve(parse_program(SHARING_CASES[name])).purged.kept
        assert all(type(rows) is tuple and rows for rows in kept)
        assert len({id(rows) for rows in kept}) == len(set(kept)) < len(kept)

    def test_live_solves_share_no_kept_list(self):
        # each solve pools its kept lists on its own: two solves, both
        # alive, have equal kept lists but no kept list object in common
        for first, second in (("example1", "wide_hcf"), ("head_cycles", "disjunctive_chain")):
            a, b = (pipeline.solve(parse_program(SHARING_CASES[name])).purged for name in (first, second))
            assert set(a.kept) & set(b.kept)
            assert {id(rows) for rows in a.kept}.isdisjoint({id(rows) for rows in b.kept})

    def test_live_solves_share_no_row(self):
        # each solve pools its rows on its own: two programs' tables, both
        # alive, have no row object in common but the algorithm's constant
        # solution row, which every leaf table holds
        for first, second in (("example1", "wide_hcf"), ("head_cycles", "disjunctive_chain")):
            a, b = (pipeline.solve(parse_program(SHARING_CASES[name])) for name in (first, second))
            assert a.ttd.alg.solution_row == b.ttd.alg.solution_row
            ids = [{id(row) for tab in r.ttd.tables for row in tab.rows} for r in (a, b)]
            assert ids[0] & ids[1] == {id(a.ttd.alg.solution_row)}

import gc

import pytest

import helpers
import reference
from paspc import engine, oracle, pipeline
from paspc.decomposition import TreeDecomposition
from paspc.formats import parse_program
from paspc.pipeline import AlgorithmMismatchError, InvalidDecompositionError
from paspc.program import Program


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
        # row's bucket and bit and each bucket's count array.  About 228
        # bytes a kept row here, where copies of the purged rows and
        # per-bucket member lists took about 331
        result = pipeline.solve(parse_program(helpers.disjunctive_chain(20, 3)))
        assert result.count == 21**3
        seen = {id(result.ttd)}
        helpers.deep_size([tab.rows for tab in result.ttd.tables], seen)
        size = helpers.deep_size(result.purged, seen) + helpers.deep_size(result.proj_tables, seen)
        kept = sum(map(len, result.purged.kept))
        assert kept > 4000
        assert size / kept < 260

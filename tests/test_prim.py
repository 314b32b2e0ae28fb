import random
from collections import Counter

import pytest

import helpers
from paspc import oracle, pipeline
from paspc.cli import format_table
from paspc.decomposition import decompose, make_nice, primal_graph
from paspc.engine import has_solution, run_dp
from paspc.formats import parse_program
from paspc.prim import DENSE_MAX_WIDTH, PrimAlgorithm, SparsePrimAlgorithm
from paspc.program import Program, classify, iter_bits, mask_of
from reference import PrimRow as DecodedRow, decoded_prim_row, reference_prim_tables


def run(p):
    nice = make_nice(decompose(primal_graph(p)))
    return run_dp(pipeline.pick_algorithm(classify(p), "prim", nice.width), p, nice)


class TestTransitions:
    def test_disjunctive_fact_witnesses(self):
        # a | b: the two singleton witnesses reach the root clean, while the
        # two-atom witness drags both proper submodels along as counters
        p = Program.from_specs([(("a", "b"), (), ())])
        ttd = run(p)
        full_node = next(
            t for t in ttd.post_order if ttd.td.nodes[t].bag == frozenset(range(p.n_atoms))
        )
        rows = [decoded_prim_row(ttd, full_node, r) for r in ttd.table(full_node).rows]
        by_witness = {r.witness: r.counters for r in rows}
        assert by_witness[p.mask("ab")] == frozenset({p.mask("a"), p.mask("b")})
        assert by_witness[p.mask("a")] == frozenset()
        assert by_witness[p.mask("b")] == frozenset()
        root = ttd.td.root
        root_rows = [decoded_prim_row(ttd, root, r) for r in ttd.table(root).rows]
        assert DecodedRow(0, frozenset()) in root_rows
        assert DecodedRow(0, frozenset({0})) in root_rows

    def test_counters_survive_removal(self):
        p = Program.from_specs([(("a", "b"), (), ())])
        ttd = run(p)
        for t in ttd.post_order:
            if ttd.td.nodes[t].kind != "rem":
                continue
            (c,) = ttd.td.nodes[t].children
            origins = ttd.table(t).origins
            for i, row in enumerate(ttd.table(t).rows):
                for seq in origins[i]:
                    child = decoded_prim_row(ttd, c, ttd.table(c).rows[seq[0]])
                    # removal projects counters; it never filters or invents
                    keep = ~(1 << ttd.td.nodes[t].atom)
                    assert decoded_prim_row(ttd, t, row).counters == frozenset(n & keep for n in child.counters)


class TestSolutionRows:
    def test_consistent_program(self, example1):
        assert has_solution(run(example1))

    def test_constraints_kill_all_models(self):
        p = Program.from_specs([(("a", "b"), (), ()), ((), ("a",), ()), ((), ("b",), ())])
        assert not has_solution(run(p))
        assert oracle.enumerate_answer_sets(p) == []

    def test_empty_program(self):
        p = Program.from_specs([])
        assert has_solution(run(p))


class TestFuzz:
    def test_consistency_and_counts_match_oracle(self):
        rng = random.Random(300300)
        for _ in range(300):
            p = helpers.random_disjunctive(rng, rng.randint(2, 7), rng.randint(0, 9))
            p = p.with_projection(helpers.random_projection(rng, p))
            answer_sets = oracle.enumerate_answer_sets(p)
            ttd = run(p)
            assert has_solution(ttd) == bool(answer_sets)
            got = pipeline.solve(p, algorithm="prim").count
            assert got == len({a & p.projection for a in answer_sets})

    def test_table_bound(self):
        rng = random.Random(66)
        for _ in range(40):
            p = helpers.random_disjunctive(rng, rng.randint(2, 6), rng.randint(0, 8))
            ttd = run(p)
            for t in ttd.post_order:
                k = len(ttd.td.nodes[t].bag)
                assert len(ttd.table(t)) <= 2**k * 2 ** (2**k)
                bag_slots = sum(1 << ttd.slots[a] for a in ttd.td.nodes[t].bag)
                for row in ttd.table(t).rows:
                    # slot subsets within the bag's slots, so decoding loses nothing
                    assert not row.witness & ~bag_slots
                    assert all(not n & ~bag_slots for n in iter_bits(row.counters))
                    decoded = decoded_prim_row(ttd, t, row)
                    bag_mask = mask_of(ttd.td.nodes[t].bag)
                    assert not decoded.witness & ~bag_mask
                    assert all(not n & ~bag_mask for n in decoded.counters)


def by_value(rows, tab, child_rows):
    """A table as a map from each row to the multiset of its origins, each
    origin decoded to its child rows: ``rows`` and ``child_rows`` (one list
    per child) are the decoded rows in table order."""
    return {
        row: Counter(tuple(map(list.__getitem__, child_rows, seq)) for seq in seqs)
        for row, seqs in zip(rows, tab.origins)
    }


def assert_tables_equal_reference(ttd, p, note=()):
    """Every node's decoded rows, as a set of the same size, and each row's
    origins decoded to child rows, equal those of ``reference.ReferencePrim``.
    Tables hold their rows in first-appearance order over the solve, the
    reference in emission order, so rows compare by value."""
    reference = reference_prim_tables(p, ttd.td)
    decoded = [[decoded_prim_row(ttd, t, r) for r in ttd.table(t).rows] for t in ttd.post_order]
    for t in ttd.post_order:
        children = ttd.td.nodes[t].children
        want = reference[t]
        got = by_value(decoded[t], ttd.table(t), [decoded[c] for c in children])
        assert len(got) == len(decoded[t]) == len(want.rows), (*note, t)
        assert got == by_value(want.rows, want, [reference[c].rows for c in children]), (*note, t)


def exactly_one(n, head_cycle=False):
    """One of n atoms: a disjunctive fact over all of them and a constraint
    per pair, so one bag holds every atom and the width is n - 1, while a
    table has at most n + 1 rows.  The head cycle a1 <-> a2 makes the
    program disjunctive, and a1 and a2 can no longer be the one atom."""
    atoms = [f"a{i}" for i in range(1, n + 1)]
    text = " | ".join(atoms) + ".\n" + "".join(f":- {a}, {b}.\n" for i, a in enumerate(atoms) for b in atoms[i + 1 :])
    if head_cycle:
        text += "a1 :- a2. a2 :- a1.\n"
    return parse_program(text)


class TestAgainstReference:
    """Both counter forms against the frozenset ``prim`` on atom ids that
    the slot encoding replaced (``reference.ReferencePrim``)."""

    def test_decoded_tables_equal_reference(self):
        # rules of up to five atoms make bags of up to seven atoms; at width
        # 6 a counter bitset has 2^7 = 128 bits.  The sparse form runs on
        # the same decompositions, below the width at which pick_algorithm
        # picks it.
        rng = random.Random(7070)
        widest = 0
        for i in range(200):
            p = helpers.random_disjunctive(rng, rng.randint(2, 10), rng.randint(1, 10), max_size=5)
            p = p.with_projection(helpers.random_projection(rng, p))
            want = oracle.projected_count(p)
            for seed in (0, 1, 2):
                nice = make_nice(decompose(primal_graph(p), "min-fill", seed))
                if nice.width > 6:
                    continue
                ttd = run_dp(PrimAlgorithm(nice.width), p, nice)
                assert_tables_equal_reference(ttd, p, (i, seed))
                widest = max([widest] + [r.counters.bit_length() for t in ttd.post_order for r in ttd.table(t).rows])
                assert_tables_equal_reference(run_dp(SparsePrimAlgorithm(), p, nice), p, (i, seed, "sparse"))
                assert pipeline.solve(p, algorithm="prim", seed=seed).count == want, (i, seed)
        assert widest > 64

    def test_both_forms_print_alike(self):
        # traces print counters sorted by decoded atom mask in either form
        p = parse_program(helpers.HEAD_CYCLE_TEXT)
        nice = make_nice(decompose(primal_graph(p)))
        dense, sparse = run_dp(PrimAlgorithm(nice.width), p, nice), run_dp(SparsePrimAlgorithm(), p, nice)
        assert [format_table(dense, t) for t in dense.post_order] == [format_table(sparse, t) for t in sparse.post_order]

    @pytest.mark.parametrize("n", [4, DENSE_MAX_WIDTH + 1, DENSE_MAX_WIDTH + 2, 27])
    def test_counter_form_follows_width(self, n):
        # bitsets up to DENSE_MAX_WIDTH, frozensets beyond: at width 26 a
        # bitset row would cost 2^27 bits whatever its counters.  A bitset
        # form holds B_s for the decomposition's slots only.
        p = exactly_one(n, head_cycle=True)
        result = pipeline.solve(p)
        assert result.stats.width == n - 1
        dense = n - 1 <= DENSE_MAX_WIDTH
        assert type(result.ttd.alg) is (PrimAlgorithm if dense else SparsePrimAlgorithm)
        if dense:
            assert len(result.ttd.alg.with_slot) == n
        assert result.count == n - 2
        assert_tables_equal_reference(result.ttd, p, (n,))
        if n <= 12:
            assert result.count == oracle.projected_count(p)

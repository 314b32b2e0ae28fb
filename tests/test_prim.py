import random

import helpers
from paspc import oracle, pipeline
from paspc.decomposition import decompose, make_nice, primal_graph
from paspc.engine import has_solution, run_dp
from paspc.prim import PRIM, PrimRow
from paspc.program import Program


def run(p):
    return run_dp(PRIM, p, make_nice(decompose(primal_graph(p))))


class TestTransitions:
    def test_leaf(self):
        assert PRIM.node_table("leaf", None, [], []) == {PrimRow(0, frozenset()): {()}}

    def test_disjunctive_fact_witnesses(self):
        # a | b: the two singleton witnesses reach the root clean, while the
        # two-atom witness drags both proper submodels along as counters
        p = Program.from_specs([(("a", "b"), (), ())])
        ttd = run(p)
        full_node = next(
            t for t in ttd.post_order if ttd.td.nodes[t].bag_mask == p.atom_mask
        )
        rows = ttd.table(full_node).rows
        by_witness = {r.witness: r.counters for r in rows}
        assert by_witness[p.mask("ab")] == frozenset({p.mask("a"), p.mask("b")})
        assert by_witness[p.mask("a")] == frozenset()
        assert by_witness[p.mask("b")] == frozenset()
        root_rows = ttd.table(ttd.td.root).rows
        assert PrimRow(0, frozenset()) in root_rows
        assert PrimRow(0, frozenset({0})) in root_rows

    def test_counters_survive_removal(self):
        p = Program.from_specs([(("a", "b"), (), ())])
        ttd = run(p)
        for t in ttd.post_order:
            if ttd.td.nodes[t].kind != "rem":
                continue
            for i, row in enumerate(ttd.table(t).rows):
                for seq in ttd.table(t).origins[i]:
                    child = ttd.table(ttd.td.nodes[t].children[0]).rows[seq[0]]
                    # removal projects counters; it never filters or invents
                    keep = ~(1 << ttd.td.nodes[t].atom)
                    assert row.counters == frozenset(n & keep for n in child.counters)


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
                for row in ttd.table(t).rows:
                    assert not row.witness & ~ttd.td.nodes[t].bag_mask
                    assert all(not n & ~ttd.td.nodes[t].bag_mask for n in row.counters)

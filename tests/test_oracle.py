import pytest

import helpers
from paspc import oracle
from paspc.program import Program


class TestEnumerate:
    def test_running_example_answer_sets(self, example1):
        got = {example1.names(m) for m in oracle.enumerate_answer_sets(example1)}
        want = {tuple(sorted(s, key=example1.atom_id)) for s in map(frozenset, helpers.EXAMPLE1_ANSWER_SETS)}
        assert {frozenset(g) for g in got} == {frozenset(w) for w in want}

    def test_empty_program(self):
        assert oracle.enumerate_answer_sets(Program.from_specs([])) == [0]

    def test_negative_self_loop(self):
        p = Program.from_specs([(("a",), (), ("a",))])
        assert oracle.enumerate_answer_sets(p) == []

    def test_minimality_rejects_supersets(self):
        # a | b: {a,b} is a model of its reduct but not minimal
        p = Program.from_specs([(("a", "b"), (), ())])
        got = oracle.enumerate_answer_sets(p)
        assert got == [p.mask("a"), p.mask("b")]


class TestProjectedCount:
    def test_running_example(self, example1):
        assert oracle.projected_count(example1) == 3
        assert oracle.projected_count(example1, example1.atom_mask) == 4
        assert oracle.projected_count(example1, 0) == 1

    def test_guard(self):
        p = Program.from_specs([((f"x{i}",), (), ()) for i in range(25)])
        with pytest.raises(oracle.OracleSizeError):
            oracle.enumerate_answer_sets(p)

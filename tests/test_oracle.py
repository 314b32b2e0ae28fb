import random

import pytest

import helpers
import reference
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

    def test_minimality_reaches_the_empty_set(self):
        # {a, b} is a model of a :- b. b :- a., and only the empty subset is
        # a smaller model of its reduct
        p = Program.from_specs([(("a",), ("b",), ()), (("b",), ("a",), ())])
        assert oracle.enumerate_answer_sets(p) == [0]

    @pytest.mark.parametrize(
        "specs, want",
        (
            # a :- a. holds everywhere, so {a} and {c} stay answer sets
            ([(("a", "c"), (), ()), (("a",), ("a",), ())], ("a", "c")),
            # b :- a, not a. holds everywhere, so {a} stays one
            ([(("a",), (), ()), (("b",), ("a",), ("a",))], ("a",)),
        ),
    )
    def test_rules_whose_head_or_negative_body_meets_their_positive_body(self, specs, want):
        p = Program.from_specs(specs)
        assert oracle.enumerate_answer_sets(p) == [p.mask(a) for a in want]


class TestAgainstReference:
    """The model-first oracle against the form that builds every
    interpretation's reduct (``reference.enumerate_answer_sets``)."""

    def test_projection_fuzz_streams(self):
        for _, p, _ in helpers.projection_fuzz():
            assert oracle.enumerate_answer_sets(p) == reference.enumerate_answer_sets(p)

    @pytest.mark.parametrize(
        "gen, max_arg",
        (
            (helpers.random_mixed, 12),
            (helpers.random_guessed, 4),  # three atoms per guessed one
            (helpers.random_tight, 12),
            (helpers.random_normal, 12),
            (helpers.random_hcf, 12),
            (helpers.random_disjunctive, 12),
        ),
    )
    def test_random_programs_up_to_twelve_atoms(self, gen, max_arg):
        rng = random.Random(2024)
        for _ in range(60):
            p = gen(rng, rng.randint(1, max_arg), rng.randint(1, 14))
            assert p.n_atoms <= 12
            assert oracle.enumerate_answer_sets(p) == reference.enumerate_answer_sets(p)


class TestProjectedCount:
    def test_running_example(self, example1):
        assert oracle.projected_count(example1) == 3
        assert oracle.projected_count(example1, example1.atom_mask) == 4
        assert oracle.projected_count(example1, 0) == 1

    def test_guard(self):
        p = Program.from_specs([((f"x{i}",), (), ()) for i in range(25)])
        with pytest.raises(oracle.OracleSizeError):
            oracle.enumerate_answer_sets(p)

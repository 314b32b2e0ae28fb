"""Metamorphic and multi-decomposition fuzz against the oracle.

Each instance is solved under min-fill and min-degree with seeds 0, 1 and 2
and under a random valid decomposition; every count must equal the oracle's.
Renaming the atoms and shuffling the rules changes the atom ids, hence the
decomposition and every slot, but not the count; duplicate rules change
nothing; projecting onto all atoms counts the answer sets, and projecting
onto none gives 1 for a consistent program and 0 otherwise."""

import random

import pytest

import helpers
from paspc import oracle, pipeline
from paspc.decomposition import primal_graph, validate_td
from paspc.program import Program

HEURISTICS = [(h, seed) for h in ("min-fill", "min-degree") for seed in (0, 1, 2)]

# generator -> the algorithm ``auto`` picks for its programs (mixed: either)
GENERATORS = {
    helpers.random_tight: "phc",
    helpers.random_normal: "phc",
    helpers.random_hcf: "phc",
    helpers.random_mixed: None,
    helpers.random_disjunctive: "prim",
}


def renamed_and_shuffled(rng: random.Random, p: Program) -> Program:
    """The same program with fresh atom names, first occurring in a random
    rule order, so that atom ids are permuted."""
    names = [f"r{i}" for i in range(p.n_atoms)]
    rng.shuffle(names)

    def rename(ids):
        return [names[a] for a in ids]

    specs = [(rename(r.head), rename(r.pos_body), rename(r.neg_body)) for r in p.rules]
    rng.shuffle(specs)
    return Program.from_specs(specs, projection=rename(a for a in range(p.n_atoms) if p.projection >> a & 1))


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda gen: gen.__name__)
def test_counts_agree_across_decompositions_and_rewrites(gen):
    rng = random.Random(gen.__name__)
    for i in range(120):
        p = gen(rng, rng.randint(1, 8), rng.randint(1, 10))
        p = p.with_projection(helpers.random_projection(rng, p))
        want = oracle.projected_count(p)
        if GENERATORS[gen]:
            assert pipeline.pick_algorithm(p).name == GENERATORS[gen]

        counts = [pipeline.solve(p, heuristic=h, seed=seed).count for h, seed in HEURISTICS]
        graph = primal_graph(p)
        td = helpers.random_decomposition(rng, graph)
        assert validate_td(graph, td) == []
        counts.append(pipeline.solve(p, td=td).count)
        # prim is sound on every class
        counts.append(pipeline.solve(p, algorithm="prim", td=td).count)
        assert counts == [want] * len(counts), i

        assert pipeline.solve(renamed_and_shuffled(rng, p)).count == want, i
        doubled = Program(p.atom_names, list(p.rules) + rng.sample(p.rules, rng.randint(1, len(p.rules))), p.projection)
        assert pipeline.solve(doubled).count == want, i

        answer_sets = oracle.enumerate_answer_sets(p)
        assert pipeline.solve(p.with_projection(p.atom_mask)).count == len(answer_sets), i
        assert pipeline.solve(p.with_projection(0)).count == (1 if answer_sets else 0), i

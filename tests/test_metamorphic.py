"""Metamorphic and multi-decomposition fuzz against the oracle.

Each instance is solved under min-fill and min-degree with seeds 0, 1 and 2
and under a random valid decomposition; every count must equal the oracle's.
Renaming the atoms and shuffling the rules changes the atom ids, hence the
decomposition and every slot, but not the count; duplicate rules change
nothing; projecting onto all atoms counts the answer sets, and projecting
onto none gives 1 for a consistent program and 0 otherwise.  A disjoint
union of programs, each part decomposed on its own and all parts hung under
one empty hub bag, is solved through joins over that empty bag."""

import random

import pytest

import helpers
from paspc import oracle, pipeline
from paspc.decomposition import TreeDecomposition, decompose, make_nice, primal_graph, validate_td
from paspc.program import Program, classify

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
            assert pipeline.pick_algorithm(classify(p)).name == GENERATORS[gen]

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


def hub_union(rng: random.Random, parts: list[Program]) -> tuple[Program, TreeDecomposition]:
    """The disjoint union of the parts (part i's atoms renamed ``p<i>_<name>``)
    and a decomposition of it: each part's own decomposition, with every part
    hung from a random node under one empty hub bag, the last node."""
    specs = []
    for i, part in enumerate(parts):
        names = [f"p{i}_{n}" for n in part.atom_names]
        for r in part.rules:
            specs.append(([names[a] for a in r.head], [names[a] for a in r.pos_body], [names[a] for a in r.neg_body]))
    union = Program.from_specs(specs)
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    hangs = []
    for i, part in enumerate(parts):
        ids = [union.atom_id(f"p{i}_{n}") for n in part.atom_names]
        td = decompose(primal_graph(part))
        off = len(bags)
        bags += [frozenset(ids[a] for a in bag) for bag in td.bags]
        edges += [(off + x, off + y) for x, y in td.edges]
        hangs.append(off + rng.randrange(len(td.bags)))
    edges += [(t, len(bags)) for t in hangs]
    bags.append(frozenset())
    return union, TreeDecomposition(bags, edges)


def test_disjoint_parts_joined_over_an_empty_bag():
    rng = random.Random(404)
    empty_joins = 0
    for i in range(300):
        gen = rng.choice(list(GENERATORS))
        parts = [gen(rng, rng.randint(1, 5), rng.randint(1, 6)) for _ in range(rng.randint(2, 3))]
        p, td = hub_union(rng, parts)
        p = p.with_projection(helpers.random_projection(rng, p))
        assert validate_td(primal_graph(p), td) == []
        nice = make_nice(td)
        empty_joins += sum(nd.kind == "join" and not nd.bag for nd in nice.nodes)
        want = oracle.projected_count(p)
        # phc is sound on head-cycle-free unions, prim on every class
        for algorithm in ("phc", "prim") if pipeline.pick_algorithm(classify(p)).name == "phc" else ("prim",):
            assert pipeline.solve(p, algorithm=algorithm, td=td).count == want, (i, algorithm)
    assert empty_joins >= 300

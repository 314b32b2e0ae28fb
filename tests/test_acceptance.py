"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
single PASS/FAIL line.  The differential fuzz (criteria 3-5) runs once per
session and is shared by the tests that grade it.
"""

import math
import random
import time
import tracemalloc

import pytest

import helpers
from paspc import oracle, pipeline
from paspc.decomposition import decompose, make_nice, primal_graph, validate_td
from paspc.engine import has_solution, purge, run_dp
from paspc.phc import PhcRow
from paspc.program import Program, mask_of
from reference import ipmc, pcnt, reference_proj_table, to_tree_decomposition

FUZZ_PER_CLASS = 500
FUZZ_SEED = 20250810

# the paper's full-ordering PHC; the programs below have at most 8 atoms
PHC = helpers.paper_phc(8)


def report(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_running_example_counts(example1):
    t0 = time.perf_counter()
    got = (
        pipeline.solve(example1).count,
        pipeline.solve(example1.with_projection(example1.atom_mask)).count,
        pipeline.solve(example1.with_projection(0)).count,
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        f"running example counts {got} == (3, 4, 1) in {elapsed:.3f}s < 1s",
        got == (3, 4, 1) and elapsed < 1.0,
    )


def test_criterion_2_printed_table_values():
    # single-child node over one two-row bucket: all three entries store 1
    rows = [PhcRow(0, 0, ()), PhcRow(1, 0, ((0, 0),))]
    table = reference_proj_table(
        "int", rows, PHC.interp, 0b10, [[(0,)], [(0,)]], [{frozenset({0}): 1}], [{0: 0}]
    )
    ok = table == {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 1}

    child_pi = {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 1}
    child_buckets = {0: 0, 1: 0}
    ok = ok and pcnt({(0,)}, [child_pi], [child_buckets]) == 1
    ok = ok and pcnt({(0,), (1,)}, [child_pi], [child_buckets]) == 1  # 1 + 1 - 1

    # |2 - 2 - 1| = 1 for a pair whose members share one projected answer set
    deep_pi = {
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({0, 1}): 1,
        frozenset({2}): 1,
        frozenset({3}): 1,
    }
    deep_buckets = {0: 0, 1: 0, 2: 1, 3: 2}
    smaller = {
        frozenset({0}): ipmc("rem", frozenset({0}), {(0,), (2,)}, [deep_pi], [deep_buckets], {}),
        frozenset({1}): ipmc("rem", frozenset({1}), {(1,)}, [deep_pi], [deep_buckets], {}),
    }
    pair = ipmc("rem", frozenset({0, 1}), {(0,), (1,), (2,)}, [deep_pi], [deep_buckets], smaller)
    ok = ok and (smaller[frozenset({0})], smaller[frozenset({1})], pair) == (2, 1, 1)
    report(2, "pinned projection-table values reproduced exactly", ok)


@pytest.fixture(scope="module")
def fuzz_results():
    rng = random.Random(FUZZ_SEED)
    generators = {
        "tight": helpers.random_tight,
        "normal": helpers.random_normal,
        "hcf": helpers.random_hcf,
        "disjunctive": helpers.random_disjunctive,
    }
    stats = {
        "instances": 0,
        "count_mismatches": 0,
        "consistency_mismatches": 0,
        "phc_bound_violations": 0,
        "proj_bound_violations": 0,
        "elapsed": 0.0,
    }
    t_start = time.perf_counter()
    for cls, gen in generators.items():
        for _ in range(FUZZ_PER_CLASS):
            p = gen(rng, rng.randint(1, 8), rng.randint(1, 12))
            p = p.with_projection(helpers.random_projection(rng, p))
            result = pipeline.solve(p)
            answer_sets = oracle.enumerate_answer_sets(p)
            want = len({a & p.projection for a in answer_sets})
            stats["instances"] += 1
            if result.count != want:
                stats["count_mismatches"] += 1

            if has_solution(result.ttd) != bool(answer_sets):
                stats["consistency_mismatches"] += 1

            for t in result.ttd.post_order:
                k = len(result.ttd.td.nodes[t].bag)
                if result.stats.algorithm == "phc":
                    if len(result.ttd.table(t)) > 3**k * math.factorial(k):
                        stats["phc_bound_violations"] += 1
                if len(result.proj_tables.tables[t]) > 2 ** len(result.purged.rows[t]):
                    stats["proj_bound_violations"] += 1
    stats["elapsed"] = time.perf_counter() - t_start
    return stats


def test_criterion_3_oracle_fuzz_equivalence(fuzz_results):
    s = fuzz_results
    report(
        3,
        f"{s['instances']} fuzz instances, {s['count_mismatches']} count mismatches, "
        f"{s['elapsed']:.1f}s < 600s",
        s["instances"] >= 4 * FUZZ_PER_CLASS
        and s["count_mismatches"] == 0
        and s["elapsed"] < 600,
    )


def test_criterion_4_consistency_readout(fuzz_results):
    report(
        4,
        f"root solution row iff oracle consistency on all {fuzz_results['instances']} instances",
        fuzz_results["consistency_mismatches"] == 0,
    )


def test_criterion_5_structural_bounds(fuzz_results):
    report(
        5,
        "table bounds 3^|bag| * |bag|! and 2^|purged| held throughout the fuzz",
        fuzz_results["phc_bound_violations"] == 0 and fuzz_results["proj_bound_violations"] == 0,
    )


def test_criterion_6_decomposition_quality(example1):
    g1 = primal_graph(example1)
    ok = all(decompose(g1, h, 0).width <= 2 for h in ("min-fill", "min-degree"))
    rng = random.Random(606060)
    for seed in range(200):
        n = rng.randint(1, 12)
        g = primal_graph(
            helpers.random_mixed(rng, n, rng.randint(1, 14))
        )
        h = "min-fill" if seed % 2 else "min-degree"
        td = decompose(g, h, 0)
        if validate_td(g, td):
            ok = False
            break
        nice = make_nice(td)
        if nice.width != td.width or validate_td(g, to_tree_decomposition(nice)):
            ok = False
            break
    report(6, "heuristic decompositions valid, width 2 on the example, nice form width-preserving", ok)


def test_criterion_7_purging_fidelity(example1_td):
    program, ntd, ids = example1_td
    ttd = run_dp(PHC, program, ntd)
    a = program.atom_id("a")

    # the bag-{b} removal fed by the introduce-a/introduce-b chain keeps a
    # row only when a is proven or false
    ok = True
    t3, t4, t8 = ids["t3"], ids["t4"], ids["t8"]
    violating = [
        r for r in ttd.table(t3).rows if ttd.decode(t3, r.interp) & (1 << a) and not ttd.decode(t3, r.proven) & (1 << a)
    ]
    ok = ok and bool(violating)
    survivors = {ttd.table(t3).rows[j] for seqs in ttd.table(t4).origins for (j,) in seqs}
    ok = ok and all(r not in survivors for r in violating)

    # at the node introducing e over the {b,d,e} bag, purged rows all match
    # an answer set on the bag, and at least one table row was dropped
    purged = purge(ttd)
    answer_sets = oracle.enumerate_answer_sets(program)
    bag_mask = mask_of(ntd.nodes[t8].bag)
    ok = ok and len(purged.rows[t8]) < len(ttd.table(t8))
    ok = ok and all(
        any(ans & bag_mask == ttd.decode(t8, row.interp) for ans in answer_sets) for row in purged.rows[t8]
    )
    report(7, "removal guard enforced and non-extending rows purged on the 14-node fixture", ok)


def chain_blocks(blocks: int) -> Program:
    """Strictly head-cycle-free family with constant width: per block a
    negation choice pair, a positive two-cycle entered from the choice, and a
    chain link to the previous block."""
    specs = []
    for i in range(blocks):
        x, y, p, q = f"x{i}", f"y{i}", f"p{i}", f"q{i}"
        specs.append(((x,), (), (y,)))
        specs.append(((y,), (), (x,)))
        specs.append(((p,), (q,), ()))
        specs.append(((q,), (p,), ()))
        specs.append(((p,), (x,), ()))
        if i:
            specs.append(((x,), (f"x{i-1}",), ()))
    return Program.from_specs(specs)


def test_criterion_8_linear_scaling():
    from paspc.program import ProgramKind, classify

    sizes = [2, 17, 167, 1667]
    points = []
    pipeline.solve(chain_blocks(2))  # warm up
    for blocks in sizes:
        program = chain_blocks(blocks)
        assert classify(program).kind is ProgramKind.HEAD_CYCLE_FREE
        t0 = time.perf_counter()
        result = pipeline.solve(program)
        elapsed = max(time.perf_counter() - t0, 1e-4)
        points.append((result.stats.nodes, elapsed, len(program.rules)))

    assert points[0][2] >= 10 and points[-1][2] >= 10_000
    xs = [math.log(n) for n, _, _ in points]
    ys = [math.log(t) for _, t, _ in points]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    report(
        8,
        f"wall time vs node count fit exponent {slope:.2f} <= 1.3 over {points[0][2]}..{points[-1][2]} rules",
        slope <= 1.3,
    )


def held_bytes_per_rule(blocks: int) -> float:
    """Bytes still allocated, per rule, once ``chain_blocks(blocks)`` is
    built, decomposed and made nice."""
    tracemalloc.start()
    try:
        program = chain_blocks(blocks)
        nice = make_nice(decompose(primal_graph(program)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nice.nodes
    return held / len(program.rules)


def test_memory_per_rule_does_not_grow():
    # the family has constant width, so what a solve holds per rule before
    # the tables must not grow with the program: nothing stored per rule or
    # per nice node may be as wide as the atom count
    small, large = held_bytes_per_rule(200), held_bytes_per_rule(1600)
    assert large <= 1.2 * small, (small, large)

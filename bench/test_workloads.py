"""Checks of the benchmark itself: closed forms against the brute-force oracle,
seed behaviour of the generators, and the tracer's counts and spans.

    python3 -m pytest bench/test_workloads.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from paspc import formats, oracle, pipeline  # noqa: E402
from workloads import WORKLOADS, chain_k, closed_form, workload_text  # noqa: E402

# (blocks, k) with at most 24 atoms: every instance has (2k + 2) * blocks atoms
SMALL = [(1, 1), (3, 1), (5, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]


@pytest.mark.parametrize("variant", ["hcf", "tight", "disj"])
@pytest.mark.parametrize("blocks,k", SMALL)
@pytest.mark.parametrize("project_p", [False, True])
def test_closed_form_matches_oracle(variant, blocks, k, project_p):
    program = formats.parse_program(chain_k(blocks, k, variant, project_p))
    assert program.n_atoms == (2 * k + 2) * blocks <= oracle.MAX_ATOMS
    expected = closed_form(blocks, k, project_p)
    assert oracle.projected_count(program, program.projection) == expected


def test_buckets_workload_matches_oracle():
    """The whole buckets instance fits the oracle's 24-atom guard."""
    w = WORKLOADS["buckets"]
    program = formats.parse_program(workload_text(w, 0))
    assert program.n_atoms == 24
    assert oracle.projected_count(program, program.projection) == w.expected()


@pytest.mark.parametrize("variant", ["hcf", "tight", "disj"])
def test_seeds_rename_atoms_only(variant):
    base = formats.parse_program(chain_k(3, 2, variant, True, seed=0))
    for seed in (1, 2):
        text = chain_k(3, 2, variant, True, seed=seed)
        assert text == chain_k(3, 2, variant, True, seed=seed)
        program = formats.parse_program(text)
        assert program.rules == base.rules and program.projection == base.projection
        assert set(program.atom_names).isdisjoint({"not"}) and program.atom_names != base.atom_names


def test_traced_solve_spans_and_counts():
    program = formats.parse_program(chain_k(3, 2, "hcf"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("solve"):
            result = pipeline.solve(program)
    finally:
        tracer.uninstall()
    assert tracer.missing_spans(0) == ["formats.parse"]
    assert not hasattr(pipeline.classify, "__wrapped__")

    times = tracer.self_times()[0]
    total = tracer.solve_totals()[0]
    assert all(t >= 0 for t in times.values())
    assert sum(times.values()) == pytest.approx(total)

    counts = spans.work_counts(program, result)
    ttd = result.ttd
    assert counts["engine.rows"] == sum(len(ttd.table(t)) for t in ttd.post_order)
    assert counts["engine.kept_rows"] == sum(len(r) for r in result.purged.rows)
    assert counts["proj.entries"] == sum(len(t) for t in result.proj_tables.tables)
    assert counts["decomposition.width"] == result.stats.width
    assert counts["engine.max_rows"] == result.stats.max_table

"""The benchmark's per-layer hooks (``bench/spans.py``) still reach every
layer of a solve: ``bench/run.py --trace 1`` stops on a missing span, and no
other tier-1 test runs it."""

from pathlib import Path

import pytest

from paspc import formats, pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The bench's modules, imported from its directory as its scripts do."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


def test_traced_solve_reaches_every_layer(bench):
    spans, workloads = bench
    text = workloads.chain_k(4, 2, "hcf", True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the spans bench/worker.py opens around a traced solve
        with tracer.span("solve"):
            with tracer.span("formats.parse"):
                program = formats.parse_program(text)
            result = pipeline.solve(program)
    finally:
        tracer.uninstall()
    assert result.count == workloads.closed_form(4, 2, True)
    assert tracer.missing_spans(0) == []
    counts = spans.work_counts(program, result)
    assert counts["decomposition.width"] == result.stats.width
    assert counts["engine.rows"] == sum(result.stats.rows.values())


def test_cliffs_pre_projection_counts_run(bench):
    # bench/cliffs.py picks the algorithm from the program alone
    _, workloads = bench
    import cliffs

    counts = cliffs.pre_proj_counts(workloads.chain_k(2, 2, "tight"))
    assert set(counts) == {"decomposition.width", "engine.rows", "engine.max_rows", "proj.max_bucket", "proj.entries"}

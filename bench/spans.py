"""Layer spans recorded from outside ``paspc``.

``Tracer.install`` replaces the layer functions that ``pipeline.solve`` looks
up at call time with wrappers that record a span per call; ``uninstall``
puts the originals back.  Nothing inside ``src/paspc`` is changed.  Spans are
kept in memory and turned into per-layer numbers at the end of the run.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from paspc import engine, pipeline, proj
from paspc.decomposition import INTRODUCE, JOIN, REMOVE

# (module object, attribute, span name) in the order pipeline.solve calls them.
# classify and the decomposition functions are imported by name into
# pipeline, so they are replaced there; engine and proj are called through
# their modules.
WRAPPED = (
    (pipeline, "classify", "program.classify"),
    (pipeline, "primal_graph", "decomposition.primal_graph"),
    (pipeline, "decompose", "decomposition.decompose"),
    (pipeline, "make_nice", "decomposition.make_nice"),
    (engine, "run_dp", "engine.run_dp"),
    (engine, "purge", "engine.purge"),
    (proj, "run_proj", "proj.run_proj"),
    (proj, "final_count", "proj.final_count"),
)

# per-layer time metric -> spans whose self time it sums
LAYER_TIMES = {
    "formats.parse_s": ("formats.parse",),
    "program.classify_s": ("program.classify",),
    "decomposition.decompose_s": ("decomposition.primal_graph", "decomposition.decompose"),
    "decomposition.make_nice_s": ("decomposition.make_nice",),
    "engine.run_dp_s": ("engine.run_dp",),
    "engine.purge_s": ("engine.purge",),
    "proj.run_proj_s": ("proj.run_proj", "proj.final_count"),
}

# layer -> the span after which ru_maxrss is read for rss_mb.after_<layer>
RSS_AFTER = {
    "formats": "formats.parse",
    "program": "program.classify",
    "decomposition": "decomposition.make_nice",
    "engine": "engine.purge",
    "proj": "proj.final_count",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a solve span
    solve_id: int
    rss_kb: int  # ru_maxrss when the span ended


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.solve_id = -1
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; a span named "solve" starts a new solve id."""
        if name == "solve":
            self.solve_id += 1
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.solve_id, 0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            span.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._open.pop()

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # --- derived numbers ---------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per solve id: span name -> summed self time (duration minus the
        part covered by its child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            per = out.setdefault(s.solve_id, {})
            per[s.name] = per.get(s.name, 0.0) + (s.end - s.start - child_time[i])
        return out

    def solve_totals(self) -> dict[int, float]:
        return {s.solve_id: s.end - s.start for s in self.spans if s.name == "solve"}

    def span_counts(self) -> dict[int, int]:
        """Per solve id: how many spans it recorded, its solve span included."""
        out: dict[int, int] = {}
        for s in self.spans:
            out[s.solve_id] = out.get(s.solve_id, 0) + 1
        return out

    def rss_after(self, solve_id: int) -> dict[str, float]:
        last = {s.name: s.rss_kb for s in self.spans if s.solve_id == solve_id}
        return {f"rss_mb.after_{layer}": last[span] / 1024 for layer, span in RSS_AFTER.items()}

    def missing_spans(self, solve_id: int) -> list[str]:
        seen = {s.name for s in self.spans if s.solve_id == solve_id}
        expected = ["solve", "formats.parse"] + [name for _, _, name in WRAPPED]
        return [n for n in expected if n not in seen]

    def layer_times(self, solve_ids: list[int]) -> dict[str, float]:
        """Median over the given solves of each layer's self time."""
        per_solve = self.self_times()
        return {
            metric: statistics.median(sum(per_solve[i].get(n, 0.0) for n in names) for i in solve_ids)
            for metric, names in LAYER_TIMES.items()
        }


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one,
    the median of five batches of 20,000 calls, recorded on a throwaway
    tracer."""
    calls = 20_000

    def noop() -> None:
        pass

    wrapped = Tracer()._wrap(noop, "noop")
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def work_counts(program, result) -> dict[str, float]:
    """Work done by each layer on one solve, read from its outputs."""
    ttd = result.ttd
    nice = ttd.td
    tables = [ttd.table(t) for t in ttd.post_order]
    rows_by_kind = {INTRODUCE: 0, REMOVE: 0, JOIN: 0}
    for t in ttd.post_order:
        kind = nice.nodes[t].kind
        if kind in rows_by_kind:
            rows_by_kind[kind] += len(ttd.table(t))
    rows = sum(len(tab) for tab in tables)
    kept = sum(len(r) for r in result.purged.rows)

    # buckets of the projection pass: purged rows grouped by their
    # interpretation restricted to the projection atoms
    sizes = [
        len(b)
        for node_rows in result.purged.rows
        for b in proj.buckets([ttd.alg.interp(r) for r in node_rows], program.projection)
    ]

    return {
        "formats.rules": len(program.rules),
        "decomposition.width": nice.width,
        "decomposition.nodes": len(nice.nodes),
        "decomposition.nodes.join": sum(1 for nd in nice.nodes if nd.kind == JOIN),
        "engine.rows": rows,
        "engine.max_rows": max(len(tab) for tab in tables),
        "engine.rows.int": rows_by_kind[INTRODUCE],
        "engine.rows.rem": rows_by_kind[REMOVE],
        "engine.rows.join": rows_by_kind[JOIN],
        "engine.origin_links": sum(len(seqs) for tab in tables for seqs in tab.origins),
        "engine.kept_rows": kept,
        "engine.kept_ratio": kept / rows,
        "proj.entries": sum((1 << b) - 1 for b in sizes),
        "proj.max_bucket": max(sizes, default=0),
        "proj.buckets": len(sizes),
    }

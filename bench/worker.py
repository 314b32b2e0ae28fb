"""One workload's closed loop, run in a process of its own.

Usage: python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1>

One client, one thread, one solve at a time: the next solve starts only after
the previous one returned.  A solve is program text -> formats.parse_program
-> pipeline.solve -> .count, the library path the CLI wraps.  Every count is
compared with the workload's closed form.  The last stdout line is a JSON
object for bench/run.py.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import paspc  # noqa: E402
from paspc import formats, pipeline  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, workload_text  # noqa: E402

SOLVE_LIMIT_S = 30  # wall-time limit of one solve
MEMORY_LIMIT = 3 << 30  # address-space cap, so a blow-up raises MemoryError
PROBE_REF_S = 0.1  # probe seconds that define the reference speed
PROBE_REPEATS = 3  # one 0.1 s task samples the host's speed too briefly for a 4 s solve


class SolveTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise SolveTimeout("solve exceeded its time limit")


def install_limits() -> None:
    """Cap this process's address space and arm the solve time limit."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    signal.signal(signal.SIGALRM, _on_alarm)


class Loop:
    """Runs solves one at a time and tallies how they ended."""

    def __init__(self, text: str, expected: int, td_seed: int):
        self.text = text
        self.expected = expected
        self.td_seed = td_seed
        self.attempted = 0
        self.failed = 0
        self.wrong: list[int] = []

    def solve(self, tracer: spans.Tracer | None = None) -> tuple[float, dict | None]:
        """One solve under the wall-time limit: its seconds, and its work
        counts when traced and successful.  A solve that raises, times out
        or miscounts is tallied as failed; its seconds still count."""
        self.attempted += 1
        gc.collect()
        failure = None
        signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
        t0 = time.perf_counter()
        try:
            # the result is released after the timer stops, on return
            if tracer is None:
                program = formats.parse_program(self.text)
                result = pipeline.solve(program, seed=self.td_seed)
                count = result.count
            else:
                with tracer.span("solve"):
                    with tracer.span("formats.parse"):
                        program = formats.parse_program(self.text)
                    result = pipeline.solve(program, seed=self.td_seed)
                    count = result.count
            signal.setitimer(signal.ITIMER_REAL, 0)  # inside the try: a late alarm counts as a timeout
        except (SolveTimeout, MemoryError) as exc:
            where = [f for f in traceback.extract_tb(exc.__traceback__) if f.name != "_on_alarm"][-1]
            failure = f"{exc!r} in {where.name} ({Path(where.filename).name}:{where.lineno})"
        except Exception:
            failure = traceback.format_exc()
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is None and count != self.expected:
            failure = f"count {count} != closed form {self.expected}"
            self.wrong.append(count)
        if failure is not None:
            print(f"solve {self.attempted} failed: {failure}", file=sys.stderr)
            self.failed += 1
            return seconds, None
        return seconds, spans.work_counts(program, result) if tracer is not None else None


def probe_process() -> subprocess.Popen:
    """The host-speed probe (bench/probe.py), waiting for requests."""
    cmd = [sys.executable, str(BENCH / "probe.py"), str(PROBE_REPEATS)]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def probe_seconds(probe: subprocess.Popen) -> float:
    """Mean seconds of one run of the probe task, timed now."""
    probe.stdin.write("\n")
    probe.stdin.flush()
    return float(probe.stdout.readline())


IMPORT_TIMER = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import paspc; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Seconds to import paspc in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")], capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise SystemExit(f"import paspc failed:\n{out.stderr}")
    return float(out.stdout)


def untraced(loop: Loop, seconds: float, probe: subprocess.Popen) -> dict:
    """End-to-end metrics in reference-speed seconds.

    A probe runs before the first solve and after every solve, each probe
    followed by two fresh-interpreter imports of paspc.  A solve's seconds
    are scaled by PROBE_REF_S over the mean of the two probes around it, an
    import's by PROBE_REF_S over the probe before it; solve_s and setup_s are
    the medians of the scaled values.  This cancels most of the host's speed
    changes, which a change to paspc cannot cause: it moves the solves and
    imports, not the probe.
    """
    loop.solve()  # warm-up, untimed; the worker's own import has filled __pycache__
    walls: list[float] = []
    probes: list[float] = []
    imports: list[float] = []

    def probe_then_import() -> None:
        probes.append(probe_seconds(probe))
        imports.extend(import_seconds() for _ in range(2))

    probe_then_import()
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        walls.append(loop.solve()[0])
        probe_then_import()
    return {
        "solve_s": statistics.median(
            w * PROBE_REF_S * 2 / (a + b) for w, a, b in zip(walls, probes, probes[1:])
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - loop.failed / loop.attempted,
        "setup_s": statistics.median(s * PROBE_REF_S / probes[i // 2] for i, s in enumerate(imports)),
        "samples": {"wall.solve_s": walls, "probe_s": probes, "wall.setup_s": imports},
    }


def traced(loop: Loop, seconds: float, probe: subprocess.Popen) -> dict:
    """Alternates traced and untraced solves, with a probe between each
    pair, so the raw seconds of untraced solves and the host's speed are
    read under the same conditions as the spans.  The tracing overhead is
    the measured cost of one span times the spans of a traced solve: a
    difference of two solve timings would be dominated by the host's noise,
    which is far larger than the few microseconds ten spans cost."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, first = loop.solve(tracer)  # warm-up, traced: its ru_maxrss readings are a fresh process's
        if first is None:
            raise SystemExit("traced warm-up solve failed")
        missing = tracer.missing_spans(0)
        if missing:
            raise SystemExit(f"layer functions not reached through their wrappers: {missing}")
        rss = tracer.rss_after(0)
        ok_ids, plain, probes = [], [], []
        t_end = time.perf_counter() + seconds
        while True:
            _, counts = loop.solve(tracer)
            if counts is not None:
                ok_ids.append(tracer.solve_id)
                for name, value in counts.items():
                    if value != first[name]:
                        print(f"count {name} differs between solves: {value} != {first[name]}", file=sys.stderr)
            tracer.uninstall()
            probes.append(probe_seconds(probe))
            plain.append(loop.solve()[0])
            tracer.install()
            if time.perf_counter() >= t_end:
                break
    finally:
        tracer.uninstall()
    if not ok_ids:
        raise SystemExit("no traced solve succeeded")
    totals = tracer.solve_totals()
    traced_s = statistics.median(totals[i] for i in ok_ids)
    spans_per_solve = statistics.median(tracer.span_counts()[i] for i in ok_ids)
    return {
        **tracer.layer_times(ok_ids),
        **first,
        **rss,
        "wall.solve_s": statistics.median(plain),
        "probe_s": statistics.median(probes),
        "trace.solve_s": traced_s,
        "trace.overhead_s": spans_per_solve * spans.span_cost(),
        "samples": {"trace.solve_s": [totals[i] for i in ok_ids], "wall.solve_s": plain, "probe_s": probes},
    }


def main(argv: list[str]) -> None:
    name, seed, seconds, trace = argv
    if not Path(paspc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"paspc imported from {paspc.__file__}, not from {ROOT / 'src'}")
    install_limits()
    w = WORKLOADS[name]
    loop = Loop(workload_text(w, int(seed)), w.expected(), w.td_seed)
    # the probe must time the CPU the solves run on; the child inherits this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with probe_process() as probe:
        metrics = (traced if trace == "1" else untraced)(loop, float(seconds), probe)
    samples = metrics.pop("samples")
    print(
        json.dumps(
            {
                "correct": not loop.wrong,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
                "samples": samples,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])

"""Steadiness report: run the benchmark once per seed and summarise each metric.

    python3 bench/steadiness.py [--trace 0|1]

Runs every workload, one at a time, with seeds 1..10, from the root of a
checkout.  For
every metric it prints the median, the first and third quartiles
(statistics.quantiles(n=4)) and their distance as a share of the median.
Metrics with a bound are flagged when that spread reaches a third of their
bound ("!") or the bound itself ("!!").  Count-type metrics of a traced run
must repeat exactly; any that do not are listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, SEEDS + 1):
            result = run_once(spec, name, seed, args.trace)
            runs.append(result)
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        print(f"\n{name}: {SEEDS} runs, trace={args.trace}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            flag = ""
            if "bound" in m:
                flag = "!!" if share > m["bound"] else "!" if share >= m["bound"] / 3 else ""
            print(f"  {m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:7.1%} {flag}")
        unsteady = [
            m["name"]
            for m in metrics
            if m["unit"] == "count" and len({r["metrics"][m["name"]]["value"] for r in runs}) > 1
        ]
        if args.trace:
            print(f"  count metrics that differ between runs: {unsteady or 'none'}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

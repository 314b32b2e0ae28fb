"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a child process
(bench/worker.py) of its own, so its peak RSS is its own.  With --trace 0 the
last stdout line carries the end-to-end metrics named in BENCHMARK.json, with
--trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CHILD_LIMIT_S = 160  # the worker's own per-solve limit keeps it well below this


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"worker did not finish within {CHILD_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "paspc" / "__init__.py").is_file():
        raise SystemExit(f"no paspc sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    result = run_worker(args.workload, args.seed, args.seconds, args.trace)
    values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"worker reported no value for {missing}")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['failed']}/{result['attempted']} solves failed",
        file=sys.stderr,
    )
    for name, series in result["samples"].items():
        print(f"  {name}: " + " ".join(f"{s:.3f}" for s in series), file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()

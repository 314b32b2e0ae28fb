"""Reproduce the known cliffs the benchmark workloads stop short of.

    python3 bench/cliffs.py

Each case is solved once under the worker's time and memory limits and
reported as solved, or failed with the reason.  These are defects left for
later changes; the numbers seen so far are in bench/README.md.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
from paspc import engine, formats, pipeline  # noqa: E402
from paspc.decomposition import decompose, make_nice, primal_graph  # noqa: E402
from workloads import WORKLOADS, chain_k, chain_k_blocks, closed_form  # noqa: E402


def reordered_buckets(seed: int | None) -> str:
    """The buckets instance with its rules shuffled inside each block, or
    with each block's choice rules moved first when ``seed`` is None."""
    w = WORKLOADS["buckets"]
    rng = random.Random(seed)
    lines = []
    for rules in chain_k_blocks(w.blocks, w.k, w.variant):
        if seed is None:
            rules.sort(key=lambda r: "not" not in r)
        else:
            rng.shuffle(rules)
        lines.extend(rules)
    lines.append("#project " + ", ".join(f"p{i}" for i in range(w.blocks)) + ".")
    return "\n".join(lines) + "\n"


def pre_proj_counts(text: str) -> dict:
    """Work counts of every pass before the projection pass, which is where
    these cliffs spend their time."""
    program = formats.parse_program(text)
    nice = make_nice(decompose(primal_graph(program)))
    ttd = engine.run_dp(pipeline.pick_algorithm(program), program, nice)
    counts = spans.work_counts(program, SimpleNamespace(ttd=ttd, purged=engine.purge(ttd)))
    keep = ("decomposition.width", "engine.rows", "engine.max_rows", "proj.max_bucket", "proj.entries")
    return {k: counts[k] for k in keep}


def cases():
    yield "tight B=6 k=6, all atoms", chain_k(6, 6, "tight"), closed_form(6, 6, False)
    yield "hcf B=4 k=3, all atoms", chain_k(4, 3, "hcf"), closed_form(4, 3, False)
    w = WORKLOADS["buckets"]
    yield "buckets, choice rules first in each block", reordered_buckets(None), w.expected()
    for seed in range(1, 4):
        yield f"buckets, rules shuffled in blocks (shuffle seed {seed})", reordered_buckets(seed), w.expected()


def main() -> None:
    worker.install_limits()
    for name, text, expected in cases():
        try:
            counts = pre_proj_counts(text)
        except MemoryError:
            counts = "MemoryError before the projection pass"
        loop = worker.Loop(text, expected, td_seed=0)
        seconds, _ = loop.solve()
        outcome = "failed" if loop.failed else "solved"
        print(f"{name}: {outcome} after {seconds:.1f} s; {counts}", flush=True)


if __name__ == "__main__":
    main()

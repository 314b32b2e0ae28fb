"""Host-speed probe, run as a child process of bench/worker.py.

    python3 bench/probe.py <repeats>

For every line read from stdin it runs a fixed pure-Python task <repeats>
times and prints the mean seconds of one run.  The task never touches paspc:
it allocates, hashes and sorts about 120k small tuples and frozensets, the
kind of work the solver does, so the host's speed changes slow it about as
much as they slow a solve.  It runs in a process of its own so that its
~60 MB heap never counts toward the worker's peak RSS, and with the
collector off.
"""

from __future__ import annotations

import gc
import sys
import time


def task() -> None:
    rows = [(i & 1023, i >> 3, frozenset((i % 97, i % 89))) for i in range(120_000)]
    index = {row: j for j, row in enumerate(rows)}
    rows.sort(key=lambda row: (row[1], row[0]))
    sum(index[row] for row in rows[::3])


def main(repeats: int) -> None:
    gc.disable()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(repeats):
            task()
        print((time.perf_counter() - t0) / repeats, flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]))

"""Command-line interface.

Exit codes: 0 success, 2 parse error or invalid option value, 3 invalid or
ill-matched decomposition file, 4 algorithm/class mismatch, 5 oracle-check
mismatch, 6 an --emit-td or --trace path cannot be written, 7 --oracle-check
on a program too large for the oracle.  The count is the final stdout line,
formatted ``c <count>``; --stats emits JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from functools import partial

from . import formats, oracle
from .decomposition import primal_graph, validate_td
from .pipeline import ALGORITHMS, AlgorithmMismatchError, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TD = 3
EXIT_ALGORITHM = 4
EXIT_ORACLE = 5
EXIT_WRITE = 6
EXIT_ORACLE_SIZE = 7


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paspc", description="Projected answer-set counter")
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("solve", help="count projected answer sets of a ground program")
    s.add_argument("file", help="program file")
    proj_group = s.add_mutually_exclusive_group()
    proj_group.add_argument("--project", help="comma-separated projection atoms (overrides #project)")
    proj_group.add_argument("--project-all", action="store_true", help="project onto all atoms")
    proj_group.add_argument("--project-none", action="store_true", help="empty projection (consistency as count)")
    s.add_argument("--algorithm", default="auto", choices=ALGORITHMS)
    s.add_argument("--td", default="min-fill", help="min-fill | min-degree | file:<path>")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--stats", action="store_true", help="print JSON run statistics to stderr")
    s.add_argument("--emit-td", metavar="PATH", help="write the decomposition used, PACE format")
    s.add_argument("--trace", metavar="DIR", help="dump per-node tables into a directory")
    s.add_argument("--oracle-check", action="store_true", help="cross-check against brute force")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    t0 = time.perf_counter()
    try:
        program = formats.parse_program(text)
    except formats.ParseError as exc:
        print(f"parse error: {exc.diagnostic}", file=sys.stderr)
        return EXIT_PARSE
    parse_s = time.perf_counter() - t0

    if args.project_all:
        program = program.with_projection(program.atom_mask)
    elif args.project_none:
        program = program.with_projection(0)
    elif args.project is not None:
        names = [n.strip() for n in args.project.split(",") if n.strip()]
        try:
            program = program.with_projection(program.mask(names))
        except KeyError as exc:
            print(f"parse error: projection atom {exc.args[0]!r} does not occur in the program", file=sys.stderr)
            return EXIT_PARSE

    td = None
    heuristic = args.td
    if args.td.startswith("file:"):
        path = args.td[len("file:") :]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                td_text = fh.read()
        except OSError as exc:
            print(f"error: cannot read decomposition {path}: {exc}", file=sys.stderr)
            return EXIT_TD
        try:
            td = formats.read_td(td_text, program.n_atoms)
        except formats.ParseError as exc:
            print(f"invalid decomposition: {exc.diagnostic}", file=sys.stderr)
            return EXIT_TD
        problems = validate_td(primal_graph(program), td)
        if problems:
            print("invalid decomposition: " + "; ".join(problems), file=sys.stderr)
            return EXIT_TD
        heuristic = "min-fill"
    elif args.td not in ("min-fill", "min-degree"):
        print(f"error: unknown --td value {args.td!r}", file=sys.stderr)
        return EXIT_TD

    try:
        result = solve(program, algorithm=args.algorithm, heuristic=heuristic, seed=args.seed, td=td)
    except AlgorithmMismatchError as exc:
        print(f"algorithm mismatch: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM

    try:
        if args.emit_td:
            target = args.emit_td
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(formats.write_td(result.td))
        if args.trace:
            target = args.trace
            _dump_trace(result, target)
    except OSError as exc:
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_WRITE

    if args.stats:
        # cost drivers read off the finished solve: the projection pass is
        # exponential in the largest bucket
        stats = result.stats.to_dict()
        stats["timings"] = {"parse": round(parse_s, 6), **stats["timings"]}
        sizes = [len(b) for node in result.proj_tables.nodes for b in node.buckets]
        stats["max_bucket"] = max(sizes, default=0)
        stats["proj_buckets"] = len(sizes)
        stats["proj_entries"] = sum((1 << b) - 1 for b in sizes)
        stats["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        print(json.dumps(stats), file=sys.stderr)

    code = EXIT_OK
    if args.oracle_check:
        try:
            expected = oracle.projected_count(program)
        except oracle.OracleSizeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ORACLE_SIZE
        if expected != result.count:
            print(f"oracle-check mismatch: dp={result.count} oracle={expected}", file=sys.stderr)
            code = EXIT_ORACLE

    print(f"c {result.count}")
    return code


def _dump_trace(result, directory: str) -> None:
    from . import engine

    os.makedirs(directory, exist_ok=True)
    ttd = result.ttd
    with open(os.path.join(directory, "tables.txt"), "w", encoding="utf-8") as fh:
        for t in ttd.post_order:
            fh.write(engine.format_table(ttd, t) + "\n")
    with open(os.path.join(directory, "purged.txt"), "w", encoding="utf-8") as fh:
        for t in ttd.post_order:
            nd = ttd.td.nodes[t]
            names = ",".join(sorted(result.program.names(nd.bag_mask)))
            fh.write(f"node {t} kind={nd.kind} bag={{{names}}} rows={len(result.purged.rows[t])}\n")
            decode = partial(ttd.decode, t)
            origins = result.purged.origins(t)
            for i, row in enumerate(result.purged.rows[t]):
                fh.write(f"  {i}: {ttd.alg.format_row(row, result.program, decode)} origins={origins[i]}\n")
    with open(os.path.join(directory, "proj.txt"), "w", encoding="utf-8") as fh:
        for t in ttd.post_order:
            table = result.proj_tables.tables[t]
            fh.write(f"node {t} entries={len(table)}\n")
            for key in sorted(table, key=sorted):
                fh.write(f"  {sorted(key)}: {table[key]}\n")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

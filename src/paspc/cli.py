"""Command-line interface.

Exit codes: 0 success, 2 parse error or invalid option value, 3 invalid or
ill-matched decomposition file, 4 algorithm/class mismatch, 5 oracle-check
mismatch, 6 an --emit-td or --trace path cannot be written, 7 --oracle-check
on a program too large for the oracle, 8 out of memory while solving.  The
count is the final stdout line, formatted ``c <count>``; --stats emits on
stderr the JSON of ``RunStats.to_dict`` with the parse time and peak RSS.
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
from .engine import PurgedTables, TabledTreeDecomposition
from .phc import PhcRow
from .pipeline import ALGORITHMS, AlgorithmMismatchError, InvalidDecompositionError, solve
from .prim import PrimRow
from .program import iter_bits

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TD = 3
EXIT_ALGORITHM = 4
EXIT_ORACLE = 5
EXIT_WRITE = 6
EXIT_ORACLE_SIZE = 7
EXIT_MEMORY = 8


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
    except (OSError, UnicodeDecodeError) as exc:
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
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read decomposition {path}: {exc}", file=sys.stderr)
            return EXIT_TD
        try:
            td = formats.read_td(td_text, program.n_atoms)
        except formats.ParseError as exc:
            print(f"invalid decomposition: {exc.diagnostic}", file=sys.stderr)
            return EXIT_TD
        heuristic = "min-fill"
    elif args.td not in ("min-fill", "min-degree"):
        print(f"error: unknown --td value {args.td!r}", file=sys.stderr)
        return EXIT_PARSE

    try:
        result = solve(program, algorithm=args.algorithm, heuristic=heuristic, seed=args.seed, td=td)
    except InvalidDecompositionError as exc:
        print(f"invalid decomposition: {exc}", file=sys.stderr)
        return EXIT_TD
    except AlgorithmMismatchError as exc:
        print(f"algorithm mismatch: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY

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
        stats = result.stats.to_dict()
        stats["timings"] = {"parse": round(parse_s, 6), **stats["timings"]}
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
    os.makedirs(directory, exist_ok=True)
    ttd = result.ttd
    with open(os.path.join(directory, "tables.txt"), "w", encoding="utf-8") as fh:
        for t in ttd.post_order:
            fh.write(format_table(ttd, t) + "\n")
    with open(os.path.join(directory, "purged.txt"), "w", encoding="utf-8") as fh:
        for t in ttd.post_order:
            fh.write(format_table(ttd, t, result.purged) + "\n")
    with open(os.path.join(directory, "proj.txt"), "w", encoding="utf-8") as fh:
        for t in ttd.post_order:
            table = result.proj_tables.tables[t]
            fh.write(f"node {t} entries={len(table)}\n")
            for key in sorted(table, key=sorted):
                fh.write(f"  {sorted(key)}: {table[key]}\n")


def format_table(ttd: TabledTreeDecomposition, t: int, purged: PurgedTables | None = None) -> str:
    """Trace dump of node t's table or, given ``purged``, of its kept rows
    with their origins re-indexed to the children's kept rows."""
    nd = ttd.td.nodes[t]
    if purged is None:
        tab = ttd.table(t)
        rows, origins = tab.rows, tab.origins
    else:
        rows, origins = purged.rows[t], purged_origins(purged, t)
    names = ",".join(sorted(ttd.program.atom_names[a] for a in nd.bag))
    lines = [f"node {t} kind={nd.kind} bag={{{names}}} rows={len(rows)}"]
    for i, row in enumerate(rows):
        lines.append(f"  {i}: {_format_row(row, ttd, t)} origins={origins[i]}")
    return "\n".join(lines)


def _format_row(row: PhcRow | PrimRow, ttd: TabledTreeDecomposition, t: int) -> str:
    """A row of node t with atom names for slots.  A ``phc`` ordering lists
    its atoms by (component id, rank); a ``prim`` row lists its counter
    subsets sorted by decoded atom mask."""
    program = ttd.program
    decode = partial(ttd.decode, t)
    if isinstance(row, PhcRow):
        i = ",".join(program.names(decode(row.interp)))
        p = ",".join(program.names(decode(row.proven)))
        atom_at = {ttd.slots[a]: a for a in ttd.td.nodes[t].bag}
        comp = ttd.alg.components  # type: ignore[attr-defined]
        ordered = sorted((comp[atom_at[s]], r, atom_at[s]) for s, r in row.order)
        s = ",".join(program.atom_names[a] for _, _, a in ordered)
        return f"I={{{i}}} P={{{p}}} s=<{s}>"
    # the bitset form keeps counters as subset bits, the sparse form as masks
    counters = iter_bits(row.counters) if isinstance(row.counters, int) else row.counters
    m = ",".join(program.names(decode(row.witness)))
    cs = " ".join("{" + ",".join(program.names(n)) + "}" for n in sorted(map(decode, counters)))
    return f"M={{{m}}} C=[{cs}]"


def purged_origins(purged: PurgedTables, t: int) -> list[list[tuple[int, ...]]]:
    """Per kept row of node t, its origins re-indexed to the children's kept
    rows.  Re-indexing keeps the order of the ascending kept indices, so the
    lists stay ascending."""
    origins = purged.ttd.table(t).origins  # decodes the whole table: read once
    new_index = [{j: i for i, j in enumerate(purged.kept[c])} for c in purged.ttd.td.nodes[t].children]
    return [[tuple(new_index[i][x] for i, x in enumerate(seq)) for seq in origins[j]] for j in purged.kept[t]]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

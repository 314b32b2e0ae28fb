import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import paspc
from paspc import cli, parse_program, solve
from reference import bucket_members

EX1 = helpers.EXAMPLE1_TEXT
TRACES = Path(__file__).resolve().parent / "data" / "traces"
README = Path(__file__).resolve().parents[1] / "README.md"


def fib_program(blocks: int, k: int) -> str:
    """A tight program with F(blocks + 1)^k projected answer sets: per column
    j, guessed x_i_j, p_i_j :- x_i_j, not x_(i-1)_j. onto which it projects,
    and per block i >= 1 one rule over both blocks' x atoms, which puts them
    into one bag and makes its projection buckets large."""
    lines = []
    for i in range(blocks):
        for j in range(k):
            lines += [f"x_{i}_{j} :- not y_{i}_{j}.", f"y_{i}_{j} :- not x_{i}_{j}."]
            if i:
                lines.append(f"p_{i}_{j} :- x_{i}_{j}, not x_{i - 1}_{j}.")
        if i:
            lines.append(f"w_{i} :- " + ", ".join(f"x_{b}_{j}" for b in (i, i - 1) for j in range(k)) + ".")
    lines.append("#project " + ", ".join(f"p_{i}_{j}" for i in range(1, blocks) for j in range(k)) + ".")
    return "\n".join(lines) + "\n"


def limit_address_space(limit: int = 2 << 30) -> None:
    """Cap the calling process's address space, as the benchmark worker does."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "example1.lp"
    path.write_text(EX1)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_project_list(self, ex1_file, capsys):
        code, out, _ = run(capsys, "solve", ex1_file, "--project", "d,e")
        assert code == 0
        assert out.splitlines()[-1] == "c 3"

    def test_project_all(self, ex1_file, capsys):
        code, out, _ = run(capsys, "solve", ex1_file, "--project-all")
        assert (code, out.splitlines()[-1]) == (0, "c 4")

    def test_project_none(self, ex1_file, capsys):
        code, out, _ = run(capsys, "solve", ex1_file, "--project-none")
        assert (code, out.splitlines()[-1]) == (0, "c 1")

    def test_file_directive_is_default(self, ex1_file, capsys):
        code, out, _ = run(capsys, "solve", ex1_file)
        assert (code, out.splitlines()[-1]) == (0, "c 3")

    def test_deterministic_output(self, ex1_file, capsys):
        first = run(capsys, "solve", ex1_file, "--project-all", "--seed", "3")
        second = run(capsys, "solve", ex1_file, "--project-all", "--seed", "3")
        assert first == second

    def test_seed_changes_nothing_semantic(self, ex1_file, capsys):
        for seed in ("0", "1", "9"):
            code, out, _ = run(capsys, "solve", ex1_file, "--seed", seed)
            assert (code, out.splitlines()[-1]) == (0, "c 3")

    def test_min_degree_heuristic(self, ex1_file, capsys):
        code, out, _ = run(capsys, "solve", ex1_file, "--td", "min-degree")
        assert (code, out.splitlines()[-1]) == (0, "c 3")

    def test_explicit_algorithms(self, ex1_file, capsys):
        for alg in ("auto", "phc", "prim"):
            code, out, _ = run(capsys, "solve", ex1_file, "--algorithm", alg)
            assert (code, out.splitlines()[-1]) == (0, "c 3")

    def test_wide_head_cycle_free_program(self, tmp_path, capsys):
        path = tmp_path / "wide.lp"
        path.write_text(helpers.WIDE_HCF_TEXT)
        for projection in ("--project-none", "--project-all"):
            code, out, _ = run(capsys, "solve", str(path), projection, "--oracle-check")
            assert (code, out.splitlines()[-1]) == (0, "c 1")

    def test_fib_family_counts_its_closed_form(self, tmp_path, capsys):
        # F(3)^2 = 4 and F(4)^2 = 9; fib(2, 3) below is the same family
        for blocks, want in ((2, 4), (3, 9)):
            path = tmp_path / f"fib{blocks}.lp"
            path.write_text(fib_program(blocks, 2))
            code, out, _ = run(capsys, "solve", str(path), "--oracle-check")
            assert (code, out.splitlines()[-1]) == (0, f"c {want}")


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.lp"
        path.write_text("a &.")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "parse error" in err

    def test_parse_diagnostic_on_stderr(self, tmp_path, capsys):
        # the unknown character is reported before the earlier syntax error,
        # and the one in the comment is ignored
        path = tmp_path / "bad.lp"
        path.write_text("a :- b,, c.\n% é\nd :- é.\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err) == (2, "", "parse error: line 3, column 6: unknown token 'é'\n")

    def test_unknown_projection_atom(self, ex1_file, capsys):
        code, _, err = run(capsys, "solve", ex1_file, "--project", "zz")
        assert code == 2
        assert "zz" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/x.lp")
        assert code == 2

    def test_invalid_td_file(self, ex1_file, tmp_path, capsys):
        td = tmp_path / "bad.td"
        td.write_text("s td 1 1 5\nb 1 1\n")
        code, _, err = run(capsys, "solve", ex1_file, "--td", f"file:{td}")
        assert code == 3
        assert "invalid decomposition" in err

    def test_unreadable_td_file(self, ex1_file, tmp_path, capsys):
        code, _, err = run(capsys, "solve", ex1_file, "--td", f"file:{tmp_path / 'missing.td'}")
        assert code == 3
        assert "cannot read decomposition" in err

    def test_td_header_declaring_too_many_bags(self, ex1_file, tmp_path, capsys):
        td = tmp_path / "huge.td"
        td.write_text("s td 1000000000000 5 5\nb 1 1 2 3 4 5\n")
        code, _, err = run(capsys, "solve", ex1_file, "--td", f"file:{td}")
        assert code == 3
        assert "invalid decomposition: line 1, column 1: header declares 1000000000000 bags" in err

    def test_non_utf8_program(self, tmp_path, capsys):
        path = tmp_path / "latin1.lp"
        path.write_bytes(b"a :- not b.\nb :- not \xe4.\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert f"cannot read {path}" in err

    def test_non_utf8_td_file(self, ex1_file, tmp_path, capsys):
        td = tmp_path / "latin1.td"
        td.write_bytes(b"c \xe4\ns td 1 5 5\nb 1 1 2 3 4 5\n")
        code, _, err = run(capsys, "solve", ex1_file, "--td", f"file:{td}")
        assert code == 3
        assert f"cannot read decomposition {td}" in err

    def test_unknown_td_value(self, ex1_file, capsys):
        # an invalid option value exits 2, as argparse's own rejections do
        code, _, err = run(capsys, "solve", ex1_file, "--td", "bogus")
        assert code == 2
        assert "unknown --td value 'bogus'" in err

    @pytest.mark.parametrize("text, line, column, message", helpers.TD_DIAGNOSTICS)
    def test_td_file_diagnostic(self, text, line, column, message, ex1_file, tmp_path, capsys):
        td = tmp_path / "bad.td"
        td.write_text(text)
        code, out, err = run(capsys, "solve", ex1_file, "--td", f"file:{td}")
        assert (code, out, err) == (3, "", f"invalid decomposition: line {line}, column {column}: {message}\n")

    def test_td_file_without_bags(self, ex1_file, tmp_path, capsys):
        # the header's bag count passes read_td; validate_td rejects it
        td = tmp_path / "empty.td"
        td.write_text("s td 0 0 5\n")
        code, out, err = run(capsys, "solve", ex1_file, "--td", f"file:{td}")
        assert (code, out, err) == (3, "", "invalid decomposition: decomposition has no nodes\n")

    def test_disconnected_td_file(self, ex1_file, tmp_path, capsys):
        td = tmp_path / "forest.td"
        td.write_text("s td 2 5 5\nb 1 1 2 3 4 5\nb 2\n")
        code, _, err = run(capsys, "solve", ex1_file, "--td", f"file:{td}")
        assert code == 3
        assert "bag tree is disconnected" in err

    def test_unknown_algorithm(self, ex1_file, capsys):
        # argparse rejects an invalid choice with exit code 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", ex1_file, "--algorithm", "phc-tight"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_phc_on_disjunctive_mismatch(self, tmp_path, capsys):
        path = tmp_path / "disj.lp"
        path.write_text("a | b.\na :- b.\nb :- a.\n")
        code, _, err = run(capsys, "solve", str(path), "--algorithm", "phc")
        assert code == 4
        assert "mismatch" in err

    def test_oracle_check_pass(self, ex1_file, capsys):
        code, out, _ = run(capsys, "solve", ex1_file, "--oracle-check")
        assert (code, out.splitlines()[-1]) == (0, "c 3")

    def test_oracle_check_mismatch(self, ex1_file, capsys, monkeypatch):
        from paspc import cli as cli_module

        monkeypatch.setattr(cli_module.oracle, "projected_count", lambda p: 99)
        code, out, err = run(capsys, "solve", ex1_file)
        assert code == 0  # without the flag the stub is not consulted
        code, out, err = run(capsys, "solve", ex1_file, "--oracle-check")
        assert code == 5
        assert "dp=3" in err and "oracle=99" in err
        assert out.splitlines()[-1] == "c 3"


    def test_unwritable_emit_td(self, ex1_file, tmp_path, capsys):
        target = str(tmp_path / "missing" / "out.td")
        code, _, err = run(capsys, "solve", ex1_file, "--emit-td", target)
        assert code == 6
        assert f"cannot write {target}" in err

    def test_unwritable_trace(self, ex1_file, tmp_path, capsys):
        target = tmp_path / "a-file"
        target.write_text("")
        code, _, err = run(capsys, "solve", ex1_file, "--trace", str(target))
        assert code == 6
        assert f"cannot write {target}" in err

    def test_oracle_check_too_large(self, tmp_path, capsys):
        path = tmp_path / "wide.lp"
        path.write_text("".join(f"a{i}.\n" for i in range(25)))
        code, out, err = run(capsys, "solve", str(path), "--project-none", "--oracle-check")
        assert code == 7
        assert "25 atoms" in err

    def test_bucket_too_large_for_memory(self, tmp_path):
        # fib(2, 3): 16 atoms and 8 projected answer sets, but projection
        # buckets of 32 rows and more, whose count arrays fail to allocate
        # at once under a 2 GiB address space
        path = tmp_path / "fib.lp"
        path.write_text(fib_program(2, 3))
        src = os.path.dirname(os.path.dirname(paspc.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "paspc", "solve", str(path)],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=limit_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (8, "")
        pattern = r"error: out of memory: node \d+ \((int|rem|join)\): bucket of (\d+) rows, (\d+) entries\n"
        m = re.fullmatch(pattern, proc.stderr)
        assert m, proc.stderr
        rows, entries = int(m[2]), int(m[3])
        assert rows >= 32 and entries == 2**rows - 1

    @pytest.mark.parametrize(
        "doc",
        (cli.__doc__, README.read_text(encoding="utf-8")),
        ids=("cli-docstring", "readme"),
    )
    def test_documented_codes_are_the_constants(self, doc):
        # each code opens its item of the "Exit codes:" paragraph, after the
        # colon or after a comma
        paragraph = doc.split("Exit codes:")[1].split("\n\n")[0]
        listed = [int(c) for c in re.findall(r"(?:^|,)\s(\d+)\s", paragraph)]
        constants = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
        assert listed == constants


class TestSideOutputs:
    def test_stats_json(self, ex1_file, capsys):
        code, out, err = run(capsys, "solve", ex1_file, "--stats")
        assert code == 0
        stats = json.loads(err.splitlines()[-1])
        assert stats["width"] == 2
        assert stats["algorithm"] == "phc"
        assert stats["max_purged"] <= stats["max_table"]
        assert list(stats["timings"]) == ["parse", "classify", "decompose", "make_nice", "dp", "purge", "proj"]
        assert set(stats) == {
            "width", "nodes", "max_table", "max_purged", "algorithm", "rows", "origin_links", "distinct_rows",
            "built_tables", "proj_plans", "dp_seconds", "timings", "max_bucket", "proj_buckets", "proj_entries",
            "peak_rss_mb",
        }
        # the dp pass's seconds per node kind, within its total
        assert list(stats["dp_seconds"]) == ["leaf", "int", "rem", "join"]
        assert all(s >= 0 for s in stats["dp_seconds"].values())
        assert sum(stats["dp_seconds"].values()) <= stats["timings"]["dp"]
        # the same solve's buckets, and its projection entries as the trace lists them
        result = solve(parse_program(EX1))
        # rows before purging per node kind, as the bench counts engine.rows.<kind>
        ttd = result.ttd
        want = {kind: 0 for kind in ("leaf", "int", "rem", "join")}
        for t in ttd.post_order:
            want[ttd.td.nodes[t].kind] += len(ttd.table(t))
        assert stats["rows"] == want
        assert want["leaf"] >= 1 and want["int"] > 0
        # the origins the tables hold, as the bench counts engine.origin_links
        links = sum(len(seqs) for t in ttd.post_order for seqs in ttd.table(t).origins)
        assert stats["origin_links"] == links > sum(want.values())
        members = [bucket_members(node, kept) for node, kept in zip(result.proj_tables.nodes, result.purged.kept)]
        sizes = [len(b) for node in members for b in node]
        assert stats["max_bucket"] == max(sizes) >= 1
        assert stats["proj_buckets"] == sum(map(len, members)) >= 1
        assert stats["proj_entries"] == sum(len(t) for t in result.proj_tables.tables)
        assert stats["peak_rss_mb"] > 0

    def test_readme_lists_the_stats_keys(self, ex1_file, capsys):
        # the key column of README's --stats table, in order, is what --stats prints
        table = README.read_text(encoding="utf-8").split("`--stats` object")[1].split("\n\n")[1]
        keys = re.findall(r"^\| `(\w+)` \|", table, re.M)
        code, _, err = run(capsys, "solve", ex1_file, "--stats")
        assert code == 0
        assert keys == list(json.loads(err.splitlines()[-1]))

    def test_emit_and_reuse_td(self, ex1_file, tmp_path, capsys):
        td_path = str(tmp_path / "out.td")
        code, out, _ = run(capsys, "solve", ex1_file, "--emit-td", td_path)
        assert code == 0
        assert os.path.exists(td_path)
        code, out, _ = run(capsys, "solve", ex1_file, "--td", f"file:{td_path}")
        assert (code, out.splitlines()[-1]) == (0, "c 3")

    def test_trace_dump(self, ex1_file, tmp_path, capsys):
        trace = tmp_path / "trace"
        code, _, _ = run(capsys, "solve", ex1_file, "--trace", str(trace))
        assert code == 0
        names = {p.name for p in trace.iterdir()}
        assert names == {"tables.txt", "purged.txt", "proj.txt"}
        body = (trace / "tables.txt").read_text()
        assert "kind=leaf" in body and "I=" in body

    @pytest.mark.parametrize(
        "text",
        (
            helpers.WIDE_HCF_TEXT,  # phc, with the positive cycle x3 <-> x6
            helpers.HEAD_CYCLE_TEXT,  # prim
        ),
    )
    def test_trace_independent_of_hash_seed(self, text, tmp_path):
        # tables keep their emission order, which hashes only ints, tuples
        # and frozensets of ints; string hashing must not leak into it
        path = tmp_path / "p.lp"
        path.write_text(text)
        src = os.path.dirname(os.path.dirname(paspc.__file__))
        dumps = []
        for hash_seed in ("0", "12345"):
            trace = tmp_path / f"trace-{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            argv = [sys.executable, "-m", "paspc", "solve", str(path), "--project-all", "--trace", str(trace)]
            subprocess.run(argv, env=env, check=True, capture_output=True)
            dumps.append({name: (trace / name).read_bytes() for name in ("tables.txt", "purged.txt", "proj.txt")})
        assert dumps[0] == dumps[1]


class TestGoldenTraces:
    """The --trace dumps of three programs, byte for byte as committed under
    tests/data/traces: rows print decoded to atom names, counter sets sorted
    by their atom masks, origins and projection entries in table order."""

    CASES = {
        "example1": (helpers.EXAMPLE1_TEXT, ()),  # phc, #project d, e
        "wide_hcf": (helpers.WIDE_HCF_TEXT, ("--project-all",)),  # phc, positive cycle x3 <-> x6
        "head_cycles": (helpers.HEAD_CYCLE_TEXT, ("--project-all",)),  # prim
    }

    # per program, the origins its tables hold (--stats origin_links)
    ORIGIN_LINKS = {"example1": 50, "wide_hcf": 30, "head_cycles": 79}
    # per program, the distinct rows over all its tables (--stats distinct_rows)
    DISTINCT_ROWS = {"example1": 17, "wide_hcf": 26, "head_cycles": 41}
    # per program, (nodes, tables built): --stats nodes and built_tables
    BUILT_TABLES = {"example1": (15, 13), "wide_hcf": (13, 13), "head_cycles": (17, 17)}
    # per program, (nodes, projection plans built): --stats nodes and proj_plans
    PROJ_PLANS = {"example1": (15, 13), "wide_hcf": (13, 13), "head_cycles": (17, 17)}

    @pytest.mark.parametrize("name", CASES)
    def test_origin_links_count_the_golden_origins(self, name, tmp_path, capsys):
        # one link per origin tuple that the golden tables.txt lists
        text, args = self.CASES[name]
        path = tmp_path / "p.lp"
        path.write_text(text)
        code, _, err = run(capsys, "solve", str(path), *args, "--stats")
        assert code == 0
        golden = (TRACES / name / "tables.txt").read_text(encoding="utf-8")
        listed = sum(line.split(" origins=")[1].count("(") for line in golden.splitlines() if " origins=" in line)
        assert json.loads(err.splitlines()[-1])["origin_links"] == listed == self.ORIGIN_LINKS[name]

    @pytest.mark.parametrize("name", CASES)
    def test_distinct_rows_count_the_set_of_rows(self, name, tmp_path, capsys):
        # the size of run_dp's row pool, as a set of all tables' rows counts
        # it; the projection does not change the tables
        text, args = self.CASES[name]
        path = tmp_path / "p.lp"
        path.write_text(text)
        code, _, err = run(capsys, "solve", str(path), *args, "--stats")
        assert code == 0
        ttd = solve(parse_program(text)).ttd
        rows = {row for tab in ttd.tables for row in tab.rows}
        assert json.loads(err.splitlines()[-1])["distinct_rows"] == len(rows) == self.DISTINCT_ROWS[name]

    @pytest.mark.parametrize("name", CASES)
    def test_built_tables_count_the_table_objects(self, name, tmp_path, capsys):
        # nodes of equal inputs share one table, so the tables built are
        # the distinct table objects
        text, args = self.CASES[name]
        path = tmp_path / "p.lp"
        path.write_text(text)
        code, _, err = run(capsys, "solve", str(path), *args, "--stats")
        assert code == 0
        stats = json.loads(err.splitlines()[-1])
        ttd = solve(parse_program(text)).ttd
        built = len({id(tab) for tab in ttd.tables})
        assert (stats["nodes"], stats["built_tables"]) == (len(ttd.tables), built) == self.BUILT_TABLES[name]

    @pytest.mark.parametrize("name", CASES)
    def test_proj_plans_count_the_bucket_maps(self, name, tmp_path, capsys):
        # nodes of one shape share one plan and its bucket map, so the plans
        # built are the distinct bucket_of objects
        text, args = self.CASES[name]
        path = tmp_path / "p.lp"
        path.write_text(text)
        code, _, err = run(capsys, "solve", str(path), *args, "--stats")
        assert code == 0
        stats = json.loads(err.splitlines()[-1])
        program = parse_program(text)
        if "--project-all" in args:
            program = program.with_projection(program.atom_mask)
        nodes = solve(program).proj_tables.nodes
        plans = len({id(node.bucket_of) for node in nodes})
        assert (stats["nodes"], stats["proj_plans"]) == (len(nodes), plans) == self.PROJ_PLANS[name]

    @pytest.mark.parametrize("name", CASES)
    def test_trace_matches_golden(self, name, tmp_path, capsys):
        text, args = self.CASES[name]
        path = tmp_path / "p.lp"
        path.write_text(text)
        trace = tmp_path / "trace"
        code, _, _ = run(capsys, "solve", str(path), *args, "--trace", str(trace))
        assert code == 0
        for dump in ("tables.txt", "purged.txt", "proj.txt"):
            assert (trace / dump).read_bytes() == (TRACES / name / dump).read_bytes(), dump

import random
import re

import pytest

import helpers
from paspc.decomposition import PrimalGraph, decompose, validate_td
from paspc.formats import ParseError, parse_program, print_program, read_td, write_td
from paspc.program import Program, ProgramKind, classify
from reference import add_edge, reference_parse_program


class TestParseProgram:
    def test_running_example(self, example1):
        assert example1.atom_names == ("a", "b", "c", "e", "d")
        assert len(example1.rules) == 5
        assert example1.projection == example1.mask("de")
        assert classify(example1).kind is ProgramKind.HEAD_CYCLE_FREE

    def test_empty_source(self):
        p = parse_program("")
        assert p.n_atoms == 0 and p.rules == () and p.projection == 0

    def test_default_projection_is_all_atoms(self):
        p = parse_program("a :- not a.")
        assert len(p.rules) == 1
        assert p.projection == p.atom_mask == 1

    def test_comments_and_whitespace(self):
        p = parse_program("% header\n  a |\tb. % trailing\n")
        assert p.atom_names == ("a", "b")

    def test_multiple_project_directives_union(self):
        p = parse_program("#project a.\na | b.\n#project b.")
        assert p.projection == p.atom_mask

    def test_constraint_and_fact(self):
        p = parse_program("a. :- a, not b. b.")
        assert len(p.rules) == 3
        heads = sorted(len(r.head) for r in p.rules)
        assert heads == [0, 1, 1]

    def test_duplicate_rules_deduplicated(self):
        p = parse_program("a :- b. a :- b. b.")
        assert len(p.rules) == 2

    def test_atom_ids_first_occurrence_order(self):
        p = parse_program("q :- r, not s.\nt | q.")
        assert p.atom_names == ("q", "r", "s", "t")

    def test_atom_ids_read_positive_body_before_negative(self):
        # as Program.from_specs interns a (head, pos, neg) triple
        p = parse_program("q :- not s, r, not t.\nu :- not v, w.")
        assert p.atom_names == ("q", "r", "s", "t", "u", "w", "v")
        assert p == Program.from_specs([(("q",), ("r",), ("s", "t")), (("u",), ("w",), ("v",))])


RESERVED = "'not' is reserved and cannot be used as an atom"

# (source, line, column, message) of every kind of parse failure; columns
# count characters, so a tab is one column and a '\r' before '\n' ends a line
DIAGNOSTICS = [
    # an unknown character fails before an earlier syntax error
    ("a :- .\r\n% a comment\n\tb & c.\n", 3, 4, "unknown token '&'"),
    ("a.\nb :- c, not d.\n:- e,\t#projectx.", 3, 7, "unknown token '#'"),
    ("a :- b.\r\n\tc :- é.", 2, 7, "unknown token 'é'"),
    ("a.\r\n% trailing\nb :- c,\t", 3, 9, "expected atom, found end of input"),
    ("a.\n#project", 2, 9, "expected atom, found end of input"),
    ("a :- not", 1, 9, "expected atom, found end of input"),
    ("a :- b.\n  c |\t.\n", 2, 7, "expected atom, found '.'"),
    (":- .", 1, 4, "expected atom, found '.'"),
    ("% c\r\nnot :- a.\n", 2, 1, RESERVED),
    ("a.\nb | not.", 2, 5, RESERVED),
    ("a :- b,\n\tnot not c.", 2, 6, RESERVED),
    ("a.\n#project a,\r\n  not.", 3, 3, RESERVED),
    ("a :- b\n% x\nc.", 3, 1, "missing terminating period"),
    ("#project a b.\na.", 1, 12, "missing terminating period"),
    ("a.\nb :- c\t% no period\n", 3, 1, "missing terminating period"),
    ("a :- b\r\n", 2, 1, "missing terminating period"),
    ("a.\r\n\t.\n", 2, 2, "empty rule: no head and no body"),
    ("a.\n% c\n, b.", 3, 1, "expected rule, found ','"),
    ("a.\n\t| b.", 2, 2, "expected rule, found '|'"),
    ("#project a.\r\na :- b.\n% second\n#project b,\tz.\n", 4, 13, "projection atom 'z' does not occur in any rule"),
    # tokens that are not identifiers, '#project' or ':-' are one character
    ("a :- é.", 1, 6, "unknown token 'é'"),
    ("a.\n#projection a.", 2, 1, "unknown token '#'"),
    ("a.\n\t#", 2, 2, "unknown token '#'"),
    ("a :\n- b.", 1, 3, "unknown token ':'"),
    ("a :- b,, c.\nd :- e ~ f.", 2, 8, "unknown token '~'"),
    ("a :- b,, c.\n% é & ~ :\nd.", 1, 8, "expected atom, found ','"),
    ("a.\nb :- c.\r\n#project\n", 4, 1, "expected atom, found end of input"),
    ("a.\n:-", 2, 3, "expected atom, found end of input"),
    ("a :- b.\n\tc :-\n", 3, 1, "expected atom, found end of input"),
]

# the characters a mutated program gains
MUTATION_CHARS = "abcdefghijklmnopqrstuvwxyz_0123456789 .,|:-#%\t\r\né"


class TestParseDiagnostics:
    @pytest.mark.parametrize("source, line, column, message", DIAGNOSTICS)
    def test_exact_diagnostic(self, source, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        d = err.value.diagnostic
        assert (d.line, d.column, d.message) == (line, column, message)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    def test_unknown_token(self):
        with pytest.raises(ParseError) as err:
            parse_program("a & b.")
        assert err.value.diagnostic.line == 1
        assert err.value.diagnostic.column == 3

    def test_missing_period(self):
        with pytest.raises(ParseError) as err:
            parse_program("a :- b")
        assert "period" in err.value.diagnostic.message

    def test_empty_rule(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\n.")
        assert "empty rule" in err.value.diagnostic.message
        assert err.value.diagnostic.line == 2

    def test_projection_atom_not_in_rules(self):
        with pytest.raises(ParseError) as err:
            parse_program("#project z.\na.")
        assert "z" in err.value.diagnostic.message

    def test_not_reserved(self):
        with pytest.raises(ParseError):
            parse_program("not.")

    def test_empty_body_constraint(self):
        with pytest.raises(ParseError):
            parse_program(":- .")


def parse_outcome(parse, text):
    """A parse's program, or its diagnostic as (line, column, message)."""
    try:
        p = parse(text)
    except ParseError as err:
        d = err.diagnostic
        return d.line, d.column, d.message
    return p.atom_names, p.rules, p.projection


def mutate(rng, text):
    """``text`` with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        op = rng.randrange(3) if k < len(chars) else 0
        if op == 0:
            chars.insert(k, rng.choice(MUTATION_CHARS))
        elif op == 1:
            del chars[k]
        else:
            chars[k] = rng.choice(MUTATION_CHARS)
    return "".join(chars)


class TestReferenceParser:
    """The lexeme parser against the token-tuple parser in
    ``tests/reference.py``: the same program on valid text and the same
    diagnostic on invalid text."""

    def test_printed_and_mutated_programs_agree(self):
        rng = random.Random(27)
        kinds = set()
        for _ in range(300):
            p = helpers.random_mixed(rng, rng.randint(1, 8), rng.randint(1, 10), max_size=rng.randint(1, 4))
            pmask = helpers.random_projection(rng, p)
            text = print_program(p.with_projection(pmask or p.atom_mask))
            assert parse_outcome(parse_program, text) == parse_outcome(reference_parse_program, text)
            for _ in range(10):
                bad = mutate(rng, text)
                got = parse_outcome(parse_program, bad)
                assert got == parse_outcome(reference_parse_program, bad), bad
                if isinstance(got[-1], str):
                    kinds.add(re.sub(r"'.*'", "X", got[-1]))
        # every kind of diagnostic is reached
        assert kinds == {
            "unknown token X",
            "expected atom, found X",
            "expected atom, found end of input",
            "X is reserved and cannot be used as an atom",
            "missing terminating period",
            "empty rule: no head and no body",
            "expected rule, found X",
            "projection atom X does not occur in any rule",
        }


class TestPrintProgram:
    def test_canonical_fixpoint_roundtrip(self):
        rng = random.Random(17)
        for _ in range(60):
            p = helpers.random_mixed(rng, rng.randint(1, 7), rng.randint(1, 9))
            pmask = helpers.random_projection(rng, p)
            if pmask == 0:
                pmask = p.atom_mask
            p = p.with_projection(pmask)
            canonical = parse_program(print_program(p))
            assert parse_program(print_program(canonical)) == canonical

    def test_projection_directive_emitted_when_partial(self, example1):
        text = print_program(example1)
        assert "#project e, d." in text
        assert parse_program(text) == parse_program(helpers.EXAMPLE1_TEXT)

    def test_empty_projection_unprintable(self, example1):
        with pytest.raises(ValueError):
            print_program(example1.with_projection(0))

    def test_atom_free_constraint_unprintable(self):
        # ``:- .`` would be its text, and the parser rejects it
        with pytest.raises(ParseError, match="expected atom"):
            parse_program(":- .")
        for specs in ([((), (), ())], [(("a",), (), ()), ((), (), ())]):
            with pytest.raises(ValueError, match="atom-free constraint"):
                print_program(Program.from_specs(specs))

    def test_id_stability_across_reparses(self):
        text = "m | n :- k.\nk :- not m."
        assert parse_program(text) == parse_program(text)


class TestTdFormat:
    def test_single_empty_bag(self):
        td = read_td("s td 1 1 0", 0)
        assert td.bags == [frozenset()]
        assert td.edges == []

    def test_two_bag_width_two(self):
        td = read_td("s td 2 3 5\nb 1 1 2 3\nb 2 3 4 5\n1 2", 5)
        assert td.bags == [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
        assert td.width == 2
        g = PrimalGraph(5)
        for bag in td.bags:
            verts = sorted(bag)
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    add_edge(g, verts[i], verts[j])
        assert validate_td(g, td) == []

    def test_more_bags_than_edges_allow(self):
        # a tree on N bags needs N-1 edges; an impossible count fails before
        # the bags are built, however large it is
        for text in ("s td 1000000000000 1 1", "s td 3 1 1\nb 1 1\n1 2"):
            with pytest.raises(ParseError) as err:
                read_td(text, 1)
            assert err.value.diagnostic.line == 1
            assert "the bag tree is disconnected" in err.value.diagnostic.message

    def test_bag_id_out_of_range(self):
        with pytest.raises(ParseError):
            read_td("s td 2 1 1\nb 3 1\nb 1 1\n1 2", 1)

    @pytest.mark.parametrize("text, line, column, message", helpers.TD_DIAGNOSTICS)
    def test_exact_diagnostic(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            read_td(text, 5)
        d = err.value.diagnostic
        assert (d.line, d.column, d.message) == (line, column, message)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    def test_comment_lines_are_skipped(self):
        plain = "s td 2 3 5\nb 1 1 2 3\nb 2 3 4 5\n1 2"
        commented = "c first\n" + plain.replace("\n", "\nc between\n") + "\nc last"
        assert read_td(commented, 5) == read_td(plain, 5)

    def test_header_vertex_mismatch(self):
        with pytest.raises(ParseError):
            read_td("s td 1 1 4\nb 1 1", 5)

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            read_td("s td 1 1 2\nb 1 3", 2)

    def test_duplicate_bag(self):
        with pytest.raises(ParseError) as err:
            read_td("s td 2 1 1\nb 1 1\nb 1 1\n1 2", 1)
        assert "duplicate" in err.value.diagnostic.message

    def test_write_empty_graph_exact(self):
        td = decompose(PrimalGraph(0))
        assert write_td(td) == "s td 1 1 0\nb 1\n"

    def test_roundtrip_decomposition(self, example1):
        from paspc.decomposition import primal_graph

        g = primal_graph(example1)
        td = decompose(g, "min-fill", 0)
        back = read_td(write_td(td), example1.n_atoms)
        assert back.bags == td.bags
        assert sorted(map(sorted, back.edges)) == sorted(map(sorted, td.edges))
        assert validate_td(g, back) == []

    def test_roundtrip_random_graphs(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 10)
            g = PrimalGraph(n)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        add_edge(g, i, j)
            td = decompose(g, rng.choice(["min-fill", "min-degree"]), 0)
            back = read_td(write_td(td), n)
            assert back.bags == td.bags
            assert sorted(map(sorted, back.edges)) == sorted(map(sorted, td.edges))

"""Text formats: ground-program source with #project directives, and the
PACE-style ``.td`` tree decomposition format.

Program grammar (whitespace-insensitive, ``%`` starts a line comment)::

    program    := { statement }
    statement  := rule | projection
    rule       := head "."            (fact)
                | head ":-" body "."  (rule)
                | ":-" body "."       (constraint)
    head       := atom { "|" atom }
    body       := literal { "," literal }
    literal    := ["not"] atom
    atom       := [a-zA-Z_][a-zA-Z0-9_]*
    projection := "#project" atom { "," atom } "."

``not`` is reserved and cannot name an atom.  Multiple #project directives
union; without any directive the projection defaults to all atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .decomposition import TreeDecomposition
from .program import Program, iter_bits

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)
      | (?P<project>\#project\b)
      | (?P<arrow>:-)
      | (?P<pipe>\|)
      | (?P<comma>,)
      | (?P<dot>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident | project | arrow | pipe | comma | dot | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(ParseDiagnostic(line, col, f"unknown token {text[pos]!r}"))
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(_Tok("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, tok: _Tok, message: str) -> None:
        raise ParseError(ParseDiagnostic(tok.line, tok.column, message))

    def expect_atom(self) -> _Tok:
        t = self.next()
        if t.kind != "ident":
            self.fail(t, f"expected atom, found {t.text!r}" if t.text else "expected atom, found end of input")
        if t.text == "not":
            self.fail(t, "'not' is reserved and cannot be used as an atom")
        return t

    def expect_dot(self) -> None:
        t = self.next()
        if t.kind != "dot":
            self.fail(t, "missing terminating period")


def parse_program(text: str) -> Program:
    """Parse program source; raises ParseError with a positioned diagnostic."""
    p = _Parser(_tokenize(text))
    rule_specs: list[tuple[list[str], list[str], list[str]]] = []
    project_names: list[_Tok] = []

    while p.peek().kind != "end":
        tok = p.peek()
        if tok.kind == "project":
            p.next()
            project_names.append(p.expect_atom())
            while p.peek().kind == "comma":
                p.next()
                project_names.append(p.expect_atom())
            p.expect_dot()
            continue
        if tok.kind == "dot":
            p.fail(tok, "empty rule: no head and no body")

        head: list[str] = []
        if tok.kind == "ident":
            head.append(p.expect_atom().text)
            while p.peek().kind == "pipe":
                p.next()
                head.append(p.expect_atom().text)
        elif tok.kind != "arrow":
            p.fail(tok, f"expected rule, found {tok.text!r}")

        pos_body: list[str] = []
        neg_body: list[str] = []
        if p.peek().kind == "arrow":
            p.next()
            while True:
                t = p.peek()
                if t.kind == "ident" and t.text == "not":
                    p.next()
                    neg_body.append(p.expect_atom().text)
                else:
                    pos_body.append(p.expect_atom().text)
                if p.peek().kind == "comma":
                    p.next()
                    continue
                break
        p.expect_dot()
        rule_specs.append((head, pos_body, neg_body))

    program = Program.from_specs(rule_specs, projection=None)
    if project_names:
        pmask = 0
        for tok in project_names:
            if tok.text not in program._index:
                raise ParseError(
                    ParseDiagnostic(tok.line, tok.column, f"projection atom {tok.text!r} does not occur in any rule")
                )
            pmask |= 1 << program.atom_id(tok.text)
        program = program.with_projection(pmask)
    return program


def print_program(program: Program) -> str:
    """Canonical source text: head atoms by id, positive body first, 'not'
    literals last, one statement per line.  A #project directive is emitted
    only when the projection differs from the full atom set."""
    if program.projection == 0 and program.n_atoms > 0:
        raise ValueError("empty projection is not expressible in program text")
    lines = []
    for r in program.rules:
        head = " | ".join(program.atom_names[a] for a in r.head)
        body = [program.atom_names[a] for a in r.pos_body]
        body += [f"not {program.atom_names[a]}" for a in r.neg_body]
        if body and head:
            lines.append(f"{head} :- {', '.join(body)}.")
        elif head:
            lines.append(f"{head}.")
        else:
            lines.append(f":- {', '.join(body)}.")
    if program.projection != program.atom_mask:
        names = ", ".join(program.atom_names[a] for a in iter_bits(program.projection))
        lines.append(f"#project {names}.")
    return "\n".join(lines) + ("\n" if lines else "")


# --- PACE-style tree decomposition text -----------------------------------


def read_td(text: str, n_vertices: int) -> TreeDecomposition:
    """Read a PACE-style decomposition.  Vertex j (1-based) maps to atom j-1;
    ``n_vertices`` must match the header's vertex count.  Only the syntax is
    checked here; ``decomposition.validate_td`` checks the decomposition."""
    header: tuple[int, int, int] | None = None
    bags: dict[int, set[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError(ParseDiagnostic(lineno, 1, "duplicate solution line"))
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(ParseDiagnostic(lineno, 1, "malformed solution line"))
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise ParseError(ParseDiagnostic(lineno, 1, "malformed solution line")) from None
            if header[2] != n_vertices:
                raise ParseError(
                    ParseDiagnostic(lineno, 1, f"header declares {header[2]} vertices, expected {n_vertices}")
                )
            continue
        if header is None:
            raise ParseError(ParseDiagnostic(lineno, 1, "content before solution line"))
        if parts[0] == "b":
            try:
                ident = int(parts[1])
                verts = [int(v) for v in parts[2:]]
            except (ValueError, IndexError):
                raise ParseError(ParseDiagnostic(lineno, 1, "malformed bag line")) from None
            if not 1 <= ident <= header[0]:
                raise ParseError(ParseDiagnostic(lineno, 1, f"bag id {ident} out of range"))
            if ident in bags:
                raise ParseError(ParseDiagnostic(lineno, 1, f"duplicate bag {ident}"))
            for v in verts:
                if not 1 <= v <= n_vertices:
                    raise ParseError(ParseDiagnostic(lineno, 1, f"vertex {v} out of range"))
            bags[ident] = {v - 1 for v in verts}
        else:
            try:
                i, j = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise ParseError(ParseDiagnostic(lineno, 1, "malformed edge line")) from None
            if len(parts) != 2:
                raise ParseError(ParseDiagnostic(lineno, 1, "malformed edge line"))
            if not (1 <= i <= header[0] and 1 <= j <= header[0]):
                raise ParseError(ParseDiagnostic(lineno, 1, f"bag id out of range in edge {i} {j}"))
            edges.append((i - 1, j - 1))
    if header is None:
        raise ParseError(ParseDiagnostic(1, 1, "missing solution line"))

    n_bags = header[0]
    bag_list = [frozenset(bags.get(i + 1, ())) for i in range(n_bags)]
    return TreeDecomposition(bag_list, edges)


def write_td(td: TreeDecomposition) -> str:
    """Emit the PACE-style text; read_td(write_td(td)) reproduces td up to
    edge order."""
    n_vertices = 0
    for bag in td.bags:
        for v in bag:
            n_vertices = max(n_vertices, v + 1)
    max_bag = max((len(b) for b in td.bags), default=0)
    out = [f"s td {len(td.bags)} {max(1, max_bag)} {n_vertices}"]
    for i, bag in enumerate(td.bags):
        verts = " ".join(str(v + 1) for v in sorted(bag))
        out.append(f"b {i + 1} {verts}".rstrip())
    for i, j in td.edges:
        out.append(f"{i + 1} {j + 1}")
    return "\n".join(out) + "\n"

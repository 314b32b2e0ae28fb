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

The source is tokenized in one regex pass into ``(kind, lexeme, offset)``
tuples, and the grammar walk reads that list by index.  A diagnostic's line
and column are worked out from its offset only when it is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .decomposition import TreeDecomposition
from .program import Program, iter_bits

# Whitespace and comments match no group and are dropped; the catch-all
# ``bad`` takes any other character.
_TOKEN_RE = re.compile(
    r"""\s+ | %[^\n]*
      | (?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)
      | (?P<project>\#project\b)
      | (?P<arrow>:-)
      | (?P<pipe>\|)
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<bad>.)
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


def _fail(text: str, offset: int, message: str) -> NoReturn:
    """Raise a diagnostic at a character offset, with 1-based line and
    column (a tab is one column)."""
    line = text.count("\n", 0, offset) + 1
    raise ParseError(ParseDiagnostic(line, offset - text.rfind("\n", 0, offset), message))


def _atom(text: str, tok: tuple[str, str, int]) -> str:
    """The atom the token names; a diagnostic if it names none."""
    kind, lexeme, offset = tok
    if kind != "ident":
        _fail(text, offset, f"expected atom, found {lexeme!r}" if lexeme else "expected atom, found end of input")
    if lexeme == "not":
        _fail(text, offset, "'not' is reserved and cannot be used as an atom")
    return lexeme


def parse_program(text: str) -> Program:
    """Parse program source; raises ParseError with a positioned diagnostic.
    An unknown character anywhere fails before any syntax error."""
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if m.lastgroup]
    for kind, lexeme, offset in toks:
        if kind == "bad":
            _fail(text, offset, f"unknown token {lexeme!r}")
    toks.append(("end", "", len(text)))

    rule_specs: list[tuple[list[str], list[str], list[str]]] = []
    project_toks: list[tuple[str, str, int]] = []
    i = 0
    while True:
        kind, lexeme, offset = toks[i]
        if kind == "end":
            break
        if kind == "project":
            while True:  # i is at the directive or a comma
                _atom(text, toks[i + 1])
                project_toks.append(toks[i + 1])
                i += 2
                if toks[i][0] != "comma":
                    break
        else:
            if kind == "dot":
                _fail(text, offset, "empty rule: no head and no body")
            head: list[str] = []
            if kind == "ident":
                head.append(_atom(text, toks[i]))
                i += 1
                while toks[i][0] == "pipe":
                    head.append(_atom(text, toks[i + 1]))
                    i += 2
            elif kind != "arrow":
                _fail(text, offset, f"expected rule, found {lexeme!r}")
            pos_body: list[str] = []
            neg_body: list[str] = []
            if toks[i][0] == "arrow":
                i += 1
                while True:
                    if toks[i][1] == "not":  # only an ident reads "not"
                        neg_body.append(_atom(text, toks[i + 1]))
                        i += 2
                    else:
                        pos_body.append(_atom(text, toks[i]))
                        i += 1
                    if toks[i][0] != "comma":
                        break
                    i += 1
            rule_specs.append((head, pos_body, neg_body))
        if toks[i][0] != "dot":
            _fail(text, toks[i][2], "missing terminating period")
        i += 1

    program = Program.from_specs(rule_specs, projection=None)
    if project_toks:
        pmask = 0
        for _, name, offset in project_toks:
            try:
                pmask |= 1 << program.atom_id(name)
            except KeyError:
                _fail(text, offset, f"projection atom {name!r} does not occur in any rule")
        program = program.with_projection(pmask)
    return program


def print_program(program: Program) -> str:
    """Canonical source text: head atoms by id, positive body first, 'not'
    literals last, one statement per line, #project only when the projection
    is partial.  An empty projection and the atom-free constraint have none."""
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
        elif body:
            lines.append(f":- {', '.join(body)}.")
        else:
            raise ValueError("the atom-free constraint is not expressible in program text")
    if program.projection != program.atom_mask:
        names = ", ".join(program.atom_names[a] for a in iter_bits(program.projection))
        lines.append(f"#project {names}.")
    return "\n".join(lines) + ("\n" if lines else "")


# --- PACE-style tree decomposition text -----------------------------------


def read_td(text: str, n_vertices: int) -> TreeDecomposition:
    """Read a PACE-style decomposition.  Vertex j (1-based) maps to atom j-1;
    ``n_vertices`` must match the header's vertex count.  Besides the syntax
    only the bag count is checked here, so that an impossible one fails
    before the bags are built: a tree on N bags needs N-1 edges.
    ``pipeline.solve`` validates the decomposition."""
    header: tuple[int, int, int] | None = None
    header_line = 0
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
            header_line = lineno
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
    if n_bags > len(edges) + 1:
        message = f"header declares {n_bags} bags but {len(edges)} edges: the bag tree is disconnected"
        raise ParseError(ParseDiagnostic(header_line, 1, message))
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

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

The source is tokenized by one ``findall`` into a list of lexemes, and the
grammar walk reads that list by index, telling each token's kind from its
text.  It interns atom names and builds each rule as it goes.  Tokens keep
no offsets: a diagnostic names a token's index, and only when one is raised
is the source scanned again for that token's line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import NoReturn

from .decomposition import TreeDecomposition
from .program import Program, Rule, iter_bits

# Whitespace and comments leave the one group empty; every other match is a
# token: an identifier, ``#project``, ``:-`` or one character.  A one-character
# token other than an identifier or ``|``, ``,`` and ``.`` is unknown.
_LEX = re.compile(r"\s+|%[^\n]*|([a-zA-Z_][a-zA-Z0-9_]*|\#project\b|:-|.)")
_ONE_CHAR = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_|,.")
# the tokens that are not identifiers, once unknown ones are ruled out; the
# empty string marks the end of input
_PUNCT = frozenset(("#project", ":-", "|", ",", ".", ""))
_NOT_ATOM = _PUNCT | {"not"}


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


def _fail(text: str, k: int, message: str) -> NoReturn:
    """Raise a diagnostic at token ``k`` (the end of input past the last
    token), with 1-based line and column (a tab is one column)."""
    starts = (m.start() for m in _LEX.finditer(text) if m.lastindex)
    offset = next(islice(starts, k, None), len(text))
    line = text.count("\n", 0, offset) + 1
    raise ParseError(ParseDiagnostic(line, offset - text.rfind("\n", 0, offset), message))


def _not_atom(text: str, toks: list[str], k: int) -> NoReturn:
    """The diagnostic for token ``k`` where an atom is expected."""
    lexeme = toks[k]
    if lexeme == "not":
        _fail(text, k, "'not' is reserved and cannot be used as an atom")
    _fail(text, k, f"expected atom, found {lexeme!r}" if lexeme else "expected atom, found end of input")


def parse_program(text: str) -> Program:
    """Parse program source; raises ParseError with a positioned diagnostic.
    An unknown character anywhere fails before any syntax error.

    Atom ids follow first occurrence, reading each rule's head, then its
    positive body, then its negative body, as ``Program.from_specs`` does."""
    toks = [t for t in _LEX.findall(text) if t]
    bad = {t for t in set(toks) if len(t) == 1 and t not in _ONE_CHAR}
    if bad:
        k = next(k for k, t in enumerate(toks) if t in bad)
        _fail(text, k, f"unknown token {toks[k]!r}")
    toks.append("")

    index: dict[str, int] = {}  # atom ids in first-occurrence order
    rules: dict[Rule, None] = {}  # first occurrences, in order
    project: list[int] = []  # token indices of the projection atoms
    i = 0
    while t := toks[i]:
        if t == "#project":
            while True:  # i is at the directive or a comma
                i += 1
                if toks[i] in _NOT_ATOM:
                    _not_atom(text, toks, i)
                project.append(i)
                i += 1
                if toks[i] != ",":
                    break
        else:
            if t == ".":
                _fail(text, i, "empty rule: no head and no body")
            head: list[int] = []
            if t not in _PUNCT:
                if t == "not":
                    _not_atom(text, toks, i)
                head.append(index.setdefault(t, len(index)))
                i += 1
                while toks[i] == "|":
                    i += 1
                    t = toks[i]
                    if t in _NOT_ATOM:
                        _not_atom(text, toks, i)
                    head.append(index.setdefault(t, len(index)))
                    i += 1
            elif t != ":-":
                _fail(text, i, f"expected rule, found {t!r}")
            pos: list[int] = []
            neg: list[str] = []  # interned after the positive body
            if toks[i] == ":-":
                while True:  # i is at the arrow or a comma
                    i += 1
                    t = toks[i]
                    if t == "not":
                        i += 1
                        t = toks[i]
                        if t in _NOT_ATOM:
                            _not_atom(text, toks, i)
                        neg.append(t)
                    elif t in _PUNCT:
                        _not_atom(text, toks, i)
                    else:
                        pos.append(index.setdefault(t, len(index)))
                    i += 1
                    if toks[i] != ",":
                        break
            rules[Rule.make(head, pos, [index.setdefault(a, len(index)) for a in neg])] = None
        if toks[i] != ".":
            _fail(text, i, "missing terminating period")
        i += 1

    pmask = (1 << len(index)) - 1
    if project:
        pmask = 0
        for k in project:
            a = index.get(toks[k])
            if a is None:
                _fail(text, k, f"projection atom {toks[k]!r} does not occur in any rule")
            pmask |= 1 << a
    return Program(list(index), list(rules), pmask, index)


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

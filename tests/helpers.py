"""Shared test support: the running example, a hand-built 14-node nice
decomposition for it, decomposition texts with their exact diagnostics,
the paper's full-ordering PHC as a reference, random valid decompositions,
seeded random program generators per class, a disjunctive chain with a
closed-form count, the seeded projection fuzz draws, seeded draws with
rules whose head or negative body meets their positive body, and a
``sys.getsizeof`` walk."""

from __future__ import annotations

import random
import sys

from paspc import engine, proj
from paspc.decomposition import NiceTreeDecomposition, PrimalGraph, TreeDecomposition, decompose, make_nice, primal_graph
from paspc.formats import parse_program
from paspc.phc import PhcAlgorithm
from paspc.program import Program, ProgramKind, classify

EXAMPLE1_TEXT = """\
a | b.
c | e.
d | e :- b.
b :- e, not d.
d :- not b.
#project d, e.
"""


# head-cycle-free, width 4, one cyclic component {x3, x5, x6}; one answer
# set.  The paper's full ordering builds a 180-row table here and runs the
# projection pass out of memory on a 60-row bucket.
WIDE_HCF_TEXT = """\
x3 :- x6. x6 :- x3. :- x6, x1, not x3. x4. x5. :- x1, x4, x5, x2, not x6.
x3 :- x5. x1. x1 | x5 :- x3. x2.
"""


# disjunctive, with head cycles a <-> b and e <-> f: ``prim`` rows carry
# counter sets of several elements
HEAD_CYCLE_TEXT = "a | b. a :- b. b :- a. c | d. e | f :- c. e :- f. f :- e. g | h :- d. g :- h, e.\n"

# ``read_td`` texts for the running example's five atoms, each with the
# (line, column, message) of the diagnostic it fails with; comment lines
# count towards the line numbers
TD_DIAGNOSTICS = [
    ("c one\nc two\ns td 1 5 5\nc three\ns td 1 5 5\n", 5, 1, "duplicate solution line"),
    ("s td 1 5\n", 1, 1, "malformed solution line"),
    ("s tw 1 5 5\n", 1, 1, "malformed solution line"),
    ("c header\ns td one 5 5\n", 2, 1, "malformed solution line"),
    ("c header next\nb 1 1 2 3 4 5\ns td 1 5 5\n", 2, 1, "content before solution line"),
    ("s td 1 5 5\nb x 1 2\n", 2, 1, "malformed bag line"),
    ("s td 1 5 5\nc empty bag line\nb\n", 3, 1, "malformed bag line"),
    ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2\n1 x\n", 4, 1, "malformed edge line"),
    ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2\n1\n", 4, 1, "malformed edge line"),
    ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2\n1 2 2\n", 4, 1, "malformed edge line"),
    ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2\n1 3\n", 4, 1, "bag id out of range in edge 1 3"),
    ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2\n0 1\n", 4, 1, "bag id out of range in edge 0 1"),
    ("c no header\n", 1, 1, "missing solution line"),
    ("", 1, 1, "missing solution line"),
]


def example1() -> Program:
    return parse_program(EXAMPLE1_TEXT)


# answer sets of the running example, as atom-name sets
EXAMPLE1_ANSWER_SETS = [{"b", "c", "d"}, {"a", "c", "d"}, {"b", "e"}, {"a", "d", "e"}]


def fourteen_node_td(program: Program) -> tuple[NiceTreeDecomposition, dict[str, int]]:
    """A hand-built 14-node nice decomposition of the running example.

    One branch introduces a and b and removes a at a bag-{b} node; the other
    introduces b, d, then e (bag {b,d,e}), later covers {c,e}, and both
    branches join at bag {b}.  Returns the tree and a name->node map.
    """
    a, b, c, e, d = (program.atom_id(x) for x in "abced")
    f = frozenset
    ntd = NiceTreeDecomposition()
    ids = {}
    ids["t1"] = ntd.add("leaf", f(), None, ())
    ids["t2"] = ntd.add("int", f({a}), a, (ids["t1"],))
    ids["t3"] = ntd.add("int", f({a, b}), b, (ids["t2"],))
    ids["t4"] = ntd.add("rem", f({b}), a, (ids["t3"],))
    ids["t5"] = ntd.add("leaf", f(), None, ())
    ids["t6"] = ntd.add("int", f({b}), b, (ids["t5"],))
    ids["t7"] = ntd.add("int", f({b, d}), d, (ids["t6"],))
    ids["t8"] = ntd.add("int", f({b, d, e}), e, (ids["t7"],))
    ids["t9"] = ntd.add("rem", f({b, e}), d, (ids["t8"],))
    ids["t10"] = ntd.add("int", f({b, c, e}), c, (ids["t9"],))
    ids["t11"] = ntd.add("rem", f({b, e}), c, (ids["t10"],))
    ids["t12"] = ntd.add("rem", f({b}), e, (ids["t11"],))
    ids["t13"] = ntd.add("join", f({b}), None, (ids["t4"], ids["t12"]))
    ids["t14"] = ntd.add("rem", f(), b, (ids["t13"],))
    ntd.root = ids["t14"]
    return ntd, ids


def paper_phc(n_atoms: int) -> PhcAlgorithm:
    """The paper's PHC, whose ordering holds every true bag atom: the same
    class with atoms 0..n_atoms-1 all in one component."""
    return PhcAlgorithm(dict.fromkeys(range(n_atoms), 0))


def count_with(alg, program: Program) -> int:
    """Projected count through the given table algorithm instance."""
    nice = make_nice(decompose(primal_graph(program)))
    purged = engine.purge(engine.run_dp(alg, program, nice))
    return proj.final_count(proj.run_proj(purged, program.projection), purged)


def random_decomposition(rng: random.Random, graph: PrimalGraph) -> TreeDecomposition:
    """A valid decomposition from a random elimination order: each vertex's
    bag holds it and its neighbours eliminated later (in the filled graph),
    linked to the bag of the first of them to go, or to the next bag if it
    has none.  Node ids are shuffled, so the root that ``make_nice`` picks
    (the largest id) is a random bag."""
    n = graph.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [set(s) for s in graph.adj]
    bags, links = [], []
    for i, v in enumerate(order):
        later = {u for u in nbrs[v] if pos[u] > i}
        for x in later:
            nbrs[x] |= later - {x}
        bags.append(frozenset(later | {v}))
        links.append(pos[min(later, key=pos.__getitem__)] if later else i + 1)
    ids = list(range(n))
    rng.shuffle(ids)
    out = [frozenset()] * n
    for i, bag in enumerate(bags):
        out[ids[i]] = bag
    return TreeDecomposition(out, [(ids[i], ids[j]) for i, j in enumerate(links) if j < n])


# --- random program generators ----------------------------------------------


def _atom_names(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def random_projection(rng: random.Random, program: Program) -> int:
    choice = rng.randrange(3)
    if choice == 0:
        return 0
    if choice == 1:
        return program.atom_mask
    return rng.getrandbits(program.n_atoms) & program.atom_mask


def _random_rule(rng: random.Random, names: list[str], max_head: int, max_size: int = 3) -> tuple:
    """A rule over at most ``max_size`` atoms.  The default of three keeps
    the seeded instances of the existing fuzz tests as they were; wider
    rules make wide bags, where ``prim`` tables grow doubly exponentially."""
    size = rng.randint(1, min(max_size, len(names)))
    atoms = rng.sample(names, size)
    k_h = rng.randint(0, min(max_head, size))
    k_p = rng.randint(0, size - k_h)
    head, rest = atoms[:k_h], atoms[k_h:]
    pos, neg = rest[:k_p], rest[k_p:]
    if not head and not pos and not neg:
        head = atoms[:1]
    return head, pos, neg


def random_mixed(rng: random.Random, n_atoms: int, n_rules: int, max_head: int = 2, max_size: int = 3) -> Program:
    names = _atom_names(n_atoms)
    return Program.from_specs(_random_rule(rng, names, max_head, max_size) for _ in range(n_rules))


def random_guessed(rng: random.Random, n_guess: int, n_rules: int, max_head: int = 2) -> Program:
    """Atoms x_i each guessed by an even loop with nx_i, then random rules
    over the x_i and as many atoms d_i that only the rules derive.  Many
    answer sets survive, and rows of one projection bucket that differ on
    unprojected atoms often stand for different numbers of them."""
    names = _atom_names(n_guess)
    specs = []
    for a in names:
        specs += [((a,), (), (f"n{a}",)), ((f"n{a}",), (), (a,))]
    derived = [f"d{i}" for i in range(n_guess)]
    specs.extend(_random_rule(rng, names + derived, max_head) for _ in range(n_rules))
    return Program.from_specs(specs)


def random_tight(rng: random.Random, n_atoms: int, n_rules: int) -> Program:
    """Positive bodies draw only from lower-indexed atoms, so the positive
    dependency digraph is acyclic by construction."""
    names = _atom_names(n_atoms)
    specs = []
    for _ in range(n_rules):
        k_h = rng.randint(1, min(2, n_atoms))
        head = rng.sample(names, k_h)
        lowest = min(int(h[1:]) for h in head)
        below = names[:lowest]
        pos = rng.sample(below, min(rng.randint(0, 3 - k_h), len(below)))
        neg = rng.sample(names, min(len(names), rng.randint(0, max(0, 3 - k_h - len(pos)))))
        specs.append((head, pos, neg))
    p = Program.from_specs(specs)
    assert classify(p).kind is ProgramKind.TIGHT
    return p


def random_normal(rng: random.Random, n_atoms: int, n_rules: int, max_size: int = 3) -> Program:
    p = random_mixed(rng, n_atoms, n_rules, max_head=1, max_size=max_size)
    assert classify(p).is_normal
    return p


def random_hcf(rng: random.Random, n_atoms: int, n_rules: int, max_size: int = 3) -> Program:
    """Head-cycle-free but not tight: a positive two-atom cycle is embedded
    so the dependency digraph is always cyclic, and programs whose random
    remainder creates a head-cycle are resampled."""
    n_atoms = max(n_atoms, 2)
    names = _atom_names(n_atoms)
    while True:
        a, b = rng.sample(names, 2)
        specs = [((a,), (b,), ()), ((b,), (a,), ())]
        specs.extend(_random_rule(rng, names, 2, max_size) for _ in range(n_rules))
        p = Program.from_specs(specs)
        if classify(p).kind is ProgramKind.HEAD_CYCLE_FREE:
            return p


def random_disjunctive(rng: random.Random, n_atoms: int, n_rules: int, max_size: int = 3) -> Program:
    """Carries an embedded head-cycle, so the class is disjunctive for sure."""
    n_atoms = max(n_atoms, 2)
    names = _atom_names(n_atoms)
    a, b = rng.sample(names, 2)
    specs = [((a, b), (), ()), ((a,), (b,), ()), ((b,), (a,), ())]
    specs.extend(_random_rule(rng, names, 2, max_size) for _ in range(n_rules))
    p = Program.from_specs(specs)
    assert classify(p).kind is ProgramKind.DISJUNCTIVE
    return p


def disjunctive_chain(blocks: int, k: int) -> str:
    """A disjunctive program of ``blocks`` blocks with k guessed columns
    each; a column's x atoms are chained block to block, and p_i | q_i with
    p_i <-> q_i makes a head cycle per block.  Each column picks the block
    where x starts to hold, or none: (blocks + 1)^k answer sets."""
    lines = []
    for i in range(blocks):
        for j in range(k):
            lines.append(f"x{i}_{j} | y{i}_{j}.")
            if i:
                lines.append(f"x{i}_{j} :- x{i - 1}_{j}.")
            lines.append(f"p{i} | q{i} :- x{i}_{j}.")
        lines += [f"p{i} :- q{i}.", f"q{i} :- p{i}."]
    return "\n".join(lines) + "\n"


def projection_fuzz():
    """The seeded projection fuzz draws: per instance whether it runs under
    ``prim`` (or else a PHC), the program and a random projection.  The second stream's sparser programs of 10-12 atoms branch
    in their decompositions, so join buckets of several rows occur.  The
    third stream's guessed atoms give child buckets whose rows have
    different singleton counts, with a one-row bucket above reading a row
    at a position > 0 of such a bucket."""
    streams = (
        (909, random_mixed, (1, 6), (1, 8)),
        (4, random_mixed, (10, 12), (8, 11)),
        (6, random_guessed, (2, 3), (2, 5)),
    )
    for seed, gen, atoms, rules in streams:
        rng = random.Random(seed)
        for prim in (False, True):
            for _ in range(25):
                p = gen(rng, rng.randint(*atoms), rng.randint(*rules))
                yield prim, p, random_projection(rng, p)


def _overlapping_rule(rng: random.Random, names: list[str]) -> tuple:
    """A rule whose head or negative body meets its positive body, such as
    ``a :- a.``, ``a | b :- a.``, ``a :- a, b.`` or ``b :- a, not a.``.
    Every interpretation satisfies it, but the first three put a self-loop
    on ``a`` in the positive dependency digraph.  ``b`` may be ``a``."""
    a, b = rng.choice(names), rng.choice(names)
    kind = rng.randrange(4)
    if kind == 0:
        return (a,), (a,), ()
    if kind == 1:
        return (a, b), (a,), ()
    if kind == 2:
        return (a,), (a, b), ()
    return (b,) if rng.randrange(2) else (), (a,), (a,)


def overlap_fuzz():
    """Seeded draws of every ``random_*`` generator with one to three
    ``_overlapping_rule`` rules appended (the generators' own draws never
    contain one) and a random projection.  Appended rules use the program's
    own atoms, so atom ids stay as drawn."""
    rng = random.Random(1717)
    gens = (random_mixed, random_guessed, random_tight, random_normal, random_hcf, random_disjunctive)
    for gen in gens:
        for _ in range(20):
            p = gen(rng, rng.randint(1, 3 if gen is random_guessed else 8), rng.randint(1, 8))
            names = list(p.atom_names)
            specs = [tuple(tuple(names[a] for a in part) for part in (r.head, r.pos_body, r.neg_body)) for r in p.rules]
            specs.extend(_overlapping_rule(rng, names) for _ in range(rng.randint(1, 3)))
            q = Program.from_specs(specs)
            yield q.with_projection(random_projection(rng, q))


def deep_size(obj, seen: set[int]) -> int:
    """``sys.getsizeof`` of an object and of every key, value and item it
    holds, and of its attributes, those in a ``__dict__`` and those named in
    the ``__slots__`` of its class and their bases, each object counted once
    over all calls sharing ``seen``."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        size += sum(deep_size(x, seen) for x in obj)
    else:
        for cls in type(obj).__mro__:
            names = cls.__dict__.get("__slots__", ())
            for name in (names,) if isinstance(names, str) else names:
                if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                    size += deep_size(getattr(obj, name), seen)
        if hasattr(obj, "__dict__"):
            size += deep_size(vars(obj), seen)
    return size

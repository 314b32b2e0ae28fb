"""Brute-force reference solver.

Enumerates every interpretation; a model of the program, which is exactly a
model of its own reduct, is an answer set when no proper subset is a model
of that reduct, checked by enumerating them all, deliberately independent of
the dynamic-programming machinery this package exists to test.
"""

from __future__ import annotations

from .program import Program, mask_of

MAX_ATOMS = 24


class OracleSizeError(ValueError):
    pass


def enumerate_answer_sets(program: Program) -> list[int]:
    """All answer sets as interpretation bitmasks, ascending."""
    n = program.n_atoms
    if n > MAX_ATOMS:
        raise OracleSizeError(f"{n} atoms exceed the brute-force guard of {MAX_ATOMS}")
    # atom masks of at most MAX_ATOMS bits: a rule (h, p, ng) is violated by
    # I exactly when I & (h | p | ng) == p, and never when its head or
    # negative body meets its positive body
    masks = [(mask_of(r.head + r.neg_body), mask_of(r.pos_body), mask_of(r.neg_body)) for r in program.rules]
    rules = [(hn | p, p, ng) for hn, p, ng in masks if not hn & p]
    out = []
    for interp in range(1 << n):
        for m, p, _ in rules:
            if interp & m == p:
                break  # not a model
        else:
            # the reduct keeps the rules whose negative body misses interp, and
            # so misses every subset: the same test decides them there
            reduct = [(m, p) for m, p, ng in rules if not ng & interp]
            sub = interp
            while sub:  # every proper subset, down to and including the empty set
                sub = (sub - 1) & interp
                for m, p in reduct:
                    if sub & m == p:
                        break
                else:
                    break  # sub is a smaller model of the reduct
            else:
                out.append(interp)
    return out


def projected_count(program: Program, pmask: int | None = None) -> int:
    """Number of distinct projections of answer sets onto the projection set."""
    if pmask is None:
        pmask = program.projection
    return len({interp & pmask for interp in enumerate_answer_sets(program)})


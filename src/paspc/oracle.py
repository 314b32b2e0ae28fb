"""Brute-force reference solver.

Enumerates every interpretation, keeps those that are minimal models of their
own reduct, and counts projections.  Minimality is checked by enumerating all
proper subsets, deliberately independent of the dynamic-programming machinery
this package exists to test.
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
    # atom masks of at most MAX_ATOMS bits
    rules = [(mask_of(r.head), mask_of(r.pos_body), mask_of(r.neg_body)) for r in program.rules]
    out = []
    for interp in range(1 << n):
        reduct = [(h, p) for h, p, ng in rules if not ng & interp]
        ok = True
        for h, p in reduct:
            if not (h & interp or p & ~interp):
                ok = False
                break
        if not ok:
            continue
        if interp:
            minimal = True
            sub = (interp - 1) & interp
            while True:
                good = True
                for h, p in reduct:
                    if not (h & sub or p & ~sub):
                        good = False
                        break
                if good:
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & interp
            if not minimal:
                continue
        out.append(interp)
    return out


def projected_count(program: Program, pmask: int | None = None) -> int:
    """Number of distinct projections of answer sets onto the projection set."""
    if pmask is None:
        pmask = program.projection
    return len({interp & pmask for interp in enumerate_answer_sets(program)})


"""Table algorithm for arbitrary disjunctive programs.

A row pairs a bag-restricted witness interpretation M with the set C of bag
projections of all proper submodels of the reduct under the witness (counter
witnesses).  A witness whose C is empty at the (empty-bag) root is minimal,
hence an answer set.  Counter witnesses are never filtered at removal: their
strictness was established when they diverged from the witness and survives
projection to smaller bags.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .decomposition import INTRODUCE, JOIN, LEAF, REMOVE
from .engine import NodeTable
from .program import Program, Rule, is_model


class PrimRow(NamedTuple):
    witness: int
    counters: frozenset[int]


def _reduct_models(interp: int, reduct_rules: Sequence[Rule]) -> bool:
    for r in reduct_rules:
        if not (r.head_mask & interp or r.pos_mask & ~interp):
            return False
    return True


class PrimAlgorithm:
    name = "prim"
    solution_row = PrimRow(0, frozenset())

    @staticmethod
    def interp(row: PrimRow) -> int:
        return row.witness

    @staticmethod
    def node_table(
        kind: str,
        atom: int | None,
        rules: Sequence[Rule],
        child_tables: Sequence[NodeTable],
    ) -> dict[PrimRow, set[tuple[int, ...]]]:
        out: dict[PrimRow, set[tuple[int, ...]]] = {}
        if kind == LEAF:
            if is_model(0, rules):
                out[PrimRow(0, frozenset())] = {()}
        elif kind == INTRODUCE:
            bit = 1 << atom
            for ci, row in enumerate(child_tables[0].rows):
                for witness in (row.witness, row.witness | bit):
                    if not is_model(witness, rules):
                        continue
                    reduct = [r for r in rules if not (r.neg_mask & witness)]
                    counters = set()
                    for n in row.counters:
                        candidates = (n, n | bit) if witness & bit else (n,)
                        for n2 in candidates:
                            if _reduct_models(n2, reduct):
                                counters.add(n2)
                    if witness & bit and _reduct_models(row.witness, reduct):
                        # the old witness, lacking the new atom, is now a
                        # strictly smaller model candidate
                        counters.add(row.witness)
                    new = PrimRow(witness, frozenset(counters))
                    out.setdefault(new, set()).add((ci,))
        elif kind == REMOVE:
            bit = 1 << atom
            for ci, row in enumerate(child_tables[0].rows):
                new = PrimRow(row.witness & ~bit, frozenset(n & ~bit for n in row.counters))
                out.setdefault(new, set()).add((ci,))
        elif kind == JOIN:
            right: dict[int, list[int]] = {}
            for cj, row in enumerate(child_tables[1].rows):
                right.setdefault(row.witness, []).append(cj)
            for ci, row in enumerate(child_tables[0].rows):
                for cj in right.get(row.witness, ()):
                    c1, c2 = row.counters, child_tables[1].rows[cj].counters
                    full = frozenset((row.witness,))
                    merged = (c1 & c2) | (full & (c1 | c2))
                    new = PrimRow(row.witness, merged)
                    out.setdefault(new, set()).add((ci, cj))
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        return out

    @staticmethod
    def format_row(row: PrimRow, program: Program) -> str:
        m = ",".join(program.names(row.witness))
        cs = " ".join("{" + ",".join(program.names(n)) + "}" for n in sorted(row.counters))
        return f"M={{{m}}} C=[{cs}]"


PRIM = PrimAlgorithm()

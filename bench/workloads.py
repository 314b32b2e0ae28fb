"""Seeded generators for the benchmark workloads.

Every workload is one instance of the family ``chain_k(B, k, variant)``: ``B``
blocks, each with ``k`` choice pairs ``x_ij``/``y_ij``, a chain link
``x_ij :- x_(i-1)j`` per column and a rule deriving ``p_i`` from every
``x_ij``.  With ``k=1`` and variant ``hcf`` this is ``chain_blocks`` of the
acceptance suite.  Each column is monotone along the chain (once ``x_ij``
holds, so does every later ``x_i'j``), so the exact count is known in closed
form: ``(B+1)^k`` projected onto all atoms, ``B+1`` projected onto the
``p_i``.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

VARIANTS = ("hcf", "tight", "disj")


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    blocks: int
    k: int
    project_p: bool  # project onto the p_i instead of all atoms
    td_seed: int  # seed of the decomposition heuristic inside pipeline.solve

    def expected(self) -> int:
        return closed_form(self.blocks, self.k, self.project_p)


# Sizes and the reason for each are recorded in BENCHMARK.json and
# bench/README.md; every instance here solves in about 2-4 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain", "hcf", 1667, 1, False, 0),
        Workload("buckets", "hcf", 4, 2, True, 0),
        Workload("tight", "tight", 150, 4, False, 0),
        Workload("disj", "disj", 300, 3, False, 1),
    )
}


def closed_form(blocks: int, k: int, project_p: bool) -> int:
    return blocks + 1 if project_p else (blocks + 1) ** k


def chain_k_blocks(blocks: int, k: int, variant: str) -> list[list[str]]:
    """The rules of ``chain_k`` as source lines, grouped per block."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if blocks < 1 or k < 1:
        raise ValueError("need at least one block and one column")
    head = "p{i} | q{i}" if variant == "disj" else "p{i}"
    out = []
    for i in range(blocks):
        rules = []
        # Column by column, then the p/q rules.  The canonical order matters:
        # atom ids follow first occurrence and steer the min-fill tie-breaks.
        # Listing all choices first instead raises buckets from 13-row to
        # 16-row buckets and its solve from ~3 s to ~120 s.
        for j in range(k):
            x, y = f"x{i}_{j}", f"y{i}_{j}"
            if variant == "disj":
                rules.append(f"{x} | {y}.")
            else:
                rules.append(f"{x} :- not {y}.")
                rules.append(f"{y} :- not {x}.")
            if i:
                rules.append(f"{x} :- x{i - 1}_{j}.")
            rules.append(head.format(i=i) + f" :- {x}.")
        if variant != "tight":
            rules.append(f"p{i} :- q{i}.")
        rules.append(f"q{i} :- p{i}.")
        out.append(rules)
    return out


def chain_k(blocks: int, k: int, variant: str, project_p: bool = False, seed: int = 0) -> str:
    """Program text of ``chain_k``.

    Seed 0 uses the canonical atom names.  Any other seed renames every atom
    to a seeded random name of the same length.  Rule order and the order of
    first occurrence stay canonical, so atom ids, the decomposition and every
    work count are the same for all seeds; only the text differs.
    """
    lines = [r for rules in chain_k_blocks(blocks, k, variant) for r in rules]
    if project_p:
        lines.append("#project " + ", ".join(f"p{i}" for i in range(blocks)) + ".")
    text = "\n".join(lines) + "\n"
    if seed:
        text = _ATOM.sub(_renamer(seed), text)
    return text


_ATOM = re.compile(r"[pqxy]\d+(?:_\d+)?")
_TAIL = string.ascii_lowercase + string.digits + "_"


def _renamer(seed: int):
    rng = random.Random(seed)
    names: dict[str, str] = {}
    used = {"not"}

    def rename(m: re.Match) -> str:
        old = m.group()
        new = names.get(old)
        if new is None:
            new = "not"
            while new in used:
                new = rng.choice(string.ascii_lowercase) + "".join(rng.choices(_TAIL, k=len(old) - 1))
            used.add(new)
            names[old] = new
        return new

    return rename


def workload_text(w: Workload, seed: int) -> str:
    return chain_k(w.blocks, w.k, w.variant, w.project_p, seed)

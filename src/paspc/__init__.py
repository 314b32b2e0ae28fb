"""Projected answer-set counting for ground disjunctive programs by dynamic
programming over tree decompositions of the primal graph."""

from .decomposition import (
    NiceTreeDecomposition,
    PrimalGraph,
    TreeDecomposition,
    decompose,
    make_nice,
    primal_graph,
    validate_td,
)
from .engine import TabledTreeDecomposition, has_solution, purge, run_dp
from .formats import ParseDiagnostic, ParseError, parse_program, print_program, read_td, write_td
from .oracle import enumerate_answer_sets, projected_count
from .phc import PhcAlgorithm
from .pipeline import SolveResult, pick_algorithm, solve
from .prim import PrimAlgorithm
from .program import Program, ProgramClass, ProgramKind, Rule, classify
from .proj import ProjTables, final_count, run_proj

__version__ = "0.1.0"

__all__ = [
    "NiceTreeDecomposition",
    "PrimalGraph",
    "TreeDecomposition",
    "decompose",
    "make_nice",
    "primal_graph",
    "validate_td",
    "TabledTreeDecomposition",
    "has_solution",
    "purge",
    "run_dp",
    "ParseDiagnostic",
    "ParseError",
    "parse_program",
    "print_program",
    "read_td",
    "write_td",
    "enumerate_answer_sets",
    "projected_count",
    "PhcAlgorithm",
    "PrimAlgorithm",
    "SolveResult",
    "pick_algorithm",
    "solve",
    "Program",
    "ProgramClass",
    "ProgramKind",
    "Rule",
    "classify",
    "ProjTables",
    "final_count",
    "run_proj",
]

"""Workbench for generalized Tribonacci sequences: exact terms at any
integer index, mechanically derived addition formulas, and finite-window
certification of linear, quadratic, and cubic identities."""

from .certify import (
    Certificate,
    Counterexample,
    FuzzReport,
    UnsupportedTerm,
    certify,
    fuzz,
    single_coefficient_mutants,
    window_bound,
)
from .corpus import CorpusEntry, load_corpus
from .derive import (
    DegenerateOffsets,
    FormulaTemplate,
    derive_lucas_basis,
    derive_tribonacci_basis,
    swap_roles,
    template_to_ast,
)
from .dsl import IdentityAst, ParseError, degree_profile, parse, render
from .fasteval import (
    VerificationMismatch,
    bench,
    fast_term,
    matrix_power_term,
    mul_count,
    reset_mul_count,
)
from .linalg import SingularSystem, det_exact, solve_exact
from .sequences import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    basis_decomposition,
    term,
    term_range,
)

__all__ = [
    "Certificate",
    "CorpusEntry",
    "Counterexample",
    "DegenerateOffsets",
    "FormulaTemplate",
    "FuzzReport",
    "IdentityAst",
    "ParseError",
    "SeedVector",
    "SingularSystem",
    "TRIBONACCI",
    "TRIBONACCI_LUCAS",
    "UnsupportedTerm",
    "VerificationMismatch",
    "basis_decomposition",
    "bench",
    "certify",
    "degree_profile",
    "derive_lucas_basis",
    "derive_tribonacci_basis",
    "det_exact",
    "fast_term",
    "fuzz",
    "load_corpus",
    "matrix_power_term",
    "mul_count",
    "parse",
    "render",
    "reset_mul_count",
    "single_coefficient_mutants",
    "solve_exact",
    "swap_roles",
    "template_to_ast",
    "term",
    "term_range",
    "window_bound",
]

__version__ = "0.1.0"

"""Workbench for generalized Tribonacci sequences: exact terms at any
integer index, mechanically derived addition formulas, and finite-window
certification of linear, quadratic, and cubic identities.

The function ``certify`` is re-exported here under its submodule's name, so
the attribute ``tribkit.certify`` is the function, and so is ``m`` after
``import tribkit.certify as m``.  ``from tribkit.certify import ...`` reads
the module as usual, and ``importlib.import_module("tribkit.certify")``
returns it.
"""

from .certify import (
    Certificate,
    Counterexample,
    UnsupportedTerm,
    certify,
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
from .numtext import format_int
from .fasteval import (
    VerificationMismatch,
    bench,
    fast_term,
    matrix_power_term,
    mul_count,
    reset_mul_count,
)
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
    "IdentityAst",
    "ParseError",
    "SeedVector",
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
    "fast_term",
    "format_int",
    "load_corpus",
    "matrix_power_term",
    "mul_count",
    "parse",
    "render",
    "reset_mul_count",
    "single_coefficient_mutants",
    "swap_roles",
    "template_to_ast",
    "term",
    "term_range",
    "window_bound",
]

__version__ = "0.1.0"

"""Mechanical derivation of addition formulas.

A formula template expresses den * W(r+s) as a sum over three shifted W
terms, each multiplied by an integer combination of shifted Tribonacci (T)
or Tribonacci-Lucas (K) values.  Specializing s to three values that
collapse the unknown coefficients gives a 3x3 integer anchor system M,
whose entries B(n) are dot products of ``sequences.basis_decomposition(n)``
with the basis seed.  M is inverted through its integer cofactors and
det M, and all basis shifts are rewritten into a fixed canonical basis:
the coordinates of B(s+k) over B(s+j0), B(s+j0+1), B(s+j0+2) are
``basis_decomposition(k - j0)``, since B, like every sequence obeying the
recurrence, is fixed by three consecutive values.  The integer table over
det M is then reduced by g = gcd(det M, all entries), signed so that the
denominator |det M| / g is positive.  det M = 0 raises DegenerateOffsets.

Price.  The anchors B(o_i - o_j) and the coordinates, entries of
``basis_decomposition(-o_j - j0)`` (terms of solutions with unit-vector
seeds), lie at indices of size at most t = 2 max|o| + 2, so each has at most
b = ``term_bits``(B's seed, t, t) bits.  det M and every table entry is a
sum of six products of three of them, of at most 3b + 3 bits, and g only
shrinks them: ``output_bits`` = 30 (b + 1) bounds all ten.

Since B(a + b) = sum_jk Z_a,j Z_b,k B(j + k) with Z_n =
``basis_decomposition(n)``, M factors as C·H·Dᵀ: C has rows Z(o_i), D has
rows Z(-o_i), and H = [B(j + k)] is the basis's Hankel matrix, with
det H = -1 for T and -44 for K.  So DegenerateOffsets is
raised exactly when det C · det D = 0.  A formula exists whenever
det C != 0, because the W(r + o_i) then span every solution of the
recurrence; the refusals with det C != 0 = det D are spurious.  Of the
2,300 triples in [-12, 12], 46 have no formula and 46 more, such as
(-12, -11, -8), are refused although one exists (in either basis).

Canonical coefficient bases: {T(s-1), T(s), T(s+1)} for the T basis and
{K(s-2), K(s-1), K(s)} for the K basis.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import dsl
from .fasteval import matrix_power_term, term_bits
from .sequences import NAMED, basis_decomposition

#: Index of the first canonical basis element relative to s, per basis.
CANONICAL_BASE = {"T": -1, "K": -2}


class DegenerateOffsets(ValueError):
    """The anchor system for these offsets is singular."""


class FormulaTemplate(NamedTuple):
    """den * W(r+s) = sum_i (sum_j coeffs[i][j] * B(s+j0+j)) * W(r+offsets[i])

    where B is the basis sequence (T or K) and j0 = CANONICAL_BASE[basis].
    Offsets are sorted; the integer coefficient table and denominator share
    no common factor; the denominator is positive.
    """

    basis: str
    offsets: tuple[int, int, int]
    coeffs: tuple[tuple[int, int, int], ...]
    denominator: int


def _derive(basis: str, offsets: tuple[int, int, int]) -> FormulaTemplate:
    if len(set(offsets)) != 3:
        raise ValueError(f"offsets must be pairwise distinct, got {offsets}")
    offsets = tuple(sorted(offsets))
    seed = NAMED[basis]
    base = CANONICAL_BASE[basis]
    # Anchor system: specializing s in W(r+s) = sum_j f_j B(s - offsets[j])
    # at s = offsets[i] gives W(r+offsets[i]) = sum_j M[i][j] f_j.  It is
    # inverted by cofactors, so det M != 0 is all it needs (module docstring).
    m = [[matrix_power_term(seed, oi - oj) for oj in offsets] for oi in offsets]
    # cof[i][j] is the cofactor of M[i][j], so (M^-1)[j][i] = cof[i][j] / det.
    cof = [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]
    det = sum(m[0][j] * cof[0][j] for j in range(3))
    if det == 0:
        raise DegenerateOffsets(
            f"{basis}-basis anchor system is singular for offsets {offsets}"
        )
    # Coefficient of W(r+offsets[i]) is sum_j cof[i][j] * B(s - offsets[j])
    # over det.  Rewrite anchors into the canonical basis.
    coords = [basis_decomposition(-oj - base) for oj in offsets]
    table = [
        [sum(cof[i][j] * coords[j][col] for j in range(3)) for col in range(3)]
        for i in range(3)
    ]
    g = gcd(det, *[c for row in table for c in row])
    if det < 0:
        g = -g
    return FormulaTemplate(
        basis=basis,
        offsets=offsets,
        coeffs=tuple(tuple(c // g for c in row) for row in table),
        denominator=det // g,
    )


def output_bits(basis: str, offsets) -> int:
    """A bound on the bits of ``_derive``'s output, from the offsets alone (module docstring)."""
    t = 2 * max(map(abs, offsets)) + 2
    return 30 * (term_bits(NAMED[basis], t, t) + 1)


def derive_tribonacci_basis(o1: int, o2: int, o3: int) -> FormulaTemplate:
    """Addition formula with coefficients built from Tribonacci values."""
    return _derive("T", (o1, o2, o3))


def derive_lucas_basis(o1: int, o2: int, o3: int) -> FormulaTemplate:
    """Addition formula with coefficients built from Tribonacci-Lucas values."""
    return _derive("K", (o1, o2, o3))


def _formula_ast(t: FormulaTemplate, on_s: str, on_r: str) -> dsl.IdentityAst:
    """The template's den * W(r+s) = sum of c * on_s(s+j0+j) * on_r(r+o).
    Each (o, j) gives its own monomial: ``dsl.identity`` only drops zeros."""
    base = CANONICAL_BASE[t.basis]
    rhs = {
        tuple(sorted([((on_s, ("s",), base + j), 1), ((on_r, ("r",), off), 1)])): c
        for off, row in zip(t.offsets, t.coeffs)
        for j, c in enumerate(row)
    }
    return dsl.identity({((("W", ("r", "s"), 0), 1),): t.denominator}, rhs)


def template_to_ast(t: FormulaTemplate) -> dsl.IdentityAst:
    """The template's identity as a DSL AST."""
    return _formula_ast(t, t.basis, "W")


def swap_roles(t: FormulaTemplate) -> dsl.IdentityAst:
    """Role-swapped identity: W and the basis symbol trade places on every
    single-variable factor, so W combinations multiply shifted basis terms.

    Emitted as an AST to be validated by the certifier, not assumed correct
    by construction.
    """
    return _formula_ast(t, "W", t.basis)

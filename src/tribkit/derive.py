"""Mechanical derivation of addition formulas.

A formula template expresses den * W(r+s) as a sum over three shifted W
terms, each multiplied by an integer combination of shifted Tribonacci (T)
or Tribonacci-Lucas (K) values.  Specializing s to three values that
collapse the unknown coefficients gives a 3x3 integer anchor system M,
whose entries B(n) are dot products of ``sequences.basis_decomposition(n)``
with the basis seed: M[i][j] = B(o_i - o_j), so its diagonal is B(0) and
six off-diagonal entries remain, each ``fasteval.matrix_power_term(B's
seed, n)`` (a table read inside ``basis_decomposition`` at |n| < 64).  M
is inverted through its integer cofactors, the adjugate written out entry
by entry, and det M, and all basis shifts are rewritten into a fixed
canonical basis: the coordinates of B(s+k) over B(s+j0), B(s+j0+1),
B(s+j0+2) are ``basis_decomposition(k - j0)``, since B, like every
sequence obeying the recurrence, is fixed by three consecutive values.  The integer table over
det M is then reduced by g = gcd(det M, all entries), signed so that the
denominator |det M| / g is positive.  det M = 0 raises DegenerateOffsets.

Price.  Each output number is priced by its own factors' indices.  By
``term_bits``, B(n) has at most 0.88 n+ + 0.44 n- + e bits (n+ = max(n, 0),
n- = max(-n, 0)), with e = 4 + the bits of B's largest seed entry (one of
them for rounding up).  det M sums, over the six permutations p, products
B(o_0 - o_p(0)) B(o_1 - o_p(1)) B(o_2 - o_p(2)) whose indices sum to 0 and
have positive part at most S = max o - min o (a 3-cycle's is S, a
transposition's one difference), so negative part at most S too: each has
at most P + 3e bits, P = ceil(1.32 S), and det M at most P + 3e + 3.  A
cofactor sums two such products with B(o_i - o_j) taken out, whose parts
are still at most S: P + 2e + 1 bits.  The coordinates, entries of
``basis_decomposition(-o_j - j0)`` (terms of solutions with unit-vector
seeds), lie at |index| <= max|o| + 2: Q = ceil(0.88 (max|o| + 2)) + 4 bits
each.  A table entry sums three cofactor-coordinate products, P + 2e + Q + 3
bits, and g only shrinks them, so ``output_bits`` = P + 3e + 3 +
9 (P + 2e + Q + 3), about 13.2 S + 7.9 max|o| bits, bounds all ten.

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

ASTs.  ``template_to_ast`` and ``swap_roles`` build a template's identity
directly in the canonical form ``dsl.identity`` would give.  The lhs is
den * W(r+s), and den > 0.  Each of the nine (offset, basis shift) pairs
is its own rhs monomial of one basis factor and one W factor, so no two
merge and none is W(r+s).  T and K sort before W, so each monomial is
(basis factor, W factor), and with both factor lists ascending (offsets
sorted, shifts j0..j0+2) the rhs is sorted as it is built; only zero
coefficients are dropped.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import dsl
from .fasteval import matrix_power_term
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
    o0, o1, o2 = offsets = tuple(sorted(offsets))
    seed = NAMED[basis]
    base = CANONICAL_BASE[basis]
    # Anchor system: specializing s in W(r+s) = sum_j f_j B(s - offsets[j])
    # at s = offsets[i] gives W(r+offsets[i]) = sum_j M[i][j] f_j, with
    # M[i][j] = mij = B(o_i - o_j) and B(0) = z on the diagonal.
    z = seed.w0
    m01, m02, m10, m12, m20, m21 = [
        matrix_power_term(seed, n)
        for n in (o0 - o1, o0 - o2, o1 - o0, o1 - o2, o2 - o0, o2 - o1)
    ]
    # cij is the cofactor of M[i][j], so (M^-1)[j][i] = cij / det.  M is
    # inverted by them, so det M != 0 is all it needs (module docstring).
    c00, c01, c02 = z * z - m12 * m21, m12 * m20 - m10 * z, m10 * m21 - z * m20
    c10, c11, c12 = m21 * m02 - m01 * z, z * z - m20 * m02, m20 * m01 - m21 * z
    c20, c21, c22 = m01 * m12 - m02 * z, m02 * m10 - z * m12, z * z - m01 * m10
    det = z * c00 + m01 * c01 + m02 * c02
    if det == 0:
        raise DegenerateOffsets(
            f"{basis}-basis anchor system is singular for offsets {offsets}"
        )
    # Coefficient of W(r+offsets[i]) is sum_j cij * B(s - offsets[j]) over
    # det.  Rewrite anchors into the canonical basis.
    (x0, x1, x2), (y0, y1, y2), (w0, w1, w2) = [basis_decomposition(-o - base) for o in offsets]
    table = [
        (p * x0 + q * y0 + r * w0, p * x1 + q * y1 + r * w1, p * x2 + q * y2 + r * w2)
        for p, q, r in ((c00, c01, c02), (c10, c11, c12), (c20, c21, c22))
    ]
    g = gcd(det, *table[0], *table[1], *table[2])
    if det < 0:
        g = -g
    return FormulaTemplate(
        basis=basis,
        offsets=offsets,
        coeffs=tuple((p // g, q // g, r // g) for p, q, r in table),
        denominator=det // g,
    )


def output_bits(basis: str, offsets) -> int:
    """A bound on the bits of ``_derive``'s output, from the offsets alone (module docstring)."""
    e = max(map(abs, NAMED[basis])).bit_length() + 4
    p = -(-132 * (max(offsets) - min(offsets)) // 100)
    q = -(-88 * (max(map(abs, offsets)) + 2) // 100) + 4
    return p + 3 * e + 3 + 9 * (p + 2 * e + q + 3)


def derive_tribonacci_basis(o1: int, o2: int, o3: int) -> FormulaTemplate:
    """Addition formula with coefficients built from Tribonacci values."""
    return _derive("T", (o1, o2, o3))


def derive_lucas_basis(o1: int, o2: int, o3: int) -> FormulaTemplate:
    """Addition formula with coefficients built from Tribonacci-Lucas values."""
    return _derive("K", (o1, o2, o3))


def _formula_ast(den: int, basis_factors, w_factors, table) -> dsl.IdentityAst:
    """den * W(r+s) = sum of table[i][j] * basis_factors[i] * w_factors[j],
    built in canonical order (module docstring, ASTs): both factor lists
    ascend, and only zero coefficients are dropped."""
    rhs = tuple([
        ((bf, wf), coeff)
        for bf, row in zip(basis_factors, table)
        for wf, coeff in zip(w_factors, row)
        if coeff
    ])
    w_rs = ((("W", ("r", "s"), 0), 1),)
    return dsl.IdentityAst(((w_rs, den),), rhs)


def template_to_ast(t: FormulaTemplate) -> dsl.IdentityAst:
    """The template's identity as a DSL AST."""
    base = CANONICAL_BASE[t.basis]
    return _formula_ast(
        t.denominator,
        [((t.basis, ("s",), base + j), 1) for j in range(3)],
        [(("W", ("r",), off), 1) for off in t.offsets],
        zip(*t.coeffs),
    )


def swap_roles(t: FormulaTemplate) -> dsl.IdentityAst:
    """Role-swapped identity: W and the basis symbol trade places on every
    single-variable factor, so W combinations multiply shifted basis terms.

    Emitted as an AST to be validated by the certifier, not assumed correct
    by construction.
    """
    base = CANONICAL_BASE[t.basis]
    return _formula_ast(
        t.denominator,
        [((t.basis, ("r",), off), 1) for off in t.offsets],
        [(("W", ("s",), base + j), 1) for j in range(3)],
        t.coeffs,
    )

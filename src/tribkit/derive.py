"""Mechanical derivation of addition formulas.

A formula template expresses den * W(r+s) as a sum over three shifted W
terms, each multiplied by an integer combination of shifted Tribonacci (T)
or Tribonacci-Lucas (K) values.  The derivation solves the 3x3 anchor
system obtained by specializing s to the three values that collapse the
unknown coefficients, then rewrites all basis shifts into a fixed canonical
basis and clears denominators.  The coordinates of B(s+k) over the
canonical basis B(s+j0), B(s+j0+1), B(s+j0+2) are
``sequences.basis_decomposition(k - j0)``, since B, like every sequence
obeying the recurrence, is fixed by three consecutive values.

Canonical coefficient bases: {T(s-1), T(s), T(s+1)} for the T basis and
{K(s-2), K(s-1), K(s)} for the K basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import dsl
from .linalg import SingularSystem, solve_exact
from .sequences import NAMED, basis_decomposition, term

#: Index of the first canonical basis element relative to s, per basis.
CANONICAL_BASE = {"T": -1, "K": -2}

#: Anchor specialization shift: T anchors solve at s = offset, K anchors at
#: s = offset - 1 (the K Casorati diagonal K(-1) = -1 is nonzero, T(0) is 0).
_ANCHOR_SHIFT = {"T": 0, "K": 1}


class DegenerateOffsets(ValueError):
    """The anchor system for these offsets is singular."""


@dataclass(frozen=True)
class FormulaTemplate:
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
    delta = _ANCHOR_SHIFT[basis]
    base = CANONICAL_BASE[basis]
    # Anchor system: specializing s in W(r+s) = sum_j f_j B(s - offsets[j] - delta)
    # at s = offsets[i] gives W(r+offsets[i]) = sum_j M[i][j] f_j.
    m = [
        [term(seed, oi - oj - delta) for oj in offsets]
        for oi in offsets
    ]
    try:
        inv_cols = [solve_exact(m, [int(i == j) for j in range(3)]) for i in range(3)]
    except SingularSystem as exc:
        raise DegenerateOffsets(
            f"{basis}-basis anchor system is singular for offsets {offsets}"
        ) from exc
    # Coefficient of W(r+offsets[i]) is sum_j inv[j][i] * B(s - offsets[j] - delta);
    # inv_cols[i][j] = (M^-1)[j][i].  Rewrite anchors into the canonical basis.
    table = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            coords = basis_decomposition(-offsets[j] - delta - base)
            for col in range(3):
                table[i][col] += inv_cols[i][j] * coords[col]
    den = lcm(*[f.denominator for row in table for f in row])
    ints = [[int(f * den) for f in row] for row in table]
    g = gcd(den, *[c for row in ints for c in row])
    return FormulaTemplate(
        basis=basis,
        offsets=offsets,
        coeffs=tuple(tuple(c // g for c in row) for row in ints),
        denominator=den // g,
    )


def derive_tribonacci_basis(o1: int, o2: int, o3: int) -> FormulaTemplate:
    """Addition formula with coefficients built from Tribonacci values."""
    return _derive("T", (o1, o2, o3))


def derive_lucas_basis(o1: int, o2: int, o3: int) -> FormulaTemplate:
    """Addition formula with coefficients built from Tribonacci-Lucas values."""
    return _derive("K", (o1, o2, o3))


def template_to_ast(t: FormulaTemplate) -> dsl.IdentityAst:
    """The template's identity as a DSL AST."""
    base = CANONICAL_BASE[t.basis]
    lhs = {(((("W", ("r", "s"), 0)), 1),): t.denominator}
    rhs: dict = {}
    for i, off in enumerate(t.offsets):
        for j, c in enumerate(t.coeffs[i]):
            if c == 0:
                continue
            mono = tuple(
                sorted([((t.basis, ("s",), base + j), 1), (("W", ("r",), off), 1)])
            )
            rhs[mono] = rhs.get(mono, 0) + c
    return dsl.identity(lhs, rhs)


def _exchange_roles(ast: dsl.IdentityAst, basis: str) -> dsl.IdentityAst:
    """Swap W and the basis symbol on every single-variable factor."""

    def swap_factor(f: dsl.Factor) -> dsl.Factor:
        sym, vs, off = f
        if len(vs) != 1:
            return f
        if sym == "W":
            return (basis, vs, off)
        if sym == basis:
            return ("W", vs, off)
        return f

    def swap_side(side):
        out: dict = {}
        for mono, coeff in side:
            m = tuple(sorted((swap_factor(f), e) for f, e in mono))
            out[m] = out.get(m, 0) + coeff
        return out

    return dsl.identity(swap_side(ast.lhs), swap_side(ast.rhs))


def swap_roles(t: FormulaTemplate) -> dsl.IdentityAst:
    """Role-swapped identity: W combinations multiplying shifted basis terms.

    Emitted as an AST to be validated by the certifier, not assumed correct
    by construction.
    """
    return _exchange_roles(template_to_ast(t), t.basis)

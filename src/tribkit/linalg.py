"""Exact rational linear algebra for small dense systems.

Rationals are ``fractions.Fraction`` (normalized by construction: positive
denominator, gcd 1).  Matrices are plain sequences of rows.  ``det_exact``
and ``solve_exact`` share one fraction-free (Bareiss) forward elimination:
cross-multiplication with exact division by the previous pivot, pivoting on
the first nonzero entry per column.  A column with no nonzero pivot raises
SingularSystem, which ``det_exact`` reports as determinant 0.  Systems here
are tiny (n <= 9), so no attention is paid to asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class SingularSystem(ValueError):
    """The coefficient matrix has zero determinant."""


def _to_rows(a: Sequence[Sequence]) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in a]
    n = len(rows)
    if n == 0 or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix must be non-empty with equal-length rows")
    return rows


def _eliminate(m: list[list[Fraction]]) -> int:
    """Eliminate the square block of the n rows of m in place.

    Columns past the block (a right-hand side) ride along.  Returns the sign
    of the row swaps: det = sign * m[n-1][n-1] afterwards.
    """
    n = len(m)
    width = len(m[0])
    sign = 1
    prev = Fraction(1)
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                raise SingularSystem(f"zero pivot in column {k}")
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign


def det_exact(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    m = _to_rows(a)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    try:
        sign = _eliminate(m)
    except SingularSystem:
        return Fraction(0)
    return sign * m[n - 1][n - 1]


def solve_exact(a: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve A x = b exactly for square A.

    Raises SingularSystem if det(A) = 0.
    """
    m = _to_rows(a)
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("solve_exact requires square A and matching b")
    for i, x in enumerate(b):
        m[i].append(Fraction(x))
    _eliminate(m)
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x

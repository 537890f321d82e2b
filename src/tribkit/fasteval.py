"""Logarithmic-time term computation and a cross-checked benchmark harness.

Kernel.  ``sequences.square_and_shift`` over the bits of |m| gives
c = (c0, c1, c2) = ``basis_decomposition(m)``, the coefficients of x^m
modulo f = x^3 - x^2 - x - 1, with five squares per bit.  Since f annihilates every sequence at every
shift, W(m + s) = c0*W(s) + c1*W(s+1) + c2*W(s+2) for all integers m, s.

Finish.  For n = 2m + o with m = n // 2 and o in {0, 1}, applying that twice
gives the seed's Hankel form at c:

    W(n) = sum over i, j of c_i * c_j * W(i+j+o) = c^T H c,  H[i][j] = W(i+j+o)

(the paper's four-term addition formula, written in the monomial basis and
applied twice).  Lagrange's reduction of Q(x) = x^T H x gives
den * Q(x) = sum k * L(x)^2 with three integer linear forms L and small
integers k, den, so the finish costs three squares at x = c and one exact
division by den.  W(o..o+4) come from the seed by additions.  Pivots are
symmetric, on the diagonal entry of least nonzero absolute value:

    a * Q(x) = (a*x_i + b*x_j + c*x_k)^2 + R(x_j, x_k)

with a = H[i][i], b = H[i][j], c = H[i][k] and R = [[p, q], [q, r]],
p = a*H[j][j] - b^2, q = a*H[j][k] - b*c, r = a*H[k][k] - c^2.  Then
p * R = (p*x_j + q*x_k)^2 + (p*r - q^2) * x_k^2, or, when R has a zero
diagonal, the 2x2 pivot 2 * R = q * ((x_j + x_k)^2 - (x_j - x_k)^2).

Soundness.  Every step is an exact polynomial identity once the pivot is
nonzero.  For a nonzero seed H is nonsingular: if H v = 0, then
g(t) = sum v_j W(t+j) obeys the recurrence and vanishes at t = o, o+1, o+2,
so g = 0 and v(x) = sum v_j x^j annihilates W.  The annihilating
polynomials of W form an ideal of Q[x] that contains f; its generator
divides f and is nonconstant because W is nonzero.  f is irreducible over
Q (a cubic whose only candidate rational roots, +1 and -1, are not roots),
so the generator is f, and v, of degree at most 2, is 0.
Hence some diagonal entry W(o), W(o+2), W(o+4) is nonzero (a Hankel H with
all three zero has two proportional rows), and det R = a * det H != 0, so R
has a nonzero diagonal entry or q != 0.  The zero seed gives 0.

Squares.  Each kernel step's five squares and the finish's three are
independent, so each set is one ``sequences._squares`` batch, and every
square goes through ``sequences._square``.  Past ``sequences._TOOM4_BITS``
bits an operand is squared by Toom-4, and past ``sequences._SPLIT_BITS``
bits a batch is shared with a forked worker process on a second CPU; the
sizes, their measurements and the algorithms are documented there.  The
values and ``mul_count`` are the same either way.

``mul_count`` counts the big-integer squares of the algorithm
``fast_term`` performs: 5 per bit of |m| in the kernel and 3 in the
finish, so fast_term(seed, 2**k) performs 5k + 3.  A square that Toom-4
splits still counts once; its seven sub-squares are not counted.  Products
by seed-sized integers are linear in the operand size and not counted;
``basis_decomposition`` calls made elsewhere (certify, derive) do not
count.

``matrix_power_term`` is the dot product of the seed with
``basis_decomposition(n)`` (a table read at |n| < 64), the one way certify
and derive compute a term; it never runs the finish.  The ``double`` and
``matrix`` strategies of ``bench`` share the kernel, so ``iterate`` (the
linear recurrence) is the independent check.

Prices.  ``bench_bits`` bounds bench's values by ``term_bits`` at each n and
the terms ``iterate`` (``sequences.term``) passes by term_bits(T, min(n, 0),
max(n, 0)).  For n < 0 they are W(n..2): W(1) and W(2) have a bit each, and
W(0) = 0, priced at 4, has none.  For n >= 0 they are W(0..n+2):
T(k) <= 1.8393^(k-1) for k >= 1 leaves over 3.8 of each index's priced bits
unused, together more than the at most 1.76 n + 2.9 bits of W(n+1), W(n+2).
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from .sequences import TRIBONACCI, SeedVector, _squares, basis_decomposition, square_and_shift, term

_mul_count = 0


def mul_count() -> int:
    """Number of counted big-integer multiplications since the last reset."""
    return _mul_count


def reset_mul_count() -> None:
    global _mul_count
    _mul_count = 0


def fast_term(seed: SeedVector, n: int) -> int:
    """W(n) exactly, in O(log |n|) squares.

    The Hankel form of the seed evaluated at ``basis_decomposition(n // 2)``
    by three squares; the module docstring has the derivation.
    """
    global _mul_count
    w0, w1, w2 = seed
    if not (w0 or w1 or w2):
        return 0
    m = n // 2
    bits = bin(abs(m))[2:]
    # basis_decomposition(m) without its small-index table: mul_count
    # counts only squares performed
    x = square_and_shift(1, 0, 0, bits, m > 0)
    _mul_count += 5 * len(bits) + 3
    w3 = w0 + w1 + w2
    w4 = w1 + w2 + w3
    # h[t] = W(t + o), H[i][j] = h[i + j]
    h = (w0, w1, w2, w3, w4) if n == 2 * m else (w1, w2, w3, w4, w2 + w3 + w4)
    i = min((0, 1, 2), key=lambda t: abs(h[2 * t]) or math.inf)
    j, k = (1, 2) if i == 0 else (0, 2) if i == 1 else (0, 1)
    a, b, c = h[2 * i], h[i + j], h[i + k]
    l1 = a * x[i] + b * x[j] + c * x[k]
    p = a * h[2 * j] - b * b
    q = a * h[j + k] - b * c
    r = a * h[2 * k] - c * c
    if not p or (r and abs(r) < abs(p)):
        j, k, p, r = k, j, r, p
    xj, xk = x[j], x[k]
    if p:
        s1, s2, s3 = _squares((l1, p * xj + q * xk, xk))
        den, total = a * p, p * s1 + s2 + (p * r - q * q) * s3
    else:
        s1, s2, s3 = _squares((l1, xj + xk, xj - xk))
        den, total = 2 * a, 2 * s1 + q * (s2 - s3)
    return total // den


class OverBudget(Exception):
    """Work priced past a limit from the arguments alone, before any arithmetic."""


def term_bits(seed: SeedVector, lo: int, hi: int) -> int:
    """An upper bound on the total bit length of W(lo), ..., W(hi), from the
    indices and the seed alone: no term is computed.

    W(n) = A a^n + B b^n + C c^n over the roots of x^3 - x^2 - x - 1, with
    a = 1.8393, |b| = |c| = a^(-1/2) and |A| + |B| + |C| < 3.19 max |w_i|.
    So W(n) has at most 0.88 bits per step of n > 0 (log2 a = 0.8791) and
    0.44 per step of n < 0, plus the seed's bits, plus 3.  0 for lo > hi.
    """
    if lo > hi:
        return 0
    steps = 88 * _index_sum(lo, hi) + 44 * _index_sum(-hi, -lo)
    return -(-steps // 100) + (hi - lo + 1) * (max(map(abs, seed)).bit_length() + 3)


def bench_bits(ns: list[int]) -> tuple[int, int]:
    """Bounds on the bits of ``bench``'s values and of ``iterate``'s terms (module docstring)."""
    values = sum(term_bits(TRIBONACCI, n, n) for n in ns)
    return values, sum(term_bits(TRIBONACCI, min(n, 0), max(n, 0)) for n in ns)


def _index_sum(a: int, b: int) -> int:
    """The sum of n over max(a, 1) <= n <= b."""
    a = max(a, 1)
    return (a + b) * (b - a + 1) // 2 if a <= b else 0


def matrix_power_term(seed: SeedVector, n: int) -> int:
    """W(n) as the dot product of ``basis_decomposition(n)`` with the seed.

    Independent of the addition formula.
    """
    c0, c1, c2 = basis_decomposition(n)
    w0, w1, w2 = seed
    return c0 * w0 + c1 * w1 + c2 * w2


_LOG10_2 = math.log10(2)


def digit_count(value: int) -> int:
    """Number of decimal digits of |value|, exact for any integer.

    Estimates the count from the bit length, then corrects it against
    powers of ten, so it never converts the value to a string.
    """
    v = abs(value)
    if v == 0:
        return 1
    # exact or one short, barring float rounding, which the loops also fix
    d = int((v.bit_length() - 1) * _LOG10_2) + 1
    p = 10 ** (d - 1)
    while p > v:
        d, p = d - 1, p // 10
    while p * 10 <= v:
        d, p = d + 1, p * 10
    return d


class VerificationMismatch(RuntimeError):
    """Benchmark strategies disagreed on a value."""


STRATEGIES = {
    "iterate": term,
    "double": fast_term,
    "matrix": matrix_power_term,
}


class BenchRow(NamedTuple):
    n: int
    strategy: str
    nanoseconds: int
    digits: int


def bench(
    ns: list[int],
    strategies: tuple[str, ...] = ("iterate", "double", "matrix"),
) -> list[BenchRow]:
    """Time each strategy on T(n) for each index n, verifying agreement first."""
    if not ns:
        raise ValueError("bench requires at least one index")
    if not strategies:
        raise ValueError("bench requires at least one strategy")
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")
    repeated = {name for name in strategies if strategies.count(name) > 1}
    if repeated:
        raise ValueError(f"repeated strategies: {sorted(repeated)}")
    rows = []
    for n in ns:
        results = {}
        timings = {}
        for name in strategies:
            fn = STRATEGIES[name]
            start = time.perf_counter_ns()
            value = fn(TRIBONACCI, n)
            timings[name] = time.perf_counter_ns() - start
            results[name] = value
        if len(set(results.values())) != 1:
            raise VerificationMismatch(
                f"strategies disagree at n={n}: "
                + ", ".join(f"{k}={v}" for k, v in results.items())
            )
        digits = digit_count(next(iter(results.values())))
        for name in strategies:
            rows.append(BenchRow(n, name, timings[name], digits))
    return rows

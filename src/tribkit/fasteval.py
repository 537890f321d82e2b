"""Logarithmic-time term computation and a cross-checked benchmark harness.

Everything rests on the addition formula, which holds for all integers r, s:

    W(r+s) = T(s-1)*W(r-1) + (T(s-1) + T(s-2))*W(r) + T(s)*W(r+1)

Doubling.  With (p, q, u) = (T(n-1), T(n), T(n+1)), the formula at r = s
(and its neighbours) gives

    T(2n)   = p^2 + 2qu - q^2
    T(2n+1) = q^2 + u^2 + 2pq
    T(2n+2) = q^2 + u^2 + 2qu + 2pu
    T(2n-1) = T(2n+2) - T(2n+1) - T(2n)

three squares and three products per doubling.  A single step forward or
backward after a doubling costs no multiplication, so negative indices use
the same loop.

Finish.  ``fast_term`` doubles only up to m = n // 2 and takes k = n - m.
W(k-1), W(k), W(k+1) come from T(m-4..m+1) through the basis decomposition
W(j) = w0*T(j-2) + w1*(T(j-2) + T(j-3)) + w2*T(j-1), which only scales terms
by seed entries; the formula at r = k, s = m then needs three half-size
products instead of a full-size doubling.

``mul_count`` counts the multiplications of two terms: 6 per doubling and 3
in the finish, so fast_term(seed, 2**k) performs 6k + 3.  Seed scalings are
linear in the operand size and not counted.

``matrix_power_term`` is the independent oracle: the dot product of the
seed with ``sequences.basis_decomposition(n)``, the coefficients of x^n
modulo the characteristic polynomial x^3 - x^2 - x - 1 by square-and-shift.
It never uses the addition formula.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .sequences import TRIBONACCI, SeedVector, basis_decomposition, term

_mul_count = 0


def mul_count() -> int:
    """Number of counted big-integer multiplications since the last reset."""
    return _mul_count


def reset_mul_count() -> None:
    global _mul_count
    _mul_count = 0


def _mul(a: int, b: int) -> int:
    global _mul_count
    _mul_count += 1
    return a * b


def _double(p: int, q: int, u: int) -> tuple[int, int, int, int]:
    """Map (T(n-1), T(n), T(n+1)) to (T(2n-1), T(2n), T(2n+1), T(2n+2)).

    Three squares and three products of window entries.
    """
    qq, uu = _mul(q, q), _mul(u, u)
    qu2 = 2 * _mul(q, u)
    even = _mul(p, p) + qu2 - qq  # T(2n)
    odd = qq + uu + 2 * _mul(p, q)  # T(2n+1)
    next_even = qq + uu + qu2 + 2 * _mul(p, u)  # T(2n+2)
    return next_even - odd - even, even, odd, next_even


def _trib_window(n: int) -> tuple[int, int, int]:
    """(T(n-1), T(n), T(n+1)) for any integer n, in O(log |n|) steps."""
    p, q, u = 0, 0, 1  # window at index 0
    if n == 0:
        return p, q, u
    forward = n > 0
    for bit in bin(abs(n))[2:]:
        a, b, c, d = _double(p, q, u)  # T(2j-1), T(2j), T(2j+1), T(2j+2)
        if bit == "0":
            p, q, u = a, b, c
        elif forward:
            p, q, u = b, c, d
        else:
            p, q, u = c - b - a, a, b
    return p, q, u


def fast_term(seed: SeedVector, n: int) -> int:
    """W(n) exactly, in O(log |n|) multiplications.

    The T window is doubled up to m = n // 2 only; the addition formula at
    r = k = n - m, s = m then finishes with three half-size products.
    """
    m = n // 2
    p, q, u = _trib_window(m)
    t = [p, q, u]
    for _ in range(3):
        t.insert(0, t[2] - t[1] - t[0])
    # t[i] = T(m-4+i).  W(k-1), W(k), W(k+1) for k = n - m by the basis
    # decomposition W(j) = (w0+w1)*T(j-2) + w1*T(j-3) + w2*T(j-1), where
    # T(j-3) = t[j-m+1]: seed scalings only, linear in the operand size.
    w0, w1, w2 = seed
    o = n - 2 * m  # k - m, 0 or 1
    w = [(w0 + w1) * t[i + 1] + w1 * t[i] + w2 * t[i + 2] for i in (o, o + 1, o + 2)]
    return _mul(p, w[0]) + _mul(p + t[2], w[1]) + _mul(q, w[2])


def matrix_power_term(seed: SeedVector, n: int) -> int:
    """W(n) as the dot product of ``basis_decomposition(n)`` with the seed.

    Independent of the addition formula.
    """
    c0, c1, c2 = basis_decomposition(n)
    return c0 * seed.w0 + c1 * seed.w1 + c2 * seed.w2


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


@dataclass(frozen=True)
class BenchRow:
    n: int
    strategy: str
    nanoseconds: int
    digits: int


def bench(
    ns: list[int],
    strategies: tuple[str, ...] = ("iterate", "double", "matrix"),
    seed: SeedVector = TRIBONACCI,
) -> list[BenchRow]:
    """Time each strategy on each index, verifying agreement first."""
    if not ns:
        raise ValueError("bench requires at least one index")
    if not strategies:
        raise ValueError("bench requires at least one strategy")
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")
    rows = []
    for n in ns:
        results = {}
        timings = {}
        for name in strategies:
            fn = STRATEGIES[name]
            start = time.perf_counter_ns()
            value = fn(seed, n)
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

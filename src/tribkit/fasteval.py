"""Logarithmic-time term computation and a cross-checked benchmark harness.

The doubling step keeps the Tribonacci window (T(n-1), T(n), T(n+1)) and
maps index n to 2n with the addition formula

    T(r+s) = T(s-1)*T(r-1) + (T(s-1) + T(s-2))*T(r) + T(s)*T(r+1)

specialized to (r, s) in {(n-1, n), (n, n), (n, n+1)}.  The formula holds
for all integers, so negative targets are reached by the same doubling with
backward single steps.  General seeds are combined at the end via the basis
decomposition W(n) = w0*T(n-2) + w1*(T(n-2) + T(n-3)) + w2*T(n-1).

Each doubling performs 9 counted big-integer multiplications and each
single step none, so the total count is at most 9*log2(|n|) + O(1).
"""

from __future__ import annotations

import decimal
import time
from dataclasses import dataclass

from .sequences import TRIBONACCI, SeedVector, term

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


def _double(p: int, q: int, u: int) -> tuple[int, int, int]:
    """Map (T(n-1), T(n), T(n+1)) to (T(2n-1), T(2n), T(2n+1))."""
    t2 = u - q - p  # T(n-2)
    return (
        _mul(p, t2) + _mul(p + t2, p) + _mul(q, q),
        _mul(p, p) + _mul(p + t2, q) + _mul(q, u),
        _mul(q, p) + _mul(q + p, q) + _mul(u, u),
    )


def _trib_window(n: int) -> tuple[int, int, int]:
    """(T(n-1), T(n), T(n+1)) for any integer n, in O(log |n|) steps."""
    p, q, u = 0, 0, 1  # window at index 0
    if n == 0:
        return p, q, u
    forward = n > 0
    for bit in bin(abs(n))[2:]:
        p, q, u = _double(p, q, u)
        if bit == "1":
            if forward:
                p, q, u = q, u, p + q + u
            else:
                p, q, u = u - q - p, p, q
    return p, q, u


def fast_term(seed: SeedVector, n: int) -> int:
    """W(n) by binary doubling; exact, O(log |n|) multiplications."""
    p, q, u = _trib_window(n)
    t2 = u - q - p  # T(n-2)
    t3 = q - p - t2  # T(n-3)
    return _mul(seed.w0, t2) + _mul(seed.w1, t2 + t3) + _mul(seed.w2, p)


_COMPANION = ((1, 1, 1), (1, 0, 0), (0, 1, 0))
# Exact integer inverse; the companion determinant is 1.
_COMPANION_INV = ((0, 1, 0), (0, 0, 1), (1, -1, -1))
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def matrix_power_term(seed: SeedVector, n: int) -> int:
    """W(n) via exponentiation-by-squaring of the companion matrix."""
    base = _COMPANION if n >= 0 else _COMPANION_INV
    e = abs(n)
    acc = _IDENTITY
    sq = base
    while e:
        if e & 1:
            acc = _mat_mul(acc, sq)
        sq = _mat_mul(sq, sq)
        e >>= 1
    # acc maps (W2, W1, W0) to (W(n+2), W(n+1), W(n)).
    return sum(c * w for c, w in zip(acc[2], (seed.w2, seed.w1, seed.w0)))


def digit_count(value: int) -> int:
    """Number of decimal digits of |value|, safe for very large integers.

    Goes through ``decimal`` to sidestep CPython's int-to-str digit limit.
    """
    if value == 0:
        return 1
    return len(decimal.Decimal(abs(value)).as_tuple().digits)


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

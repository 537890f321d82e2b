"""Exact evaluation of generalized Tribonacci sequences at any integer index.

A sequence is determined by its seed window (w0, w1, w2) and the order-3
recurrence W(n) = W(n-1) + W(n-2) + W(n-3), extended to negative indices by
the inverted recurrence W(n) = W(n+3) - W(n+2) - W(n+1).  All arithmetic is
exact Python integer arithmetic; no rounding occurs anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SeedVector:
    """Seed window (W0, W1, W2) of a generalized Tribonacci sequence.

    The all-zero seed is permitted; the certifier's seed grids need it.
    """

    w0: int
    w1: int
    w2: int

    def __iter__(self):
        return iter((self.w0, self.w1, self.w2))

    def __add__(self, other: "SeedVector") -> "SeedVector":
        return SeedVector(self.w0 + other.w0, self.w1 + other.w1, self.w2 + other.w2)


#: The Tribonacci sequence T: 0, 1, 1, 2, 4, 7, 13, ...
TRIBONACCI = SeedVector(0, 1, 1)

#: The Tribonacci-Lucas sequence K: 3, 1, 3, 7, 11, 21, ...
TRIBONACCI_LUCAS = SeedVector(3, 1, 3)

#: The named sequences the DSL and the CLI refer to by symbol.
NAMED = {"T": TRIBONACCI, "K": TRIBONACCI_LUCAS}


def term(seed: SeedVector, n: int) -> int:
    """Return W(n) for the sequence with the given seed window.

    Forward recurrence for n >= 3, backward recurrence for n < 0.
    Total over all integer n.
    """
    a, b, c = seed
    if n >= 0:
        for _ in range(n):
            a, b, c = b, c, a + b + c
        return a
    for _ in range(-n):
        a, b, c = c - b - a, a, b
    return a


def term_range(seed: SeedVector, lo: int, hi: int) -> list[int]:
    """Return [W(lo), ..., W(hi)] in one linear pass.

    Raises ValueError if lo > hi.
    """
    if lo > hi:
        raise ValueError(f"term_range: lo ({lo}) must not exceed hi ({hi})")
    # Window (a, b, c) = (W(lo), W(lo+1), W(lo+2)).
    a, b, c = seed
    if lo >= 0:
        for _ in range(lo):
            a, b, c = b, c, a + b + c
    else:
        for _ in range(-lo):
            a, b, c = c - b - a, a, b
    out = []
    for _ in range(hi - lo + 1):
        out.append(a)
        a, b, c = b, c, a + b + c
    return out


def basis_decomposition(n: int) -> tuple[int, int, int]:
    """Coordinates (a, b, c) with W(n) = w0*a + w1*b + w2*c for every seed.

    In Tribonacci terms: (T(n-2), T(n-2) + T(n-3), T(n-1)).
    """
    t3, t2, t1 = term_range(TRIBONACCI, n - 3, n - 1)
    return (t2, t2 + t3, t1)

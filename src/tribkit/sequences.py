"""Exact evaluation of generalized Tribonacci sequences at any integer index.

A sequence is determined by its seed window (w0, w1, w2) and the order-3
recurrence W(n) = W(n-1) + W(n-2) + W(n-3), extended to negative indices by
the inverted recurrence W(n) = W(n+3) - W(n+2) - W(n+1).  All arithmetic is
exact Python integer arithmetic; no rounding occurs anywhere.
"""

from __future__ import annotations

from typing import NamedTuple


class SeedVector(NamedTuple):
    """Seed window (W0, W1, W2) of a generalized Tribonacci sequence.

    The all-zero seed is permitted; the certifier's seed grids need it.
    """

    w0: int
    w1: int
    w2: int


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
    """Return [W(lo), ..., W(hi)].

    The first window jumps to lo through the x^n mod f kernel: with
    c = ``basis_decomposition(lo)``, W(lo+j) = sum_i c_i W(i+j) since
    x^(lo+j) = x^lo * x^j, and W(0..4) come from the seed by additions.
    The recurrence gives the rest, so the cost is O(log |lo| + hi - lo)
    operations; ``term`` stays the linear-time reference.

    Raises ValueError if lo > hi.
    """
    if lo > hi:
        raise ValueError(f"term_range: lo ({lo}) must not exceed hi ({hi})")
    w0, w1, w2 = seed
    w3 = w0 + w1 + w2
    w4 = w1 + w2 + w3
    c0, c1, c2 = basis_decomposition(lo)
    a = c0 * w0 + c1 * w1 + c2 * w2
    b = c0 * w1 + c1 * w2 + c2 * w3
    c = c0 * w2 + c1 * w3 + c2 * w4
    out = []
    for _ in range(hi - lo + 1):
        out.append(a)
        a, b, c = b, c, a + b + c
    return out


def basis_decomposition(n: int) -> tuple[int, int, int]:
    """Coordinates (c0, c1, c2) with W(n) = w0*c0 + w1*c1 + w2*c2 for every seed.

    They are the coefficients of x^n mod x^3 - x^2 - x - 1: the shift
    operator satisfies the characteristic polynomial on every sequence
    (Cayley-Hamilton; Fiduccia 1985).  Square-and-shift over the bits of
    |n|, O(log |n|) steps; negative n shifts by x^-1 = x^2 - x - 1.

    Each step costs five squares (``square_and_shift``).  |n| < 64, the
    indices certify and derive ask for over and over, read a table that the
    same loop fills at import.
    """
    if -64 < n < 64:
        return _SMALL_POWERS[n]
    return square_and_shift(1, 0, 0, bin(abs(n))[2:], n > 0)


def square_and_shift(c0: int, c1: int, c2: int, bits: str, forward: bool) -> tuple[int, int, int]:
    """For each bit of ``bits``: square c0 + c1*x + c2*x^2 modulo
    x^3 - x^2 - x - 1, then on a "1" multiply by x (``forward``) or x^-1.

    Squaring takes five big-integer squares: Toom-3 at the points 0, 1,
    -1, -2 and infinity (Chung & Hasan, "Asymmetric squaring formulae",
    ARITH 2007).  Interpolation needs only exact halvings and one exact
    division by 3; the square's coefficients d0..d4 reduce by
    x^3 = x^2 + x + 1 and x^4 = 2x^2 + 2x + 1.  One loop, no call per bit.
    """
    for bit in bits:
        v0 = c0 * c0  # d0
        v4 = c2 * c2  # d4
        p = c0 + c2
        q = p - c1
        p += c1
        r = q + 3 * c2 - c1  # c0 - 2c1 + 4c2
        p *= p  # d0 + d1 + d2 + d3 + d4
        q *= q  # d0 - d1 + d2 - d3 + d4
        r *= r  # d0 - 2d1 + 4d2 - 8d3 + 16d4
        t = ((q - v0 - (r - p) // 3) >> 1) + 3 * v4  # d3 + d4
        # c0 = d0 + d3 + d4, c1 = d1 + d3 + 2d4, c2 = d2 + d3 + 2d4
        c0, c1, c2 = v0 + t, ((p - q) >> 1) + 2 * v4, ((p + q) >> 1) - v0 + t
        if bit == "1":
            if forward:  # times x
                c0, c1, c2 = c2, c0 + c2, c1 + c2
            else:  # times x^-1
                c0, c1, c2 = c1 - c0, c2 - c0, c0
    return c0, c1, c2


_SMALL_POWERS = {n: square_and_shift(1, 0, 0, bin(abs(n))[2:], n > 0) for n in range(-63, 64)}

"""Answers the benchmark computes for itself.

Nothing here imports tribkit: every expected value is derived from the
definition W(n) = W(n-1) + W(n-2) + W(n-3) (extended to negative n by
W(n) = W(n+3) - W(n+2) - W(n+1)), so a defect in the program under test
cannot hide behind an identical defect in its checker.
"""

from __future__ import annotations

import ast
import cmath
import math

#: Two 61-bit primes; a big value is compared by its residues modulo both.
PRIMES = (2**61 - 1, 2**61 - 31)

#: Named seed windows (W(0), W(1), W(2)): Tribonacci and Tribonacci-Lucas.
NAMED = {"T": (0, 1, 1), "K": (3, 1, 3)}

# (W(k), W(k+1), W(k+2)) -> (W(k+1), W(k+2), W(k+3)), and its inverse.
_STEP = ((0, 1, 0), (0, 0, 1), (1, 1, 1))
_STEP_BACK = ((-1, -1, 1), (1, 0, 0), (0, 1, 0))


def term(seed, n: int) -> int:
    """W(n) by running the recurrence |n| steps; exact, for small |n|."""
    a, b, c = seed
    for _ in range(n):
        a, b, c = b, c, a + b + c
    for _ in range(-n):
        a, b, c = c - b - a, a, b
    return a


def _mat_mul(x, y, p):
    out = tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    if p is None:
        return out
    return tuple(tuple(v % p for v in row) for row in out)


def _power_term(seed, n: int, p: int | None) -> int:
    base = _STEP if n >= 0 else _STEP_BACK
    acc = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    e = abs(n)
    while e:
        if e & 1:
            acc = _mat_mul(acc, base, p)
        base = _mat_mul(base, base, p)
        e >>= 1
    value = sum(c * w for c, w in zip(acc[0], seed))
    return value if p is None else value % p


def term_mod(seed, n: int, p: int) -> int:
    """W(n) mod p by a companion-matrix power; O(log |n|) small products."""
    return _power_term(seed, n, p)


def exact_term(seed, n: int) -> int:
    """W(n) exactly by a companion-matrix power; for |n| up to about 10^5."""
    return _power_term(seed, n, None)


def residues(value: int) -> tuple[int, ...]:
    return tuple(value % p for p in PRIMES)


def range_residues(seed, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Residues of W(lo), ..., W(hi): one matrix power, then the recurrence."""
    windows = [[term_mod(seed, lo + i, p) for i in range(3)] for p in PRIMES]
    out = []
    for _ in range(hi - lo + 1):
        out.append(tuple(w[0] for w in windows))
        for w, p in zip(windows, PRIMES):
            w[:] = w[1], w[2], (w[0] + w[1] + w[2]) % p
    return out


def term_residues(seed, n: int) -> tuple[int, ...]:
    return range_residues(seed, n, n)[0]


def decimal_residues(text: str) -> tuple[int, ...] | None:
    """Residues of a printed integer, read in 18-digit chunks.

    Never converts the whole string to int, so it works past the
    interpreter's int/str digit limit.  None if the text is not a
    canonical decimal integer.
    """
    digits = text[1:] if text.startswith("-") else text
    if not digits.isdigit() or not digits.isascii():
        return None
    if (len(digits) > 1 and digits[0] == "0") or text == "-0":
        return None
    out = []
    for p in PRIMES:
        head = len(digits) % 18 or 18
        v = int(digits[:head]) % p
        for i in range(head, len(digits), 18):
            v = (v * 10**18 + int(digits[i : i + 18])) % p
        out.append(-v % p if text.startswith("-") else v)
    return tuple(out)


# Roots of x^3 - x^2 - x - 1: the real root and one of the complex pair
# (sum of the roots 1, product 1).
_ALPHA = (1 + (19 + 3 * 33**0.5) ** (1 / 3) + (19 - 3 * 33**0.5) ** (1 / 3)) / 3
_BETA = complex((1 - _ALPHA) / 2, (1 / _ALPHA - ((1 - _ALPHA) / 2) ** 2) ** 0.5)


def term_digits(seed, n: int) -> int:
    """Decimal digits of W(n), from the dominant root's closed form.

    W(n) = sum of c_i * root_i^n.  For n >= 500 the real root dominates,
    for n <= -500 the complex pair does; the estimate of log10|W(n)| is
    then good to about 1e-9.  Where it could be wrong (small |n|, a near
    cancellation, or a log10 close to an integer) the value is computed.
    """
    w0, w1, w2 = seed
    roots = (_ALPHA, _BETA, _BETA.conjugate())
    if abs(n) >= 500 and any(seed):
        i = 0 if n > 0 else 1
        r, (a, b) = roots[i], [x for j, x in enumerate(roots) if j != i]
        c = (w2 - (a + b) * w1 + a * b * w0) / ((r - a) * (r - b))
        scale = abs(w0) + abs(w1) + abs(w2)
        if n > 0:
            mag = math.log10(abs(c)) + n * math.log10(_ALPHA) if abs(c) > 1e-6 * scale else None
        else:
            cos = math.cos(n * cmath.phase(r) + cmath.phase(c))
            ok = abs(c) > 1e-6 * scale and abs(cos) > 1e-3
            mag = math.log10(2 * abs(c) * abs(cos)) + n * math.log10(abs(r)) if ok else None
        if mag is not None and min(mag % 1, 1 - mag % 1) > 1e-6:
            return math.floor(mag) + 1
    return digit_count(exact_term(seed, n))


def digit_count(value: int) -> int:
    """Decimal digits of |value| without converting it to a string."""
    value = abs(value)
    d = max(1, int((value.bit_length() - 1) * 0.30102999566398120))
    while value >= 10**d:
        d += 1
    return d


def det3(m) -> int:
    """Integer determinant of a 3x3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def anchor_det(basis: str, offsets) -> int:
    """Determinant of the derivation's anchor matrix B(o_i - o_j - shift).

    The anchor shift is 0 for the T basis and 1 for the K basis.
    """
    shift = {"T": 0, "K": 1}[basis]
    seed = NAMED[basis]
    return det3([[term(seed, oi - oj - shift) for oj in offsets] for oi in offsets])


class Identity:
    """An identity in the DSL's text form, evaluated at concrete points.

    The text is read with Python's own expression parser ("^" becomes "**"),
    not with tribkit's DSL parser.
    """

    def __init__(self, text: str):
        body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        lhs, sep, rhs = body.partition("=")
        if not sep or "=" in rhs:
            raise ValueError(f"not an identity: {text!r}")
        self.sides = tuple(
            ast.parse(side.strip().replace("^", "**"), mode="eval").body
            for side in (lhs, rhs)
        )

    def values(self, seed, r: int, s: int) -> tuple[int, int]:
        """(lhs, rhs) for the sequence W with this seed, at indices r, s."""
        seeds = {"W": tuple(seed), **NAMED}
        memo: dict = {}

        def ev(node) -> int:
            if isinstance(node, ast.Constant) and type(node.value) is int:
                return node.value
            if isinstance(node, ast.Name) and node.id in ("r", "s"):
                return r if node.id == "r" else s
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
                v = ev(node.operand)
                return -v if isinstance(node.op, ast.USub) else v
            if isinstance(node, ast.BinOp):
                x, y = ev(node.left), ev(node.right)
                if isinstance(node.op, ast.Add):
                    return x + y
                if isinstance(node.op, ast.Sub):
                    return x - y
                if isinstance(node.op, ast.Mult):
                    return x * y
                if isinstance(node.op, ast.Pow) and 0 <= y <= 64:
                    return x**y
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in seeds
                and len(node.args) == 1
                and not node.keywords
            ):
                key = (node.func.id, ev(node.args[0]))
                if key not in memo:
                    memo[key] = term(seeds[key[0]], key[1])
                return memo[key]
            raise ValueError(f"unsupported expression: {ast.dump(node)}")

        return ev(self.sides[0]), ev(self.sides[1])

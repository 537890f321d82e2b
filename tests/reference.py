"""Independent references shared by the tests.

``reevaluate`` is built only on ``term``, one call per factor, so it shares
no code with the certifier's tables; tests compare the library's results
against it.  ``degree_profile`` (three passes over an identity) and
``unsupported_message`` (the scope check) are what ``dsl.side_profile``
does in one pass.  ``term_mod`` powers the 3x3 companion matrix modulo a
prime, so it shares no code with the x^n mod f kernel; it checks terms far
beyond the reach of ``term``.  ``str_unlimited`` is CPython's own int->str
with the digit limit lifted for that one call, the reference for
``format_int``.  ``raw_sides`` and ``raw_sides_with_zero_exponents``
generate hand-built identity sides.
``derive`` and ``formula_ast`` are the deriver's earlier, generic path:
every anchor from ``matrix_power_term``, M inverted by modular-index
cofactor comprehensions, and an AST built as a dict of sorted monomials,
then canonicalized by ``dsl.identity``.
"""

import contextlib
import decimal
import sys
from math import gcd

from hypothesis import strategies as st

from tribkit import TRIBONACCI, TRIBONACCI_LUCAS, DegenerateOffsets, basis_decomposition, term
from tribkit.derive import CANONICAL_BASE, FormulaTemplate
from tribkit.dsl import identity
from tribkit.fasteval import matrix_power_term
from tribkit.sequences import NAMED


def reevaluate(side, seed, r, s):
    """Evaluate one identity side from scratch with the sequence engine."""
    env = {"r": r, "s": s}
    total = 0
    for monomial, coeff in side:
        value = coeff
        for (sym, variables, offset), exponent in monomial:
            index = sum(env[v] for v in variables) + offset
            named = {"T": TRIBONACCI, "K": TRIBONACCI_LUCAS, "W": seed}
            value *= term(named[sym], index) ** exponent
        total += value
    return total


def degree_profile(ast):
    """(degree sets in r and s, W-degree) of the identity's monomials: one
    pass per variable and one for W, {0} for an identity without monomials."""
    monos = [m for m, _ in ast.monomials()]
    degrees = {
        v: frozenset(sum(e for (_, vs, _), e in m if v in vs) for m in monos) or frozenset({0})
        for v in ("r", "s")
    }
    w_degree = max((sum(e for (sym, _, _), e in m if sym == "W") for m in monos), default=0)
    return degrees, w_degree


_raw_factor = st.tuples(
    st.sampled_from("WTK"), st.sampled_from([(), ("r",), ("s",), ("r", "s")]), st.integers(-3, 3)
)


def _raw_sides(min_exponent):
    monomial = st.lists(st.tuples(_raw_factor, st.integers(min_exponent, 3)), max_size=4)
    return st.lists(
        st.tuples(monomial.map(tuple), st.integers(-3, 3).filter(bool)), max_size=5
    ).map(tuple)


#: Hand-built identity sides, inside and outside certify's scope: factors
#: over r, s, r+s or an absolute index, bare constants (the empty
#: monomial), a factor repeated within a monomial, and empty sides.
raw_sides = _raw_sides(1)
#: The same, with factors of exponent 0 too, each of which contributes 1.
raw_sides_with_zero_exponents = _raw_sides(0)


def unsupported_message(side):
    """The message ``certify`` raises ``UnsupportedTerm`` with for the first
    bare constant or absolute-index factor of ``side``, or None."""
    for mono, _ in side:
        if not mono:
            return "bare constant term is outside certify's scope"
        for (sym, vs, off), _ in mono:
            if not vs:
                return f"absolute-index factor {sym}({off}) is outside certify's scope"
    return None


# [W(t+1), W(t+2), W(t+3)] = M [W(t), W(t+1), W(t+2)], and M^-1 steps back
_COMPANION = ((0, 1, 0), (0, 0, 1), (1, 1, 1))
_COMPANION_INV = ((-1, -1, 1), (1, 0, 0), (0, 1, 0))


def _matmul_mod(a, b, p):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(3)) % p for j in range(3)) for i in range(3)
    )


def term_mod(seed, n, p):
    """W(n) mod p by powering the companion matrix (its inverse for n < 0)."""
    base = _COMPANION if n >= 0 else _COMPANION_INV
    power = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    e = abs(n)
    while e:
        if e & 1:
            power = _matmul_mod(power, base, p)
        base = _matmul_mod(base, base, p)
        e >>= 1
    return sum(power[0][j] * seed[j] for j in range(3)) % p


@contextlib.contextmanager
def no_digit_limit():
    """Lift the int<->str digit limit inside the block, restore it after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def str_unlimited(v: int) -> str:
    """``str(v)`` at any size: the digit limit is lifted only for this call."""
    with no_digit_limit():
        return str(v)


def interpreter_state():
    """The settings printing must leave alone: the int->str digit limit and
    the thread's decimal context (the object and all its fields)."""
    ctx = decimal.getcontext()
    return sys.get_int_max_str_digits(), ctx, repr(ctx)


def derive(basis, offsets):
    """The FormulaTemplate of ``offsets`` in ``basis``, by cofactors of the
    anchor matrix M[i][j] = B(o_i - o_j); raises DegenerateOffsets when
    det M = 0."""
    if len(set(offsets)) != 3:
        raise ValueError(f"offsets must be pairwise distinct, got {offsets}")
    offsets = tuple(sorted(offsets))
    seed = NAMED[basis]
    base = CANONICAL_BASE[basis]
    m = [[matrix_power_term(seed, oi - oj) for oj in offsets] for oi in offsets]
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


def formula_ast(t, on_s, on_r):
    """The template's den * W(r+s) = sum of c * on_s(s+j0+j) * on_r(r+o),
    canonicalized by ``dsl.identity``: on_s is the basis symbol for
    ``template_to_ast``, W for ``swap_roles``."""
    base = CANONICAL_BASE[t.basis]
    rhs = {
        tuple(sorted([((on_s, ("s",), base + j), 1), ((on_r, ("r",), off), 1)])): c
        for off, row in zip(t.offsets, t.coeffs)
        for j, c in enumerate(row)
    }
    return identity({((("W", ("r", "s"), 0), 1),): t.denominator}, rhs)

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
``parse`` and its helpers, ``poly_mul`` included, are ``dsl``'s parser as it
was before sequence factors became one token each: one token per number,
letter or operator.
"""

import contextlib
import decimal
import re
import sys
from itertools import accumulate
from math import gcd

from hypothesis import strategies as st

from tribkit import TRIBONACCI, TRIBONACCI_LUCAS, DegenerateOffsets, basis_decomposition, term
from tribkit.derive import CANONICAL_BASE, FormulaTemplate
from tribkit.dsl import (
    MAX_DEPTH,
    MAX_PRODUCTS,
    SYMBOLS,
    VARS,
    Factor,
    IdentityAst,
    ParseError,
    identity,
)
from tribkit.fasteval import matrix_power_term
from tribkit.numtext import parse_int
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


# ---------------------------------------------------------------------------
# the spaced-token parser


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            merged: dict = {}
            for f, e in m1 + m2:
                merged[f] = merged.get(f, 0) + e
            m = tuple(sorted(merged.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


#: One match per token or comment; group 1 is the token ("" for a comment).
#: Any other non-space character is a token of its own, refused by ``_error``.
_TOKENS = re.compile(r"#[^\n]*|(\d+|[A-Za-z]|[-+*^()=]|\S)")
_FACTOR_START = frozenset(("(",) + SYMBOLS)
_SIGNS = ("+", "-")


class _Fail(Exception):
    """A syntax error at a token index; ``parse`` turns it into a ParseError."""


def _expect(toks: list[str], i: int, value: str) -> int:
    if toks[i] != value:
        raise _Fail(f"expected {value!r}, found {toks[i] or 'end of input'!r}", i)
    return i + 1


def parse(text: str) -> IdentityAst:
    """Parse an identity from DSL text; raises ParseError on bad input."""
    toks = _TOKENS.findall(text)
    if "#" in text:
        toks = [t for t in toks if t]
    toks.append("")  # end of input
    try:
        if toks.count("(") > MAX_DEPTH:  # one pass, before the descent
            depths = accumulate((t == "(") - (t == ")") for t in toks)
            deep = next((i for i, d in enumerate(depths) if d > MAX_DEPTH), None)
            if deep is not None:
                raise _Fail(f"parentheses nested deeper than {MAX_DEPTH}", deep)
        spent = [0]  # monomial products so far, shared by every group
        lhs, i = _expr(toks, 0, spent)
        rhs, i = _expr(toks, _expect(toks, i, "="), spent)
        if toks[i]:
            raise _Fail(f"unexpected trailing input {toks[i]!r}", i)
    except _Fail as fail:
        raise _error(text, *fail.args) from None
    return identity(lhs, rhs)


def _error(text: str, message: str, index: int) -> ParseError:
    """The ParseError for token ``index``.  Tokens carry no positions, so
    this scans ``text`` again.  A character outside the grammar, wherever
    it stands, is reported in place of the syntax error.
    """
    pos = len(text)
    tokens = (m for m in _TOKENS.finditer(text) if m.group(1))
    for n, m in enumerate(tokens):
        if not re.match(r"\d|[A-Za-z]|[-+*^()=]", m.group(1)):  # compiled on first error
            return ParseError(f"unexpected character {m.group(1)!r}", m.start(1))
        if n == index:
            pos = m.start(1)
    return ParseError(message, pos)


def _expr(toks: list[str], i: int, spent: list[int]) -> tuple[dict, int]:
    """A signed sum of terms, added in place into one dict."""
    acc: dict = {}
    get = acc.get
    sign = -1 if toks[i] == "-" else 1
    if toks[i] in _SIGNS:
        i += 1
    while True:
        poly, i = _term(toks, i, spent)
        for m, c in poly.items():
            acc[m] = get(m, 0) + sign * c
        if toks[i] not in _SIGNS:
            return {m: c for m, c in acc.items() if c}, i
        sign = -1 if toks[i] == "-" else 1
        i += 1


def _term(toks: list[str], i: int, spent: list[int]) -> tuple[dict, int]:
    """A product: one coefficient, one exponent per distinct sequence
    factor, and the parenthesized groups that do not fold (``_factor``),
    which alone go through ``poly_mul``, each charged to ``spent`` first.
    """
    tok = toks[i]
    coeff = 1
    exps: dict = {}
    groups: list = []
    if tok.isdecimal():
        coeff = parse_int(tok)
        i += 1
    elif tok in _FACTOR_START:
        i, sign = _factor(toks, i, exps, groups, spent)
        coeff *= sign
    else:
        raise _Fail(f"expected a term, found {tok or 'end of input'!r}", i)
    while True:
        tok = toks[i]
        if tok == "*":
            i += 1
            tok = toks[i]
            if tok.isdecimal():  # liberal: integers allowed mid-product
                coeff *= parse_int(tok)
                i += 1
                continue
            if tok not in _FACTOR_START:
                raise _Fail(f"expected a factor after '*', found {tok or 'end of input'!r}", i)
        elif tok not in _FACTOR_START:  # else juxtaposition, e.g. 2W(r)
            break
        i, sign = _factor(toks, i, exps, groups, spent)
        coeff *= sign
    poly = {tuple(sorted(exps.items())): coeff} if coeff else {}
    for group, e, start in groups:
        for _ in range(e):
            if not poly:
                break
            spent[0] += len(poly) * len(group)
            if spent[0] > MAX_PRODUCTS:
                raise _Fail(f"multiplying out the group takes over {MAX_PRODUCTS} products", start)
            poly = poly_mul(poly, group)
    return poly, i


def _factor(
    toks: list[str], i: int, exps: dict, groups: list, spent: list[int]
) -> tuple[int, int]:
    """Add the factor at ``toks[i]`` to a product: a sequence factor to
    ``exps``, a parenthesized group, its power and its token index to
    ``groups``.  A group of one monomial with coefficient 1 or -1 adds its
    exponents, times the power, to ``exps`` instead, at no product.
    Returns the next token index and the sign the factor puts on the term.
    """
    group = None
    start = i
    if toks[i] == "(":
        group, i = _expr(toks, i + 1, spent)
    else:
        factor, i = _index(toks, _expect(toks, i + 1, "("), toks[i])
    i = _expect(toks, i, ")")
    e = 1
    if toks[i] == "^":
        i += 1
        e = _small_int(toks, i) if toks[i].isdecimal() else 0
        if e < 1:
            raise _Fail("exponent must be a positive integer", i)
        i += 1
    if group is None:
        exps[factor] = exps.get(factor, 0) + e
        return i, 1
    if len(group) == 1:
        ((mono, coeff),) = group.items()
        if coeff in (1, -1):
            for factor, f_e in mono:
                exps[factor] = exps.get(factor, 0) + e * f_e
            return i, coeff**e
    groups.append((group, e, start))
    return i, 1


def _small_int(toks: list[str], i: int) -> int:
    """An exponent or index literal.  Past the interpreter's int->str digit
    limit ``int`` refuses it, and so does the parser: such a value could
    not be evaluated anyway.
    """
    try:
        return int(toks[i])
    except ValueError:
        raise _Fail("exponent or index literal too long", i) from None


def _index(toks: list[str], i: int, symbol: str) -> tuple[Factor, int]:
    tok = toks[i]
    vars_: tuple[str, ...] = ()
    if tok.isalpha() and tok.isascii():
        if tok not in VARS:
            raise _Fail(f"unknown index variable {tok!r}", i)
        vars_ = (tok,)
        if toks[i + 1] == "+" and toks[i + 2] in VARS:
            if toks[i + 2] == tok:
                raise _Fail(f"repeated index variable {tok!r}", i)
            vars_ = VARS
            i += 2
        i += 1
    tok = toks[i]
    if tok in _SIGNS:
        if not toks[i + 1].isdecimal():
            raise _Fail("expected an integer offset", i + 1)
        offset = _small_int(toks, i + 1)
        if tok == "-":
            offset = -offset
        i += 2
    elif tok.isdecimal():
        if vars_:
            raise _Fail("expected '+', '-' or ')' after index variable", i)
        offset = _small_int(toks, i)
        i += 1
    elif vars_:
        offset = 0
    else:
        raise _Fail(f"expected an index, found {tok or 'end of input'!r}", i)
    return (symbol, vars_, offset), i

"""Parser and printer for polynomial identities over sequence terms.

An identity is two sums of terms joined by "=".  A term is an optional
integer coefficient times a product of factors; a factor is a sequence
symbol W, T or K applied to an index expression, optionally raised to a
positive power, or a parenthesized sub-expression (which distributes during
canonicalization).  Index expressions are "r", "s", "r+s", each with an
optional integer offset, or a bare integer (an absolute index).

Canonical form: every side is a merged, sorted sum of monomials with
integer coefficients; a monomial shared by both sides is folded into the
left side.  The empty sum renders as "0".

Grammar (# starts a comment, whitespace is insignificant):

    identity := expr "=" expr
    expr     := ["+"|"-"] term { ("+"|"-") term }
    term     := [integer ["*"]] factor { ["*"] factor } | integer
    factor   := seq "(" index ")" ["^" posint] | "(" expr ")"
    seq      := "W" | "T" | "K"
    index    := var ["+" var] [("+"|"-") posint] | [("+"|"-")] integer
    var      := "r" | "s"

The parser takes its tokens from one ``re.findall`` pass and descends
over that list of strings.  A sequence factor written without spaces, with
an offset of at most 18 digits (W(r-3), T(s+r+1), K(-5)), is one token, a
compact factor, which ``_compact`` reads.  The canonical spellings, those
``render`` writes, of offsets |offset| < 64 go into a table (``_FACTORS``)
filled on first use: it never holds more than 3 * 4 * 127 = 1,524
entries, and nothing is built at import.  Any other spelling, such as
W ( r - 3 ) or an offset of 19 digits or more, takes one token per number,
letter or operator, and meets the same checks; an error inside a compact
factor gives the message and position the spaced spelling would.  A term
gathers its coefficient, sign included, and one exponent per distinct
sequence factor, and adds itself into its sum's dict.  A parenthesized
group of one monomial with coefficient 1 or -1, such as (W(r)) or
(-T(s)^2), folds into the term: its power multiplies its exponents, and an
odd power of -1 flips the term's sign.  Only the other groups are
multiplied out, once per unit of their power, with ``poly_mul``.  Tokens
carry no positions: a ``ParseError`` finds its position by scanning the
text again, which only errors pay for.  A coefficient literal may have any
length (``numtext.parse_int``); an exponent or index literal past the
interpreter's int->str digit limit is a ``ParseError``.  Parentheses nest
at most ``MAX_DEPTH`` deep, a sequence factor's own included, so
W(r) inside MAX_DEPTH groups is refused at its own "(" whether compact or
spaced, and the descent (three frames per group) stays far inside the
interpreter's recursion limit.  Multiplying out groups costs one monomial
product per pair of monomials, len(a) * len(b) for ``poly_mul(a, b)``; one
``parse`` call spends at most ``MAX_PRODUCTS`` of them, nested groups
included, and a group that would pass it is a ``ParseError`` at its
opening parenthesis.  A short text can otherwise ask for a huge expansion:
(W(r) + ... + W(r+7))^12 is 604,656 products and 50,388 monomials.
Coefficients render through ``numtext.format_int``, so
parse(render(x)) == x at any size.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple

from .numtext import format_int, parse_int
from .sequences import NAMED

# A factor is (symbol, vars, offset): vars is (), ("r",), ("s",) or ("r","s").
Factor = tuple[str, tuple[str, ...], int]
# A monomial is a sorted tuple of (factor, exponent) pairs; () is a constant.
Monomial = tuple[tuple[Factor, int], ...]
# A side of an identity: sorted ((monomial, coefficient), ...) with no zeros.
# ``IdentityAst.diff`` returns the same shape, but sorted only per side.
Side = tuple[tuple[Monomial, int], ...]

SYMBOLS = ("W", *NAMED)
VARS = ("r", "s")

#: Deepest parenthesis nesting ``parse`` accepts (module docstring).
MAX_DEPTH = 100

#: Most monomial products one ``parse`` call spends multiplying out groups
#: (module docstring).
MAX_PRODUCTS = 250_000


class ParseError(ValueError):
    """Syntax error with the character position where it occurred."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# polynomial helpers (dict[Monomial, int] while under construction)

_first = itemgetter(0)


def poly_mul(a: dict, b: dict) -> dict:
    """The product of two polynomials whose monomials each hold a factor at
    most once, as the parser builds them."""
    out: dict = {}
    for m1, c1 in a.items():
        factors = set(map(_first, m1))
        for m2, c2 in b.items():
            if factors.isdisjoint(map(_first, m2)):  # no exponents to add
                m = tuple(sorted(m1 + m2))
            else:
                merged: dict = {}
                for f, e in m1 + m2:
                    merged[f] = merged.get(f, 0) + e
                m = tuple(sorted(merged.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return _nonzero(out)


def _nonzero(poly: dict) -> dict:
    """``poly`` without its zero terms: ``poly`` itself when it has none."""
    return poly if all(poly.values()) else {m: c for m, c in poly.items() if c}


def _freeze(poly: dict) -> Side:
    return tuple(sorted(_nonzero(poly).items()))


# ---------------------------------------------------------------------------
# AST


class IdentityAst(NamedTuple):
    """A canonicalized polynomial identity lhs = rhs."""

    lhs: Side
    rhs: Side

    def diff(self) -> Side:
        """lhs - rhs: lhs, then rhs negated, so sorted per side only.  It is
        merged since ``identity`` leaves no monomial on both sides; a
        hand-built AST may, which is harmless: consumers add terms up."""
        return self.lhs + tuple((m, -c) for m, c in self.rhs)

    def monomials(self) -> Side:
        return self.lhs + self.rhs


def identity(lhs: dict, rhs: dict) -> IdentityAst:
    """Canonicalize two raw polynomial sides into an IdentityAst.

    Monomials appearing on both sides are folded into the left side, so
    e.g. "W(r) = W(r)" canonicalizes to "0 = 0".
    """
    lhs, rhs = dict(lhs), dict(rhs)
    for m in set(lhs) & set(rhs):
        lhs[m] = lhs[m] - rhs.pop(m)
    return IdentityAst(_freeze(lhs), _freeze(rhs))


class DegreeProfile(NamedTuple):
    """Per-variable degree data used to size certification windows."""

    degrees: dict[str, frozenset[int]]
    w_degree: int


def side_profile(side: Side) -> tuple[dict[str, set[int]], int, tuple | None]:
    """One pass over ``side``: the degree sets in r and s, the W-degree,
    and the first term that ``certify`` does not take, or None.

    A monomial's degree in a variable is the sum of the exponents of the
    factors whose index contains the variable; its W-degree is that of its W
    factors.  The first term certify does not take is the empty monomial
    ``()`` of a bare constant or an absolute-index factor (sym, (), offset),
    in the order the pass meets them.  An empty side gives empty sets.
    """
    r_degrees: set[int] = set()
    s_degrees: set[int] = set()
    w_degree = 0
    unsupported = None
    for mono, _ in side:
        if not mono and unsupported is None:
            unsupported = mono
        r = s = w = 0
        for (sym, vs, off), e in mono:
            if "r" in vs:
                r += e
                if "s" in vs:
                    s += e
            elif "s" in vs:
                s += e
            elif unsupported is None:
                unsupported = (sym, vs, off)
            if sym == "W":
                w += e
        r_degrees.add(r)
        s_degrees.add(s)
        if w > w_degree:
            w_degree = w
    return {"r": r_degrees, "s": s_degrees}, w_degree, unsupported


def degree_profile(ast: IdentityAst) -> DegreeProfile:
    """The degree sets in r and s of the identity's monomials, {0} when it
    has none, and its largest W-degree (``side_profile``)."""
    degrees, w_degree, _ = side_profile(ast.monomials())
    return DegreeProfile(
        degrees={v: frozenset(d) or frozenset({0}) for v, d in degrees.items()},
        w_degree=w_degree,
    )


# ---------------------------------------------------------------------------
# parsing

#: One match per token or comment; group 1 is the token ("" for a comment).
#: A compact factor (module docstring) comes first; any other non-space
#: character outside the grammar is a token of its own, refused by ``_error``.
_TOKENS = re.compile(
    r"#[^\n]*"
    r"|([WTK]\((?:(?:r(?:\+s)?|s(?:\+r)?)(?:[-+]\d{1,18})?|[-+]?\d{1,18})\)"  # compact factor
    r"|\d+|[A-Za-z]|[-+*^()=]|\S)"
)
_FACTOR_START = frozenset(("(",) + SYMBOLS)
_SIGNS = ("+", "-")

#: Compact factor token -> factor, for canonical spellings of offsets
#: |offset| < 64 only, filled on first use (module docstring).
_FACTORS: dict[str, Factor] = {}


class _Fail(Exception):
    """A syntax error at a token index, and optionally a character offset
    within that token; ``parse`` turns it into a ParseError."""


def _found(tok: str) -> str:
    """How an error names a token.  A compact factor is named by its
    symbol, as it would be had it been written with spaces."""
    if not tok:
        return "end of input"
    return tok[0] if tok[1:2] == "(" else tok


def _expect(toks: list[str], i: int, value: str) -> int:
    if toks[i] != value:
        raise _Fail(f"expected {value!r}, found {_found(toks[i])!r}", i)
    return i + 1


def parse(text: str) -> IdentityAst:
    """Parse an identity from DSL text; raises ParseError on bad input."""
    toks = _TOKENS.findall(text)
    if "#" in text:
        toks = [t for t in toks if t]
    toks.append("")  # end of input
    try:
        # One pass, before the descent.  A compact factor's own "(", its
        # tok[1], may reach one deeper than the "(" tokens alone.
        if toks.count("(") >= MAX_DEPTH:
            depth = 0
            for i, tok in enumerate(toks):
                if tok == "(" or tok[1:2] == "(":
                    if depth == MAX_DEPTH:
                        message = f"parentheses nested deeper than {MAX_DEPTH}"
                        raise _Fail(message, i, tok.index("("))
                    depth += tok == "("
                elif tok == ")":
                    depth -= 1
        spent = [0]  # monomial products so far, shared by every group
        lhs, i = _expr(toks, 0, spent)
        rhs, i = _expr(toks, _expect(toks, i, "="), spent)
        if toks[i]:
            raise _Fail(f"unexpected trailing input {toks[i]!r}", i)
    except _Fail as fail:
        raise _error(text, *fail.args) from None
    return identity(lhs, rhs)


def _error(text: str, message: str, index: int, within: int = 0) -> ParseError:
    """The ParseError for character ``within`` of token ``index``.  Tokens
    carry no positions, so this scans ``text`` again.  A character outside
    the grammar, wherever it stands, is reported in place of the syntax
    error.
    """
    pos = len(text)
    tokens = (m for m in _TOKENS.finditer(text) if m.group(1))
    for n, m in enumerate(tokens):
        if not re.match(r"\d|[A-Za-z]|[-+*^()=]", m.group(1)):  # compiled on first error
            return ParseError(f"unexpected character {m.group(1)!r}", m.start(1))
        if n == index:
            pos = m.start(1) + within
    return ParseError(message, pos)


def _expr(toks: list[str], i: int, spent: list[int]) -> tuple[dict, int]:
    """A signed sum of terms, added in place into one dict."""
    acc: dict = {}
    sign = -1 if toks[i] == "-" else 1
    if toks[i] in _SIGNS:
        i += 1
    while True:
        i = _term(toks, i, spent, acc, sign)
        if toks[i] not in _SIGNS:
            return _nonzero(acc), i
        sign = -1 if toks[i] == "-" else 1
        i += 1


def _term(toks: list[str], i: int, spent: list[int], acc: dict, coeff: int) -> int:
    """Add a product, times ``coeff`` (the term's sign), into ``acc``: one
    coefficient, one exponent per distinct sequence factor, and the
    parenthesized groups that do not fold (``_factor``), which alone go
    through ``poly_mul``, each charged to ``spent`` first.  A compact
    factor is read here, without a call to ``_factor``.  Returns the next
    token index.
    """
    tok = toks[i]
    exps: dict = {}
    groups: list = []
    if tok.isdecimal():
        coeff *= parse_int(tok)
        i += 1
        tok = toks[i]
    elif tok[:1] not in _FACTOR_START:
        raise _Fail(f"expected a term, found {_found(tok)!r}", i)
    while True:
        if tok == "*":
            i += 1
            tok = toks[i]
            if tok.isdecimal():  # liberal: integers allowed mid-product
                coeff *= parse_int(tok)
                i += 1
                tok = toks[i]
                continue
            if tok[:1] not in _FACTOR_START:
                raise _Fail(f"expected a factor after '*', found {_found(tok)!r}", i)
        elif tok[:1] not in _FACTOR_START:  # else juxtaposition, e.g. 2W(r)
            break
        if len(tok) > 1:  # a compact factor
            factor = _FACTORS.get(tok) or _compact(tok)
            e = 1
            i += 1
            if toks[i] == "^":
                e, i = _power(toks, i + 1)
            exps[factor] = exps.get(factor, 0) + e
        else:
            i, sign = _factor(toks, i, exps, groups, spent)
            coeff *= sign
        tok = toks[i]
    mono = tuple(exps.items())
    if len(mono) > 1:
        mono = tuple(sorted(mono))
    if not groups:
        acc[mono] = acc.get(mono, 0) + coeff
        return i
    poly = {mono: coeff} if coeff else {}
    for group, e, start in groups:
        for _ in range(e):
            if not poly:
                break
            spent[0] += len(poly) * len(group)
            if spent[0] > MAX_PRODUCTS:
                raise _Fail(f"multiplying out the group takes over {MAX_PRODUCTS} products", start)
            poly = poly_mul(poly, group)
    for m, c in poly.items():
        acc[m] = acc.get(m, 0) + c
    return i


def _factor(
    toks: list[str], i: int, exps: dict, groups: list, spent: list[int]
) -> tuple[int, int]:
    """Add the spaced sequence factor or parenthesized group at ``toks[i]``
    to a product: a sequence factor to ``exps``, a group, its power and its
    token index to ``groups``.  A group of one monomial with coefficient 1
    or -1 adds its exponents, times the power, to ``exps`` instead, at no
    product.  Returns the next token index and the sign the factor puts on
    the term.
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
        e, i = _power(toks, i + 1)
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


def _power(toks: list[str], i: int) -> tuple[int, int]:
    """The exponent after a "^" and the next token index."""
    e = _small_int(toks, i) if toks[i].isdecimal() else 0
    if e < 1:
        raise _Fail("exponent must be a positive integer", i)
    return e, i + 1


def _small_int(toks: list[str], i: int) -> int:
    """An exponent or index literal.  Past the interpreter's int->str digit
    limit ``int`` refuses it, and so does the parser: such a value could
    not be evaluated anyway.
    """
    try:
        return int(toks[i])
    except ValueError:
        raise _Fail("exponent or index literal too long", i) from None


def _compact(tok: str) -> Factor:
    """The factor of a compact token, entered in ``_FACTORS`` when ``tok``
    is its canonical spelling and its offset is below 64 in magnitude."""
    symbol, index = tok[0], tok[2:-1]
    if index[0] in VARS:
        both = index[1:2] == "+" and index[2:3] in VARS  # r+s or s+r
        vars_ = VARS if both else (index[0],)
        rest = index[3:] if both else index[1:]
        offset = int(rest) if rest else 0
    else:
        vars_, offset = (), int(index)
    factor = (symbol, vars_, offset)
    if -64 < offset < 64 and index == _render_index(vars_, offset):
        _FACTORS[tok] = factor
    return factor


def _index(toks: list[str], i: int, symbol: str) -> tuple[Factor, int]:
    tok = toks[i]
    vars_: tuple[str, ...] = ()
    if tok[:1].isalpha() and tok[:1].isascii():  # a compact factor is refused by its symbol
        if tok not in VARS:
            raise _Fail(f"unknown index variable {_found(tok)!r}", i)
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
        raise _Fail(f"expected an index, found {_found(tok)!r}", i)
    return (symbol, vars_, offset), i


# ---------------------------------------------------------------------------
# rendering


def _render_index(vs: tuple[str, ...], offset: int) -> str:
    if not vs:
        return str(offset)
    base = "+".join(vs)
    if offset > 0:
        return f"{base}+{offset}"
    if offset < 0:
        return f"{base}-{-offset}"
    return base


def _render_monomial(mono: Monomial, texts: dict) -> str:
    """The monomial's factors joined by "*", each (factor, exponent) taken
    from ``texts`` or rendered into it on first use."""
    parts = []
    for fe in mono:
        text = texts.get(fe)
        if text is None:
            (sym, vs, off), e = fe
            text = f"{sym}({_render_index(vs, off)})"
            if e != 1:
                text = f"{text}^{e}"
            texts[fe] = text
        parts.append(text)
    return "*".join(parts)


def _render_side(side: Side, texts: dict) -> str:
    if not side:
        return "0"
    pieces = []
    for mono, coeff in side:
        mag = abs(coeff)
        body = _render_monomial(mono, texts)
        if not mono:
            text = format_int(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{format_int(mag)}*{body}"
        if pieces:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        else:
            pieces.append(text if coeff > 0 else f"-{text}")
    return " ".join(pieces)


def render(ast: IdentityAst) -> str:
    """Deterministic canonical text; parse(render(x)) equals x.  A factor
    that recurs, as in a derived formula's nine products of six factors, is
    rendered once."""
    texts: dict = {}
    return f"{_render_side(ast.lhs, texts)} = {_render_side(ast.rhs, texts)}"

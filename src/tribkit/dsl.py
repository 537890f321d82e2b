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
    index    := var ["+" var] [("+"|"-") posint] | ["-"] integer
    var      := "r" | "s"
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# A factor is (symbol, vars, offset): vars is (), ("r",), ("s",) or ("r","s").
Factor = tuple[str, tuple[str, ...], int]
# A monomial is a sorted tuple of (factor, exponent) pairs; () is a constant.
Monomial = tuple[tuple[Factor, int], ...]
# A side of an identity: sorted ((monomial, coefficient), ...) with no zeros.
Side = tuple[tuple[Monomial, int], ...]

SYMBOLS = ("W", "T", "K")
VARS = ("r", "s")


class ParseError(ValueError):
    """Syntax error with the character position where it occurred."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# polynomial helpers (dict[Monomial, int] while under construction)


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def poly_scale(a: dict, k: int) -> dict:
    return {m: c * k for m, c in a.items()} if k != 0 else {}


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


def _freeze(poly: dict) -> Side:
    return tuple(sorted((m, c) for m, c in poly.items() if c != 0))


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IdentityAst:
    """A canonicalized polynomial identity lhs = rhs."""

    lhs: Side
    rhs: Side

    def diff(self) -> Side:
        """lhs - rhs as a single merged sum (zero for trivial identities)."""
        return _freeze(poly_add(dict(self.lhs), poly_scale(dict(self.rhs), -1)))

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


@dataclass(frozen=True)
class DegreeProfile:
    """Per-variable degree data used to size certification windows."""

    degrees: dict[str, frozenset[int]]
    w_degree: int


def _monomial_degree(mono: Monomial, var: str) -> int:
    return sum(e for (sym, vs, off), e in mono if var in vs)


def degree_profile(ast: IdentityAst) -> DegreeProfile:
    monos = [m for m, _ in ast.monomials()]
    degrees = {}
    for v in VARS:
        degrees[v] = frozenset(_monomial_degree(m, v) for m in monos) or frozenset({0})
    w_deg = max(
        (sum(e for (sym, vs, off), e in m if sym == "W") for m in monos),
        default=0,
    )
    return DegreeProfile(degrees=degrees, w_degree=w_deg)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s+|#[^\n]*|(?P<int>\d+)|(?P<name>[A-Za-z])|(?P<op>[-+*^()=])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse_identity(self) -> IdentityAst:
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return identity(lhs, rhs)

    def parse_expr(self) -> dict:
        sign = 1
        if self.peek()[1] in ("+", "-"):
            sign = -1 if self.next()[1] == "-" else 1
        poly = poly_scale(self.parse_term(), sign)
        while self.peek()[1] in ("+", "-"):
            sign = -1 if self.next()[1] == "-" else 1
            poly = poly_add(poly, poly_scale(self.parse_term(), sign))
        return poly

    def parse_term(self) -> dict:
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            poly = {(): int(val)}
        elif self._at_factor():
            poly = self.parse_factor()
        else:
            raise ParseError(f"expected a term, found {val or 'end of input'!r}", pos)
        while True:
            if self.peek()[1] == "*":
                self.next()
                kind, val, pos = self.peek()
                if kind == "int":  # liberal: integers allowed mid-product
                    self.next()
                    poly = poly_scale(poly, int(val))
                    continue
                if not self._at_factor():
                    raise ParseError(
                        f"expected a factor after '*', found {val or 'end of input'!r}", pos
                    )
                poly = poly_mul(poly, self.parse_factor())
            elif self._at_factor():  # juxtaposition, e.g. 2W(r)
                poly = poly_mul(poly, self.parse_factor())
            else:
                return poly

    def _at_factor(self) -> bool:
        kind, val, _ = self.peek()
        return val == "(" or (kind == "name" and val in SYMBOLS)

    def parse_factor(self) -> dict:
        kind, val, pos = self.next()
        if val == "(":
            poly = self.parse_expr()
            self.expect(")")
            return self._maybe_power(poly)
        if kind == "name" and val in SYMBOLS:
            self.expect("(")
            factor = self.parse_index(val)
            self.expect(")")
            return self._maybe_power({((factor, 1),): 1})
        if kind == "name":
            raise ParseError(f"unknown sequence symbol {val!r}", pos)
        raise ParseError(f"expected a factor, found {val or 'end of input'!r}", pos)

    def _maybe_power(self, poly: dict) -> dict:
        if self.peek()[1] != "^":
            return poly
        self.next()
        kind, val, pos = self.next()
        if kind != "int" or int(val) < 1:
            raise ParseError("exponent must be a positive integer", pos)
        out = {(): 1}
        for _ in range(int(val)):
            out = poly_mul(out, poly)
        return out

    def parse_index(self, symbol: str) -> Factor:
        kind, val, pos = self.peek()
        vars_: list[str] = []
        if kind == "name":
            if val not in VARS:
                raise ParseError(f"unknown index variable {val!r}", pos)
            self.next()
            vars_.append(val)
            if self.peek()[1] == "+" and self.tokens[self.i + 1][1] in VARS:
                self.next()
                other = self.next()[1]
                if other in vars_:
                    raise ParseError(f"repeated index variable {other!r}", pos)
                vars_.append(other)
        offset = 0
        kind, val, pos = self.peek()
        if val in ("+", "-"):
            sign = -1 if val == "-" else 1
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("expected an integer offset", pos)
            offset = sign * int(val)
        elif kind == "int":
            if vars_:
                raise ParseError("expected '+', '-' or ')' after index variable", pos)
            self.next()
            offset = int(val)
        elif not vars_:
            raise ParseError(f"expected an index, found {val or 'end of input'!r}", pos)
        return (symbol, tuple(sorted(vars_)), offset)


def parse(text: str) -> IdentityAst:
    """Parse an identity from DSL text; raises ParseError on bad input."""
    return _Parser(text).parse_identity()


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


def _render_monomial(mono: Monomial) -> str:
    parts = []
    for (sym, vs, off), e in mono:
        p = f"{sym}({_render_index(vs, off)})"
        parts.append(p if e == 1 else f"{p}^{e}")
    return "*".join(parts)


def _render_side(side: Side) -> str:
    if not side:
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(side):
        mag = abs(coeff)
        body = _render_monomial(mono)
        if not mono:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if i == 0:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {text}")
    return " ".join(pieces)


def render(ast: IdentityAst) -> str:
    """Deterministic canonical text; parse(render(x)) equals x."""
    return f"{_render_side(ast.lhs)} = {_render_side(ast.rhs)}"

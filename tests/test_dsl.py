from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribkit import (
    DegenerateOffsets,
    ParseError,
    degree_profile,
    derive_lucas_basis,
    derive_tribonacci_basis,
    load_corpus,
    parse,
    render,
    swap_roles,
    template_to_ast,
)
from tribkit.certify import single_coefficient_mutants
from tribkit import dsl
from tribkit.dsl import MAX_DEPTH, MAX_PRODUCTS, SYMBOLS, IdentityAst, identity

import reference


def test_parse_three_term_recurrence():
    ast = parse("W(r-16) = -103*W(r) + 56*W(r+1)")
    assert dict(ast.lhs) == {((("W", ("r",), -16), 1),): 1}
    assert dict(ast.rhs) == {
        ((("W", ("r",), 0), 1),): -103,
        ((("W", ("r",), 1), 1),): 56,
    }


def test_trivial_identity_cancels_to_zero():
    ast = parse("W(r) = W(r)")
    assert ast.lhs == () and ast.rhs == ()
    assert render(ast) == "0 = 0"


def test_mixed_symbol_identity():
    ast = parse("K(r-2) = 5*T(r-1) - T(r+1)")
    assert len(ast.rhs) == 2
    assert dict(ast.lhs) == {((("K", ("r",), -2), 1),): 1}


def test_grouped_coefficients_distribute():
    a = parse("4*W(r+s) = (T(s+4) - 7*T(s))*W(r)")
    b = parse("4*W(r+s) = T(s+4)*W(r) - 7*T(s)*W(r)")
    assert a == b


def test_factor_order_is_canonical():
    assert parse("W(r)*T(s) = 0") == parse("T(s)*W(r) = 0")


def test_implicit_coefficient_multiplication():
    assert parse("2W(r) = 0") == parse("2*W(r) = 0")


def test_absolute_indices_and_constants_parse():
    ast = parse("T(0) + 3 = K(-2)")
    syms = {f[0] for mono, _ in ast.monomials() for f, _ in mono}
    assert syms == {"T", "K"}


def test_exponents():
    ast = parse("W(r)^2*W(r) = W(r)^3")
    assert render(ast) == "0 = 0"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "W(r-3) = 2W(r) -",
        "W(r) + = W(r)",
        "X(r) = 0",
        "W(r)^0 = 0",
        "W(q) = 0",
        "W(r = 0",
        "W(r) = ",
        "W(r) == 0",
        "W(r) 0",
        "W r = 0",
        "W(r)^ = 0",
        "W(r+r) = 0",
        "W(r) = 2*",
    ],
)
def test_malformed_inputs_raise_positioned_errors(bad):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.pos >= 0
    assert "position" in str(err.value)


# The exact message and position of each error: callers show them to users.
ERRORS = [
    ("", "expected a term, found 'end of input'", 0),
    ("W(r", "expected ')', found 'end of input'", 3),
    ("W(r) = ", "expected a term, found 'end of input'", 7),
    ("= W(r)", "expected a term, found '='", 0),
    ("W(r)) = 0", "expected '=', found ')'", 4),
    ("W() = 0", "expected an index, found ')'", 2),
    ("W(r)^0 = 0", "exponent must be a positive integer", 5),
    ("W(r)^-2 = 0", "exponent must be a positive integer", 5),
    ("W(r)^ = 0", "exponent must be a positive integer", 6),
    ("(W(r))^0 = W(r)", "exponent must be a positive integer", 7),
    ("2 ** W(r) = 0", "expected a factor after '*', found '*'", 3),
    ("W(r) = 2*", "expected a factor after '*', found 'end of input'", 9),
    ("W(r)*W = 0", "expected '(', found '='", 7),
    ("W(r) + = W(s)", "expected a term, found '='", 7),
    ("W(r) == 0", "expected a term, found '='", 6),
    ("W(r-3) = 2W(r) -", "expected a term, found 'end of input'", 16),
    ("W(r q) = 0", "expected ')', found 'q'", 4),
    ("W(r = 0", "expected ')', found '='", 4),
    ("W(r) = W(r) = W(r)", "unexpected trailing input '='", 12),
    ("W(r) 0", "expected '=', found '0'", 5),
    ("X(r) = 0", "expected a term, found 'X'", 0),
    ("W r = 0", "expected '(', found 'r'", 2),
    ("W(q) = 0", "unknown index variable 'q'", 2),
    ("W(r+r) = 0", "repeated index variable 'r'", 2),
    ("W(s+s) = 0", "repeated index variable 's'", 2),
    ("W(r+x) = 0", "expected an integer offset", 4),
    ("W(r2) = 0", "expected '+', '-' or ')' after index variable", 3),
    ("T(\u00e9) = 0", "unexpected character '\u00e9'", 2),
    # comments
    ("W(r) = 0 # note\n+ $", "unexpected character '$'", 18),
    ("W(r) # = 0", "expected '=', found 'end of input'", 10),
    ("W(r)^0 # zero power = 0", "exponent must be a positive integer", 5),
    # juxtaposition
    ("2W(r)W(r+1) 3 = 0", "expected '=', found '3'", 12),
    ("W(r+s+1)2 = 0", "expected '=', found '2'", 8),
    ("W(r)(W(s) = 0", "expected ')', found '='", 10),
    ("2 3 = 0", "expected '=', found '3'", 2),
]


@pytest.mark.parametrize("text, message, pos", ERRORS)
def test_parse_error_messages_and_positions(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_nesting_depth_is_bounded():
    # the sequence factor's own "(" counts: W( is the last of MAX_DEPTH
    at_limit = "(" * (MAX_DEPTH - 1) + "W(r)" + ")" * (MAX_DEPTH - 1) + " = 0"
    assert parse(at_limit) == parse("W(r) = 0")
    with pytest.raises(ParseError) as err:
        parse("(" * MAX_DEPTH + "W(r)" + ")" * MAX_DEPTH + " = 0")
    message = f"parentheses nested deeper than {MAX_DEPTH}"
    assert str(err.value) == f"{message} (at position {MAX_DEPTH + 1})"
    # many parentheses, none deep
    siblings = " + ".join(["(W(r))"] * MAX_DEPTH) + " = 0"
    assert parse(siblings) == parse(f"{MAX_DEPTH}*W(r) = 0")


def test_expansion_is_bounded():
    # (a + b)^400 takes 2 * (1 + 2 + ... + 400) = 160,400 products
    assert len(parse("(W(r) + W(r+1))^400 = 0").lhs) == 401
    eight = " + ".join(f"W(r+{k})" for k in range(8))
    with pytest.raises(ParseError) as err:
        parse(f"W(s) = ({eight})^12")
    message = f"multiplying out the group takes over {MAX_PRODUCTS} products"
    assert str(err.value) == f"{message} (at position 7)"


def test_expansion_budget_is_shared_by_one_parse(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_PRODUCTS", 100)
    parse("(W(r) + W(s))^9 = 0")  # 90 products
    with pytest.raises(ParseError, match=r"over 100 products \(at position 0\)"):
        parse("(W(r) + W(s))^10 = 0")
    parse("(W(r) + W(s))^6 = (T(r) + T(s))^6")  # 42 + 42
    with pytest.raises(ParseError, match=r"\(at position 18\)"):
        parse("(W(r) + W(s))^7 = (T(r) + T(s))^7")
    # a nested group charges the same budget before its parent does
    with pytest.raises(ParseError, match=r"\(at position 1\)"):
        parse("((W(r) + W(s))^10 + K(r)) = 0")
    parse("(W(r) + W(s))^9 = 0")  # every call starts afresh
    # zero times any power is zero, at no cost
    assert parse("0*(W(r) + W(s))^1000000000 = (W(r) - W(r))^1000000000*T(s)") == parse("0 = 0")


def test_unit_monomial_group_folds_into_its_term(monkeypatch):
    # a one-monomial group with coefficient 1 or -1 costs no product
    expected = parse("-W(r)^5*T(s)^3 = 0")
    assert parse("(W(r))^5*(-T(s))^3 = 0") == expected
    assert len(parse("(W(r))^1000000 = 0").lhs) == 1
    monkeypatch.setattr(dsl, "MAX_PRODUCTS", 0)
    assert parse("(W(r))^5*(-T(s))^3 = 0") == expected
    assert parse("((-W(r)*T(s))^2)^3 = 0") == parse("W(r)^6*T(s)^6 = 0")
    with pytest.raises(ParseError, match=r"over 0 products"):
        parse("(2*W(r))^2 = 0")


_factor = st.tuples(
    st.sampled_from(SYMBOLS),
    st.sampled_from([(), ("r",), ("s",), ("r", "s")]),
    st.integers(-30, 30),
)
_monomial = st.dictionaries(_factor, st.integers(1, 5), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)
_side = st.dictionaries(_monomial, st.integers(-(10**30), 10**30).filter(bool), max_size=4)


@given(lhs=_side, rhs=_side)
def test_round_trip_over_random_canonical_asts(lhs, rhs):
    ast = identity(lhs, rhs)
    text = render(ast)
    assert parse(text) == ast
    assert render(parse(text)) == text
    # diff() concatenates the sides, so they must share no monomial
    assert not {m for m, _ in ast.lhs} & {m for m, _ in ast.rhs}
    merged = dict(lhs)
    for m, c in rhs.items():
        merged[m] = merged.get(m, 0) - c
    assert dict(ast.diff()) == {m: c for m, c in merged.items() if c}


_WS = st.sampled_from(["", " ", "  ", "\t", "\n", " # comment ( = ^\n"])
_COEFF = st.integers(0, 10**30).map(str)
# past the interpreter's 4300-digit int->str limit; outside groups only
_BIG_COEFF = st.sampled_from(["9" * 4301, "1" + "0" * 5000])
_INDICES = [v + k for v in ("r", "s", "r+s", "s+r") for k in ("", "+1", "-1", "+12", "-30")]
_SEQ = st.sampled_from(
    [
        f"{sym}({index}){power}"
        for sym in SYMBOLS
        for index in _INDICES + ["0", "+3", "-4", "21"]
        for power in ("", "", "^2", "^7")
    ]
)
_SIGN = st.sampled_from(["", "", "-", "+"])
_PLUS_MINUS = st.sampled_from(["+", "-"])
_TIMES = st.sampled_from(["*", " * ", "", " "])
_GROUP_POWER = st.sampled_from(["", "^2", "^3"])
_COUNT = st.integers(0, 9)


def _expr_text(draw, depth):
    out = draw(_SIGN)
    for n in range(1 + draw(_COUNT) % (3 if depth == 0 else 2)):
        if n:
            out += draw(_WS) + draw(_PLUS_MINUS) + draw(_WS)
        out += _term_text(draw, depth)
    return out


def _term_text(draw, depth):
    """At most one group per term keeps the expansion small."""
    parts = []
    if draw(_COUNT) % 2:
        big = depth == 0 and draw(_COUNT) == 0
        parts.append(draw(_BIG_COEFF if big else _COEFF))
    group_at = draw(_COUNT) % 3 if depth < 2 else None
    for k in range(max(draw(_COUNT) % 3, 0 if parts else 1)):
        if k == group_at:
            group = _expr_text(draw, depth + 1)
            parts.append(f"({draw(_WS)}{group}{draw(_WS)}){draw(_GROUP_POWER)}")
        else:
            parts.append(draw(_SEQ))
    return "".join(part + draw(_TIMES) for part in parts[:-1]) + parts[-1]


@st.composite
def _identity_text(draw):
    """DSL text: signs, coefficients of up to 31 digits and a few past 4300,
    every index form, powers, groups nested two deep with powers up to 3,
    comments and whitespace."""
    return f"{_expr_text(draw, 0)}{draw(_WS)}={_expr_text(draw, 0)}{draw(_WS)}"


@settings(max_examples=300, deadline=None)
@given(_identity_text())
def test_grammar_fuzz_round_trips(text):
    ast = parse(text)
    assert parse(render(ast)) == ast


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("WTKrs0123456789+-*^()= #\n") + ["x", "$", "\u00e9"])))
def test_junk_text_raises_only_parse_errors(text):
    try:
        parse(text)
    except ParseError:
        pass


def test_comments_and_whitespace_are_ignored():
    assert parse("W(r)  =  2*W(r-1) - W(r-4)  # the three-term form") == parse(
        "W(r)=2*W(r-1)-W(r-4)"
    )


def test_round_trip_over_corpus():
    for entry in load_corpus():
        ast = entry.ast()
        assert parse(render(ast)) == ast


def test_degree_profile_linear():
    p = degree_profile(parse("W(r-16) = -103*W(r) + 56*W(r+1)"))
    assert p.degrees["r"] == {1}
    assert p.degrees["s"] == {0}
    assert p.w_degree == 1


def test_degree_profile_addition_formula():
    p = degree_profile(
        parse("W(r+s) = T(s-1)*W(r-1) + (T(s-1) + T(s-2))*W(r) + T(s)*W(r+1)")
    )
    assert p.degrees["r"] == {1} and p.degrees["s"] == {1}
    assert p.w_degree == 1


def test_degree_profile_cubic():
    text = (
        "W(r)^3 - 4*W(r-1)^3 - 9*W(r-2)^3 - 34*W(r-3)^3 + 24*W(r-4)^3 - 2*W(r-5)^3"
        " + 40*W(r-6)^3 - 14*W(r-7)^3 - W(r-8)^3 - 2*W(r-9)^3 + W(r-10)^3 = 0"
    )
    p = degree_profile(parse(text))
    assert p.degrees["r"] == {3}
    assert p.w_degree == 3


@settings(max_examples=300, deadline=None)
@given(lhs=reference.raw_sides, rhs=reference.raw_sides)
def test_degree_profile_matches_the_three_pass_reference(lhs, rhs):
    ast = IdentityAst(lhs, rhs)
    profile = degree_profile(ast)
    assert (profile.degrees, profile.w_degree) == reference.degree_profile(ast)


def test_render_is_deterministic_and_reparses():
    text = "252*W(r)^2 - 927*W(r-1)^2 + 2884*W(r-4)^2 - W(r-17)^2 = 0"
    ast = parse(text)
    assert parse(render(ast)) == ast
    assert render(parse(render(ast))) == render(ast)


@pytest.mark.parametrize("offsets", [(0, 1, 2), (0, 1, 30_000)])
def test_round_trip_of_derived_formula(offsets):
    ast = template_to_ast(derive_tribonacci_basis(*offsets))
    assert parse(render(ast)) == ast


def test_long_literals():
    big = "123456789" * 1000
    value = 123456789 * (10**9000 - 1) // (10**9 - 1)
    ast = parse(f"W(r) = {big}*W(r+1) + 2*{big}W(r-1)")
    assert dict(ast.rhs) == {
        ((("W", ("r",), -1), 1),): 2 * value,
        ((("W", ("r",), 1), 1),): value,
    }
    assert parse(render(ast)) == ast
    for text in (f"W(r+{big}) = 0", f"W(r-{big}) = 0", f"W({big}) = 0", f"W(r)^{big} = 0"):
        with pytest.raises(ParseError, match="too long"):
            parse(text)


# ---------------------------------------------------------------------------
# compact factor tokens against the spaced-token parser (reference.parse)


def _outcome(parser, text):
    """The AST, or the ParseError's message and position."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.pos


def _same_as_reference(text):
    assert _outcome(parse, text) == _outcome(reference.parse, text)


_DIGITS = st.sampled_from(
    ["0", "1", "3", "63", "64", "007", "00", "12", "999"]
    + ["123456789012345678", "1234567890123456789", "9" * 4301]
)
_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", " # ( W(r) =\n"])


@st.composite
def _factor_text(draw):
    """A sequence factor: every index form, offsets 0, +-63, +-64, leading
    zeros and 18-, 19- and 4301-digit literals, written compact or spaced,
    with exponents ^0, ^1 and longer."""
    index = draw(st.sampled_from([[], ["r"], ["s"], ["r", "+", "s"], ["s", "+", "r"]]))
    offset = [draw(st.sampled_from(["+", "-"] if index else ["", "+", "-"])), draw(_DIGITS)]
    if index and draw(_COUNT) < 3:
        offset = []
    pieces = [draw(st.sampled_from(SYMBOLS)), "(", *index, *offset, ")"]
    text = "".join(p + draw(_SPACE) for p in pieces if p)
    powers = ["", "", "^0", "^1", "^2", "^3", "^12345678901234567890", "^" + "7" * 4301]
    power = draw(st.sampled_from(powers))
    return text.rstrip() + power


@st.composite
def _mixed_term(draw, depth=0):
    parts = []
    if draw(_COUNT) % 3 == 0:
        parts.append(draw(st.sampled_from(["2", "1000", "123456789", "0", "9" * 4301])))
    for _ in range(1 + draw(_COUNT) % 3):
        if depth < 2 and draw(_COUNT) == 0:
            parts.append(f"({draw(_mixed_expr(depth + 1))}){draw(st.sampled_from(['', '^2']))}")
        elif draw(_COUNT) == 0:  # integers of 4 or more digits in mid-product
            parts.append(draw(st.sampled_from(["1000", "98765", "7"])))
        else:
            parts.append(draw(_factor_text()))
    return "".join(part + draw(_TIMES) for part in parts[:-1]) + parts[-1]


@st.composite
def _mixed_expr(draw, depth=0):
    out = draw(_SIGN) + draw(_mixed_term(depth))
    for _ in range(draw(_COUNT) % 3):
        out += draw(_WS) + draw(_PLUS_MINUS) + draw(_WS) + draw(_mixed_term(depth))
    return out


def _nested(k, text):
    return "(" * k + text + ")" * k


@st.composite
def _mixed_identity(draw):
    """Identities mixing compact and spaced factors, sometimes nested at
    MAX_DEPTH - 1 or MAX_DEPTH parentheses, sometimes cut short."""
    lhs = draw(_mixed_expr())
    if draw(_COUNT) == 0:
        lhs = _nested(MAX_DEPTH - draw(st.sampled_from([0, 1])), draw(_factor_text()))
    text = f"{lhs}{draw(_WS)}={draw(_mixed_expr())}{draw(_WS)}"
    if draw(_COUNT) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


#: Tokens of both kinds in any order, for the error paths: a compact factor
#: where an index, "(", "=" or an exponent is expected.
_SOUP = st.lists(
    st.sampled_from(
        ["W(r)", "T(s+r-5)", "K(-5)", "W(r+007)", "T(+5)", "W(r+s)", "K(1234567890123456789)"]
        + ["W", "T", "K", "r", "s", "q", "(", ")", "+", "-", "*", "^", "=", "2", "1000"]
        + [" ", "#c\n", "$"]
    ),
    max_size=14,
).map("".join)


@settings(max_examples=800, deadline=None)
@given(st.one_of(_mixed_identity(), _SOUP))
def test_parse_agrees_with_the_spaced_token_parser(text):
    _same_as_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "W(r+007) = W(r-0) + W(s+r) + W(+5) + W(-5) + W(r+63)*W(r-64)",
        "2*W(r)*1000 + 2W(r)W(s)T(r+s)^1 = 0",
        f"W(r+{'1' * 18}) = W(r-{'1' * 19})",
        f"W(r+{'1' * 4301}) = 0",
        "W(W(r)) = 0",
        "W(r T(s)) = 0",
        "WW(r) = 0",
        "W(r)^W(s) = 0",
        "W(r+T(s)) = 0",
        _nested(MAX_DEPTH - 1, "W(r-3)") + " = 0",
        _nested(MAX_DEPTH, "W(r-3)") + " = 0",
        _nested(MAX_DEPTH, "W ( r - 3 )") + " = 0",
        " + ".join(["W(r)"] * (2 * MAX_DEPTH)) + " = " + _nested(MAX_DEPTH - 1, "T(s)"),
    ],
)
def test_compact_factor_edge_cases_agree(text):
    _same_as_reference(text)


def test_workload_texts_parse_as_with_the_spaced_token_parser():
    texts = []
    for entry in load_corpus():
        texts.append(entry.text)
        texts += [render(m) for m in single_coefficient_mutants(parse(entry.text))]
    for derive in (derive_tribonacci_basis, derive_lucas_basis):
        for offsets in combinations(range(-12, 13), 3):
            try:
                t = derive(*offsets)
            except DegenerateOffsets:
                continue
            texts += [render(template_to_ast(t)), render(swap_roles(t))]
    assert len(texts) > 9000
    for text in texts:
        assert parse(text) == reference.parse(text), text


def test_factor_table_stays_within_its_bound():
    spellings = [
        f"{sym}({index})"
        for sym in SYMBOLS
        for base in ("r", "s", "r+s", "s+r")
        for index in [f"{base}+{k:03d}" for k in range(64)]
        + [f"{base}{k:+d}" for k in (*range(-400, -63), *range(64, 400))]
        + [f"{base}-0"]
    ]
    spellings += [f"{sym}({k:+d})" for sym in SYMBOLS for k in range(-300, 300)]
    assert len(spellings) > 10_000
    for text in spellings:
        parse(f"{text} = 0")
    assert len(dsl._FACTORS) <= 3 * 4 * 127
    for tok, factor in dsl._FACTORS.items():
        assert -64 < factor[2] < 64
        mono = ((factor, 1),)
        assert render(IdentityAst(((mono, 1),), ())) == f"{tok} = 0"

import pytest

from tribkit import ParseError, degree_profile, load_corpus, parse, render


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


def test_render_is_deterministic_and_reparses():
    text = "252*W(r)^2 - 927*W(r-1)^2 + 2884*W(r-4)^2 - W(r-17)^2 = 0"
    ast = parse(text)
    assert parse(render(ast)) == ast
    assert render(parse(render(ast))) == render(ast)

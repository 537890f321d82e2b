from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    DegenerateOffsets,
    SeedVector,
    basis_decomposition,
    certify,
    derive_lucas_basis,
    derive_tribonacci_basis,
    parse,
    render,
    swap_roles,
    template_to_ast,
    term,
)
from tribkit.derive import CANONICAL_BASE, output_bits
from tribkit.dsl import identity

import reference
from reference import reevaluate

UNIT_SEEDS = [SeedVector(1, 0, 0), SeedVector(0, 1, 0), SeedVector(0, 0, 1)]


def fraction_table(ast, basis):
    """Coefficient table {W-offset: canonical-basis coords} of an addition
    formula written as den*W(r+s) = sum of B(s+k)*W(r+o) terms."""
    den = dict(ast.lhs)[((("W", ("r", "s")) + (0,), 1),)]
    base = CANONICAL_BASE[basis]
    table = {}
    for mono, coeff in ast.rhs:
        assert len(mono) == 2
        (bsym, bvars, k), _ = mono[0]
        (wsym, wvars, o), _ = mono[1]
        assert (bsym, bvars) == (basis, ("s",)) and (wsym, wvars) == ("W", ("r",))
        row = table.setdefault(o, [Fraction(0)] * 3)
        for j, c in enumerate(basis_decomposition(k - base)):
            row[j] += Fraction(coeff * c, den)
    return table


def template_fraction_table(t):
    return {
        o: [Fraction(c, t.denominator) for c in row]
        for o, row in zip(t.offsets, t.coeffs)
    }


def test_familiar_addition_formula():
    t = derive_tribonacci_basis(-1, 0, 1)
    assert t.denominator == 1
    assert template_fraction_table(t) == fraction_table(
        parse("W(r+s) = T(s-1)*W(r-1) + (T(s-1) + T(s-2))*W(r) + T(s)*W(r+1)"), "T"
    )


@pytest.mark.parametrize(
    "offsets,text",
    [
        (
            (-4, 0, 1),
            "4*W(r+s) = 2*T(s-1)*W(r-4) + (T(s+4) - 7*T(s))*W(r) + 4*T(s)*W(r+1)",
        ),
        (
            (-1, 0, 4),
            "4*W(r+s) = 2*T(s-4)*W(r-1) + (4*T(s+1) - 7*T(s))*W(r) + T(s)*W(r+4)",
        ),
        (
            (-1, 0, 1),
            "W(r+s) = T(s-1)*W(r-1) + (T(s+1) - T(s))*W(r) + T(s)*W(r+1)",
        ),
        (
            (-4, 0, 4),
            "4*W(r+s) = T(s-4)*W(r-4) + (T(s+4) - 11*T(s))*W(r) + T(s)*W(r+4)",
        ),
        (
            (-1, 0, 2),
            "W(r+s) = (T(s+1) - 2*T(s) - T(s-2))*W(r-1)"
            " + (T(s+1) - 2*T(s))*W(r) + T(s)*W(r+2)",
        ),
    ],
)
def test_tribonacci_basis_regressions(offsets, text):
    t = derive_tribonacci_basis(*offsets)
    assert template_fraction_table(t) == fraction_table(parse(text), "T")


def test_lucas_basis_reproduces_22_identity():
    t = derive_lucas_basis(-1, 0, 1)
    assert t.denominator == 22
    assert t.coeffs == ((5, 1, 2), (1, -2, 7), (2, 7, 3))


def test_lucas_basis_reproduces_44_identity():
    t = derive_lucas_basis(-6, -4, -2)
    expected = fraction_table(
        parse(
            "44*W(r+s) = (9*K(s+3) - K(s+5) + 2*K(s+1))*W(r-6)"
            " + (9*K(s+1) + K(s+5) + 2*K(s+3))*W(r-4)"
            " + (K(s+3) + 6*K(s+5) - K(s+1))*W(r-2)"
        ),
        "K",
    )
    assert template_fraction_table(t) == expected


def test_duplicate_offsets_rejected():
    with pytest.raises(ValueError):
        derive_tribonacci_basis(0, 0, 1)


def test_singular_anchor_systems_rejected():
    # both anchor determinants vanish for these offsets
    for fn in (derive_tribonacci_basis, derive_lucas_basis):
        with pytest.raises(DegenerateOffsets):
            fn(-4, -1, 0)


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_degenerate_exactly_when_an_anchor_factor_is_singular():
    # M = C·H·Dᵀ with C rows Z(o_i), D rows Z(-o_i) and H the basis's
    # nonsingular Hankel matrix, so derive refuses exactly when
    # det C · det D = 0, although a formula exists whenever det C != 0
    for fn in (derive_tribonacci_basis, derive_lucas_basis):
        refused = spurious = 0
        for offsets in combinations(range(-12, 13), 3):
            det_c = _det3([basis_decomposition(o) for o in offsets])
            det_d = _det3([basis_decomposition(-o) for o in offsets])
            try:
                fn(*offsets)
                raised = False
            except DegenerateOffsets:
                raised = True
            assert raised == (det_c * det_d == 0), (fn.__name__, offsets)
            refused += raised
            spurious += raised and det_c != 0
        # of 2,300 triples, 46 have no formula and 46 more are refused anyway
        assert (refused, spurious) == (92, 46), fn.__name__


def test_a_refused_triple_has_a_formula():
    # det C != 0 = det D: derive refuses (-12, -11, -8), yet this holds
    with pytest.raises(DegenerateOffsets):
        derive_tribonacci_basis(-12, -11, -8)
    formula = parse(
        "2*W(r+s) = 13*T(s-1)*W(r-12) - 48*T(s-1)*W(r-11) + 149*T(s-1)*W(r-8)"
        " + 20*T(s)*W(r-12) - 74*T(s)*W(r-11) + 230*T(s)*W(r-8)"
        " + 24*T(s+1)*W(r-12) - 88*T(s+1)*W(r-11) + 274*T(s+1)*W(r-8)"
    )
    assert certify(formula).verdict == "verified"


def residual(t, seed, r, s):
    """RHS - denominator * W(r+s) of a template, by the reference evaluator."""
    return -reevaluate(template_to_ast(t).diff(), seed, r, s)


def test_template_residuals_vanish():
    t5 = derive_tribonacci_basis(-4, 0, 1)
    assert residual(t5, SeedVector(0, 1, 1), 10, 7) == 0
    assert residual(t5, SeedVector(3, 1, 3), -5, -3) == 0
    t22 = derive_lucas_basis(-1, 0, 1)
    assert residual(t22, SeedVector(1, 2, 3), 3, 2) == 0


def test_corrupted_coefficient_detected():
    t = derive_tribonacci_basis(-1, 0, 1)
    bad = type(t)(
        basis=t.basis,
        offsets=t.offsets,
        coeffs=((t.coeffs[0][0] + 1,) + t.coeffs[0][1:], t.coeffs[1], t.coeffs[2]),
        denominator=t.denominator,
    )
    assert any(
        residual(bad, SeedVector(1, 1, 1), r, s) != 0
        for r in range(3)
        for s in range(3)
    )


def test_canonical_gcd_invariant():
    from math import gcd

    for offsets in [(-4, 0, 1), (-6, -4, -2), (2, 5, 9), (-3, 1, 2)]:
        for fn in (derive_tribonacci_basis, derive_lucas_basis):
            t = fn(*offsets)
            flat = [c for row in t.coeffs for c in row]
            assert t.denominator > 0
            assert gcd(t.denominator, *flat) == 1


def test_swap_of_familiar_formula():
    t = derive_tribonacci_basis(-1, 0, 1)
    swapped = swap_roles(t)
    assert swapped == parse("W(r+s) = W(s-1)*T(r-1) + (W(s+1) - W(s))*T(r) + W(s)*T(r+1)")


def test_swap_of_lucas_22_identity():
    t = derive_lucas_basis(-1, 0, 1)
    assert swap_roles(t) == parse(
        "22*W(r+s) = (5*W(s-2) + W(s-1) + 2*W(s))*K(r-1)"
        " + (W(s-2) - 2*W(s-1) + 7*W(s))*K(r)"
        " + (2*W(s-2) + 7*W(s-1) + 3*W(s))*K(r+1)"
    )


def exchange_roles(ast, basis):
    """Swap W and ``basis`` on every single-variable factor of any AST and
    canonicalize again: a reference for ``swap_roles``, independent of how
    it builds its AST."""

    def swap_factor(f):
        sym, vs, off = f
        if len(vs) == 1 and sym in ("W", basis):
            return ("W" if sym == basis else basis, vs, off)
        return f

    def swap_side(side):
        out = {}
        for mono, coeff in side:
            m = tuple(sorted((swap_factor(f), e) for f, e in mono))
            out[m] = out.get(m, 0) + coeff
        return out

    return identity(swap_side(ast.lhs), swap_side(ast.rhs))


def test_swap_is_an_involution():
    for t in (derive_tribonacci_basis(-2, 1, 3), derive_lucas_basis(-1, 0, 2)):
        assert exchange_roles(template_to_ast(t), t.basis) == swap_roles(t)
        assert exchange_roles(swap_roles(t), t.basis) == template_to_ast(t)


def _values(seed, lo, hi):
    return {n: term(seed, n) for n in range(lo, hi + 1)}


def _residual_cached(t, wvals, bvals, r, s):
    # same computation as residual, against precomputed tables
    base = CANONICAL_BASE[t.basis]
    rhs = 0
    for i, off in enumerate(t.offsets):
        coeff = sum(c * bvals[s + base + j] for j, c in enumerate(t.coeffs[i]))
        rhs += coeff * wvals[r + off]
    return rhs - t.denominator * wvals[r + s]


def test_all_offset_triples_in_range():
    # every nondegenerate triple in [-6, 6]^3 yields a template whose
    # residual vanishes on unit seeds for r, s in [-8, 8]
    grid = [(r, s) for r in range(-8, 9) for s in range(-8, 9)]
    bvals = {
        "T": _values(TRIBONACCI, -12, 12),
        "K": _values(TRIBONACCI_LUCAS, -12, 12),
    }
    wtabs = [_values(seed, -16, 16) for seed in UNIT_SEEDS]
    for fn in (derive_tribonacci_basis, derive_lucas_basis):
        for offsets in combinations(range(-6, 7), 3):
            try:
                t = fn(*offsets)
            except DegenerateOffsets:
                continue
            # spot-check the cached evaluator against the real one once
            assert _residual_cached(t, wtabs[0], bvals[t.basis], 2, -3) == (
                residual(t, UNIT_SEEDS[0], 2, -3)
            )
            for wvals in wtabs:
                for r, s in grid:
                    assert _residual_cached(t, wvals, bvals[t.basis], r, s) == 0, (
                        offsets,
                        r,
                        s,
                    )


def test_derive_swap_certify_round_trip():
    for fn in (derive_tribonacci_basis, derive_lucas_basis):
        for offsets in combinations(range(-6, 7), 3):
            try:
                t = fn(*offsets)
            except DegenerateOffsets:
                continue
            assert certify(swap_roles(t)).verdict == "verified", offsets


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from("TK"),
    st.lists(st.integers(-3000, 3000), min_size=3, max_size=3, unique=True),
)
def test_output_bits_bound_the_derived_formula(basis, offsets):
    fn = derive_tribonacci_basis if basis == "T" else derive_lucas_basis
    try:
        t = fn(*offsets)
    except DegenerateOffsets:
        assume(False)
    spent = t.denominator.bit_length() + sum(abs(c).bit_length() for row in t.coeffs for c in row)
    assert spent <= output_bits(basis, offsets)


@pytest.mark.parametrize("basis", ["T", "K"])
def test_derive_path_matches_the_generic_reference(basis):
    # every sorted triple in [-12, 12], and triples whose anchors lie past
    # basis_decomposition's small-index table (|n| >= 64): the same
    # template, the same two ASTs and the same refusals as anchors from
    # matrix_power_term, modular-index cofactors and ASTs canonicalized by
    # dsl.identity
    fn = derive_tribonacci_basis if basis == "T" else derive_lucas_basis
    wide = [(-70, 0, 70), (-40, 1, 100), (0, 64, 130), (-130, -64, 0), (-100, -1, 40)]
    refused = []
    for offsets in [*combinations(range(-12, 13), 3), *wide]:
        try:
            expected = reference.derive(basis, offsets)
        except DegenerateOffsets as exc:
            with pytest.raises(DegenerateOffsets) as raised:
                fn(*offsets)
            assert str(raised.value) == str(exc)
            refused.append(offsets)
            continue
        t = fn(*offsets)
        assert t == expected, offsets
        assert template_to_ast(t) == reference.formula_ast(t, basis, "W"), offsets
        assert swap_roles(t) == reference.formula_ast(t, "W", basis), offsets
    assert len(refused) == 92

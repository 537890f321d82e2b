import importlib
import random
import tracemalloc
import types
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tribkit
from tribkit import (
    TRIBONACCI,
    DegenerateOffsets,
    SeedVector,
    UnsupportedTerm,
    certify,
    derive_lucas_basis,
    derive_tribonacci_basis,
    load_corpus,
    parse,
    render,
    single_coefficient_mutants,
    swap_roles,
    template_to_ast,
    term,
    window_bound,
)
from tribkit.certify import (
    _NORM,
    Counterexample,
    _content_free,
    _evaluate,
    _grid,
    _lookups,
    _normal_form,
    _probe,
    _Terms,
)
from tribkit.dsl import VARS, IdentityAst, identity, poly_mul
from tribkit.sequences import basis_decomposition

from reference import raw_sides, raw_sides_with_zero_exponents, reevaluate, unsupported_message

# ``tribkit.certify`` is the function; the module holds the internals.
certify_module = importlib.import_module("tribkit.certify")

THM4 = (
    "W(r)^3 - 4*W(r-1)^3 - 9*W(r-2)^3 - 34*W(r-3)^3 + 24*W(r-4)^3 - 2*W(r-5)^3"
    " + 40*W(r-6)^3 - 14*W(r-7)^3 - W(r-8)^3 - 2*W(r-9)^3 + W(r-10)^3 = 0"
)


def brute_force_truth(ast, rng_seed=7):
    rng = random.Random(rng_seed)
    seeds = [SeedVector(*(rng.randint(-50, 50) for _ in range(3))) for _ in range(20)]
    return all(
        reevaluate(ast.diff(), seed, r, 0) == 0
        for seed in seeds
        for r in range(-30, 31)
    )


def test_window_bound():
    assert window_bound(0) == 1
    assert window_bound(1) == 3
    assert window_bound(2) == 6
    assert window_bound(3) == 10
    with pytest.raises(ValueError):
        window_bound(-1)


def test_linear_recurrence_verified():
    cert = certify(parse("W(r-16) = -103*W(r) + 56*W(r+1)"))
    assert cert.verdict == "verified"
    assert cert.windows == {"r": 3, "s": 1}
    assert cert.seed_degree == 1
    assert cert.evaluations == 0
    assert cert.method == "normal_form"


def test_false_linear_recurrence_refuted():
    cert = certify(parse("W(r-16) = -103*W(r) + 57*W(r+1)"))
    assert cert.verdict == "refuted"
    c = cert.counterexample
    seed = SeedVector(*c.seed)
    lhs = term(seed, c.r - 16)
    rhs = -103 * term(seed, c.r) + 57 * term(seed, c.r + 1)
    assert (lhs, rhs) == (c.lhs, c.rhs)
    assert lhs != rhs


def test_cubic_verified_with_window_ten():
    cert = certify(parse(THM4))
    assert cert.verdict == "verified"
    assert cert.windows["r"] == 10
    assert cert.seed_degree == 3


def test_trivial_identity_costs_nothing():
    cert = certify(parse("W(r) = W(r)"))
    assert cert.verdict == "verified"
    assert cert.evaluations == 0


def test_unsupported_terms():
    with pytest.raises(UnsupportedTerm):
        certify(parse("T(0) = 0"))
    with pytest.raises(UnsupportedTerm):
        certify(parse("W(r) = W(r-1) + 1"))


@settings(max_examples=200, deadline=None)
@given(lhs=raw_sides, rhs=raw_sides)
def test_unsupported_terms_raise_the_reference_messages(lhs, rhs):
    # the first bare constant or absolute-index factor of lhs - rhs names
    # the error, as the scope check did before the one degree pass
    ast = IdentityAst(lhs, rhs)
    message = unsupported_message(ast.diff())
    assume(message is not None)
    with pytest.raises(UnsupportedTerm) as raised:
        certify(ast)
    assert str(raised.value) == message


def test_certify_attribute_is_the_function_not_the_module():
    # the package re-exports the function under its submodule's name
    import tribkit.certify as bound

    assert bound is tribkit.certify is certify
    assert not isinstance(bound, types.ModuleType)
    assert isinstance(certify_module, types.ModuleType)
    assert certify_module.certify is certify


def test_fixed_tables_hold_only_small_indices():
    # The probe of the first reads W at 2 * 10^5 + 7, far past the tables;
    # the second's probe reads T(69), its normal form T(64); the third's
    # grid reads T(64) before its counterexample at r = 2.
    k = 200_000
    texts = [
        f"W(r+{k}) = W(r+{k - 1}) + W(r+{k - 2}) + W(r+{k - 3})",
        "T(r+62) = T(r+61) + T(r+60) + T(r+59)",
        "T(r+62)*W(r) = 0",
    ]
    certs = [certify(parse(text)) for text in texts]
    assert [c.method for c in certs] == ["normal_form", "normal_form", "grid"]
    assert certs[2].counterexample == Counterexample((0, 0, 1), 2, 0, term(TRIBONACCI, 64), 0)
    tables = certify_module._SMALL_W
    assert set(tables) == {(2, -3, 5), (0, 0, 1)}
    assert tables == {seed: {n: term(seed, n) for n in range(-63, 64)} for seed in tables}
    assert certify_module._Terms(TRIBONACCI) == {}


def test_certificate_serializes():
    d = certify(parse("K(r-2) = 5*T(r-1) - T(r+1)")).to_dict()
    assert d["verdict"] == "verified"
    assert d["windows"] == {"r": 3, "s": 1}
    assert d["seed_degree"] == 0


def test_refuted_counterexamples_reproduce():
    for entry in ["eq12", "thm3a", "thm4"]:
        ast = next(e for e in load_corpus() if e.id == entry).ast()
        for mutant in single_coefficient_mutants(ast):
            cert = certify(mutant)
            assert cert.verdict == "refuted"
            c = cert.counterexample
            seed = SeedVector(*c.seed)
            assert reevaluate(mutant.lhs, seed, c.r, c.s) == c.lhs
            assert reevaluate(mutant.rhs, seed, c.r, c.s) == c.rhs
            assert c.lhs != c.rhs


def test_degree_one_oracle_equivalence():
    cases = [
        ("W(r) = 2*W(r-1) - W(r-4)", True),
        ("W(r-16) = -103*W(r) + 56*W(r+1)", True),
        ("2*W(r-17) = 9*W(r) - 103*W(r-4)", True),
        ("W(r) = 2*W(r-1) - W(r-5)", False),
        ("W(r-16) = -103*W(r) + 56*W(r+2)", False),
        ("K(r-2) = 5*T(r-1) - T(r+2)", False),
    ]
    for text, expected in cases:
        ast = parse(text)
        assert (certify(ast).verdict == "verified") == expected
        assert brute_force_truth(ast) == expected


def test_window_shrink_admits_false_identity():
    # T(r-1) vanishes at r = 0 and r = 1 but not at r = 2: a window of
    # m - 1 = 2 points would wrongly verify it, the full window refutes it.
    ast = parse("T(r-1) = 0")
    cert = certify(ast)
    assert cert.verdict == "refuted"
    assert cert.windows["r"] == 3
    assert cert.counterexample.r == 2
    terms = {"T": _Terms(SeedVector(0, 1, 1))}
    assert [_evaluate(ast.diff(), terms, r, 0) for r in (0, 1, 2)] == [0, 0, 1]


@settings(max_examples=300, deadline=None)
@given(
    side=raw_sides_with_zero_exponents,
    seed=st.sampled_from([(0, 0, 1), (0, 1, 0), (0, 0, 0), (1, 0, 0), (0, 1, 1), (2, -3, 5)]),
    r=st.integers(-4, 4),
    s=st.integers(-4, 4),
)
def test_evaluate_stops_only_at_a_zero_factor(side, seed, r, s):
    # a monomial stops at its first zero factor; a factor of exponent 0
    # contributes 1 even where its term is 0
    seed = SeedVector(*seed)
    expected = reevaluate(side, seed, r, s)
    assert _evaluate(side, _lookups(seed), r, s) == expected
    assert _evaluate(side, _lookups(seed), r, s, 2**61 - 1) == expected % (2**61 - 1)


def test_tables_span_only_the_factors_indices():
    cert = certify(parse("W(r+20000) = W(r+19999) + W(r+19998) + W(r+19997)"))
    assert (cert.verdict, cert.method) == ("verified", "normal_form")


# --- normal form ------------------------------------------------------------


def hankel(seq="T", v="r"):
    """The 3x3 Hankel determinant of seq at index v, parenthesized."""
    return (
        "(T(r)*T(r+2)*T(r+4) - T(r)*T(r+3)^2 - T(r+1)^2*T(r+4)"
        " + 2*T(r+1)*T(r+2)*T(r+3) - T(r+2)^3)"
    ).replace("T(", f"{seq}(").replace("(r", f"({v}")


HANKEL_T = f"{hankel()}*W(s) = -W(s)"


def test_normal_form_zero_on_corpus_nonzero_on_mutants():
    mutants = 0
    for entry in load_corpus():
        ast = entry.ast()
        assert not _normal_form(ast.diff()), entry.id
        for mutant in single_coefficient_mutants(ast):
            mutants += 1
            # diff() relies on the sides sharing no monomial
            assert not {m for m, _ in mutant.lhs} & {m for m, _ in mutant.rhs}
            assert _normal_form(mutant.diff()), (entry.id, render(mutant))
    assert mutants == 349


def test_normal_form_zero_on_derived_formulas():
    formulas = 0
    for derive in (derive_tribonacci_basis, derive_lucas_basis):
        for offsets in combinations(range(-6, 7), 3):
            try:
                template = derive(*offsets)
            except DegenerateOffsets:
                continue
            for ast in (template_to_ast(template), swap_roles(template)):
                formulas += 1
                assert not _normal_form(ast.diff()), (offsets, render(ast))
    assert formulas == 2 * 536


@pytest.mark.parametrize("v", VARS)
def test_norm_relation_reduces_to_zero(v):
    # N(x^v) = 1: the norm of the unit x^v, at its coordinates c(v).
    norms = {
        sum(c * prod(map(pow, basis_decomposition(n), e)) for e, c in _NORM.items())
        for n in range(-30, 31)
    }
    assert norms == {1}
    # The Hankel determinant of T at v expands to exactly -N(Z_v), so this
    # diff is -(N(Z_v) - 1), which the reduction takes to zero.
    assert not _normal_form(parse(f"{hankel('T', v)} = -1").diff())


def test_norm_relation_decided_by_normal_form():
    # The Hankel determinant of T is -1 at every r, but only along the orbit:
    # as a polynomial in Z_r = basis_decomposition(r) it is -N(x^r), a cubic.
    cert = certify(parse(HANKEL_T))
    assert (cert.verdict, cert.method) == ("verified", "normal_form")
    assert cert.evaluations == 0
    false = certify(parse(HANKEL_T.replace("= -W(s)", "= W(s)")))
    assert false.verdict == "refuted" and false.method == "grid"


def test_common_factor_is_divided_out_only_for_the_zero_test():
    # W(r)^3 * W(s) divides every monomial; the normal form decides on the
    # quotient, Hankel + 1, and the grid refutes over the undivided diff.
    lhs, rhs = HANKEL_T.split(" = ")
    true = parse(f"W(r)^3*{lhs} = W(r)^3*({rhs})")
    quotient = parse(HANKEL_T.replace("*W(s) = -W(s)", " = -1")).diff()
    assert sorted(_content_free(true.diff())) == sorted(quotient)
    cert = certify(true)
    assert (cert.verdict, cert.method) == ("verified", "normal_form")
    assert cert.windows == {"r": 38, "s": 3} and cert.evaluations == 0
    # The sign-flipped mutant: the counterexample and count of the full grid,
    # whose zero seed point is skipped.
    false = certify(parse(f"W(r)^3*{lhs} = W(r)^3*W(s)"))
    assert (false.verdict, false.method, false.evaluations) == ("refuted", "grid", 9)
    assert false.counterexample == Counterexample(seed=(0, 0, 1), r=2, s=2, lhs=-1, rhs=1)


def test_single_monomial_refuted_by_grid():
    cert = certify(parse("W(r)^2*T(s+1) = 0"))
    assert (cert.verdict, cert.method, cert.evaluations) == ("refuted", "grid", 7)
    assert cert.counterexample == Counterexample(seed=(0, 0, 1), r=2, s=0, lhs=1, rhs=0)


@pytest.mark.parametrize(
    "text, evaluations, counterexample",
    [
        # r-window C(3002, 2) = 4,504,501; the zero seed point is skipped,
        # and the seed (0, 0, 1) refutes at its third point.
        ("W(r)^3000 = 0", 3, Counterexample(seed=(0, 0, 1), r=2, s=0, lhs=1, rhs=0)),
        # no W factor, so the zero seed point is evaluated: T(1) = 1
        ("T(r)^600 = 0", 2, Counterexample(seed=(0, 0, 0), r=1, s=0, lhs=1, rhs=0)),
    ],
)
def test_refutation_reads_only_the_points_it_walks(text, evaluations, counterexample):
    # The windows are long, but the grid looks up only the terms its
    # points reach before the counterexample.
    cert = certify(parse(text))
    assert (cert.verdict, cert.method, cert.evaluations) == ("refuted", "grid", evaluations)
    assert cert.counterexample == counterexample


def test_method_reported():
    assert certify(parse(THM4)).to_dict()["method"] == "normal_form"
    assert certify(parse("W(r) = W(r)")).method == "normal_form"
    assert certify(parse("W(r) = 2*W(r-1)")).to_dict()["method"] == "grid"


def test_normal_form_fields_do_not_carry():
    # With 8-bit exponent fields W(r)^256 = X_0^256 would collide with
    # W(r+1) = X_1 and the false identity would cancel to zero.
    assert len(_normal_form(parse("W(r)^256 = W(r+1)").diff())) == 2
    true = parse("W(r)^300*W(r+3) = W(r)^300*(W(r+2) + W(r+1) + W(r))")
    assert not _normal_form(true.diff())


_factor = st.tuples(
    st.sampled_from("WTK"), st.sampled_from([("r",), ("s",), ("r", "s")]), st.integers(-3, 3)
)
_monomial = st.tuples(st.integers(-3, 3).filter(bool), st.lists(_factor, min_size=1, max_size=2))


def _merge(out, poly):
    """Add ``poly`` into ``out`` in place; ``identity`` drops any zeros."""
    for m, c in poly.items():
        out[m] = out.get(m, 0) + c
    return out


def _poly(terms):
    out = {}
    for coeff, factors in terms:
        mono = {(): coeff}
        for f in factors:
            mono = poly_mul(mono, {((f, 1),): 1})
        _merge(out, mono)
    return out


def _recurrence(factor):
    """f(n) as f(n-1) + f(n-2) + f(n-3)."""
    sym, vs, off = factor
    return {(((sym, vs, off - k), 1),): 1 for k in (1, 2, 3)}


@settings(max_examples=60, deadline=None)
@given(
    lhs=st.lists(_monomial, min_size=1, max_size=3),
    rhs=st.lists(_monomial, max_size=2),
    true=st.booleans(),
)
def test_certify_matches_full_grid(lhs, rhs, true):
    left = _poly(lhs)
    if true:  # rewrite one factor of one term by the recurrence
        coeff, (first, *rest) = lhs[0]
        right = _merge(
            _poly(lhs[1:]), poly_mul(_poly([(coeff, rest)]), _recurrence(first))
        )
    else:
        right = _poly(rhs)
    ast = identity(left, right)
    assume(ast.diff())
    cert = certify(ast)
    seeds = product(range(cert.seed_degree + 1), repeat=3)
    evaluations, counterexample = _grid(ast, ast.diff(), cert.windows, seeds)
    assert cert.counterexample == counterexample
    assert cert.verdict == ("verified" if counterexample is None else "refuted")
    if true:
        assert cert.verdict == "verified"
    if cert.method == "normal_form":
        assert cert.evaluations == 0
    else:
        assert cert.evaluations == evaluations and cert.method == "grid"


# --- decision order ---------------------------------------------------------


@pytest.mark.parametrize("text", ["T(r-7)*W(r) = 0", "T(r-7) = T(s-11)"])
def test_unlucky_probe_still_refutes_canonically(text):
    # Both vanish at the probe point (r = 7, s = 11), so the normal form
    # runs first; it is nonzero and the full grid refutes.
    ast = parse(text)
    assert _probe(ast.diff()) == 0
    cert = certify(ast)
    seeds = product(range(cert.seed_degree + 1), repeat=3)
    evaluations, counterexample = _grid(ast, ast.diff(), cert.windows, seeds)
    assert (cert.verdict, cert.method) == ("refuted", "grid")
    assert (cert.evaluations, cert.counterexample) == (evaluations, counterexample)


def test_probe_is_a_residue():
    # lhs - rhs is 46^1000000, about 5.5 million bits, at the probe point;
    # its residue modulo 2^61 - 1 costs one modular power
    ast = parse("W(r)^1000000 = 0")
    assert _probe(ast.diff()) in range(2**61 - 1)
    cert = certify(ast)
    assert (cert.verdict, cert.method, cert.evaluations) == ("refuted", "grid", 3)


def test_seed_points_are_generated_lazily():
    # d_W = 10^6: the seed grid {0..10^6}^3 is walked one point at a time,
    # and the refutation reads 3 points of it
    ast = parse("W(r)^1000000 = 0")
    tracemalloc.start()
    try:
        cert = certify(ast)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.verdict, cert.evaluations) == ("refuted", 3)
    assert peak < 2**20


def test_hand_built_ast_may_share_monomials_between_sides():
    # diff() does not merge the sides: each monomial of this AST appears in
    # it twice, with opposite signs, and every consumer adds them up
    side = parse(THM4).lhs
    ast = IdentityAst(side, side)
    assert len(ast.diff()) == 2 * len(side)
    cert = certify(ast)
    assert (cert.verdict, cert.method, cert.evaluations) == ("verified", "normal_form", 0)
    # a monomial repeated within one side counts every time: W(r) + W(r) = 2*W(r)
    ((w, _),) = parse("W(r) = 0").lhs
    cert = certify(IdentityAst(((w, 1), (w, 1)), ((w, 2),)))
    assert (cert.verdict, cert.method) == ("verified", "normal_form")


def test_hand_built_monomial_may_repeat_a_factor():
    # W(r)*W(r) = W(r)^2: the common factor W(r)^2 takes both exponents of
    # the repeated factor, so the quotient is 1 - 1 = 0
    ((f, _),), _ = parse("W(r) = 0").lhs[0]
    product, square = ((f, 1), (f, 1)), ((f, 2),)
    cert = certify(IdentityAst(((product, 1),), ((square, 1),)))
    assert (cert.verdict, cert.method) == ("verified", "normal_form")
    false = certify(IdentityAst(((product, 1),), ((square, 2),)))
    assert false.verdict == "refuted"


# True identities that need the norm relation N(x^v) = 1.
NORM_RELATION = [
    HANKEL_T,
    f"{hankel()}^3*W(r)^2*W(s) = -W(r)^2*W(s)",
    f"{hankel('K')}*W(s) = -44*W(s)",
    f"{hankel('W')} = {hankel('W', 's')}",
    f"{hankel()}*{hankel('K', 's')}*W(r+s) = 44*W(r+s)",
]


@pytest.mark.parametrize(
    "text",
    [
        THM4,
        "W(r)^50*(W(r+3) - W(r+2) - W(r+1) - W(r)) = 0",
        "W(r)^200 = W(r)^199*(W(r+3) - W(r+2) - W(r+1))",
        *NORM_RELATION,
        # a reduction that rewrites Z_v,0^3 one term at a time takes seconds
        f"{hankel()}^5*W(s) = -W(s)",
    ],
)
def test_normal_form_verdicts_touch_no_table(monkeypatch, text):
    grids = []

    def counting_grid(*args):
        grids.append(args)
        return _grid(*args)

    monkeypatch.setattr(certify_module, "_grid", counting_grid)
    cert = certify(parse(text))
    assert (cert.verdict, cert.method, cert.evaluations) == ("verified", "normal_form", 0)
    assert grids == []
    assert certify(parse("W(r) = 2*W(r-1)")).verdict == "refuted"
    assert len(grids) == 1


@pytest.mark.parametrize("text", NORM_RELATION)
def test_norm_relation_mutants_refuted_as_full_grid(text):
    mutants = list(single_coefficient_mutants(parse(text)))
    assert mutants
    for mutant in mutants:
        cert = certify(mutant)
        seeds = product(range(cert.seed_degree + 1), repeat=3)
        evaluations, counterexample = _grid(mutant, mutant.diff(), cert.windows, seeds)
        assert counterexample is not None
        assert (cert.verdict, cert.method) == ("refuted", "grid")
        assert (cert.evaluations, cert.counterexample) == (evaluations, counterexample)


def test_evaluations_count_the_points_evaluated(monkeypatch):
    # Every _evaluate call is the probe, a grid point or a counterexample
    # side: a verification evaluates the probe only, a refutation the probe,
    # its ``evaluations`` grid points and the two sides.
    calls = 0

    def counting_evaluate(*args):
        nonlocal calls
        calls += 1
        return _evaluate(*args)

    monkeypatch.setattr(certify_module, "_evaluate", counting_evaluate)
    identities = [entry.ast() for entry in load_corpus()] + [parse(t) for t in NORM_RELATION]
    asts = identities + [m for ast in identities for m in single_coefficient_mutants(ast)]
    for ast in asts:
        calls = 0
        cert = certify(ast)
        if cert.verdict == "verified":
            assert (cert.evaluations, calls) == (0, 1), render(ast)
        else:
            assert calls == cert.evaluations + 3, render(ast)


def test_repeated_sweeps_give_identical_certificates():
    fixed = parse(HANKEL_T).diff()
    before = _normal_form(fixed)
    identities = [entry.ast() for entry in load_corpus()]
    asts = identities + [m for ast in identities for m in single_coefficient_mutants(ast)]
    first = [certify(ast).to_dict() for ast in asts]
    assert [certify(ast).to_dict() for ast in asts] == first
    assert _normal_form(fixed) == before


def test_certify_keeps_no_expansion_alive():
    # At offset 2 * 10^5 every coefficient of x^k mod f is about 22 kB, and
    # the expansion of one r+s factor holds several of them.
    k = 200_000
    ast = parse(f"W(r+s+{k}) = W(r+s+{k - 1}) + W(r+s+{k - 2}) + W(r+s+{k - 3})")
    certify(parse("W(r+1) = W(r) + W(r-1) + W(r-2)"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = certify(ast)
        assert (cert.verdict, cert.method) == ("verified", "normal_form")
        del cert
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024

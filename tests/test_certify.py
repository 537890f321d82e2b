import importlib
import random
import tracemalloc
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tribkit import (
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
    _bind,
    _content_free,
    _evaluate,
    _grid,
    _normal_form,
    _probe,
    _Terms,
)
from tribkit.dsl import VARS, identity, poly_add, poly_mul
from tribkit.sequences import basis_decomposition

from reference import reevaluate

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
    assert cert.evaluations == 2 * 3  # two seed points times the r window
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
    bound = _bind(ast.diff(), {"T": _Terms(SeedVector(0, 1, 1))})
    assert [_evaluate(bound, r, 0) for r in (0, 1, 2)] == [0, 0, 1]


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
    assert cert.evaluations == 2 * 11 * 3
    false = certify(parse(HANKEL_T.replace("= -W(s)", "= W(s)")))
    assert false.verdict == "refuted" and false.method == "grid"


def test_common_factor_is_divided_out_only_for_the_zero_test():
    # W(r)^3 * W(s) divides every monomial; the normal form decides on the
    # quotient, Hankel + 1, and the grid refutes over the undivided diff.
    lhs, rhs = HANKEL_T.split(" = ")
    true = parse(f"W(r)^3*{lhs} = W(r)^3*({rhs})")
    quotient = parse(HANKEL_T.replace("*W(s) = -W(s)", " = -1")).diff()
    assert sorted(_content_free(true.diff())) == list(quotient)
    cert = certify(true)
    assert (cert.verdict, cert.method) == ("verified", "normal_form")
    assert cert.windows == {"r": 38, "s": 3} and cert.evaluations == 2 * 38 * 3
    # The sign-flipped mutant: the counterexample and count of the full grid,
    # whose zero seed point is counted without evaluating (38 * 3 = 114).
    false = certify(parse(f"W(r)^3*{lhs} = W(r)^3*W(s)"))
    assert (false.verdict, false.method, false.evaluations) == ("refuted", "grid", 123)
    assert false.counterexample == Counterexample(seed=(0, 0, 1), r=2, s=2, lhs=-1, rhs=1)


def test_single_monomial_refuted_by_grid():
    cert = certify(parse("W(r)^2*T(s+1) = 0"))
    assert (cert.verdict, cert.method, cert.evaluations) == ("refuted", "grid", 25)
    assert cert.counterexample == Counterexample(seed=(0, 0, 1), r=2, s=0, lhs=1, rhs=0)


@pytest.mark.parametrize(
    "text, evaluations, counterexample",
    [
        # r-window C(3002, 2) = 4,504,501, all counted at the zero seed
        # point; the seed (0, 0, 1) refutes at its third point.
        ("W(r)^3000 = 0", 4_504_504, Counterexample(seed=(0, 0, 1), r=2, s=0, lhs=1, rhs=0)),
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


def _poly(terms):
    out = {}
    for coeff, factors in terms:
        mono = {(): coeff}
        for f in factors:
            mono = poly_mul(mono, {((f, 1),): 1})
        out = poly_add(out, mono)
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
        right = poly_add(
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
        seed_points = min(2, (cert.seed_degree + 1) ** 3)
        assert cert.evaluations == seed_points * cert.windows["r"] * cert.windows["s"]
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


# True identities that need the norm relation N(x^v) = 1.
NORM_RELATION = [
    (HANKEL_T, 2 * 11 * 3),
    (f"{hankel()}^3*W(r)^2*W(s) = -W(r)^2*W(s)", 2 * 28 * 9),
    (f"{hankel('K')}*W(s) = -44*W(s)", 2 * 11 * 3),
    (f"{hankel('W')} = {hankel('W', 's')}", 2 * 11 * 11),
    (f"{hankel()}*{hankel('K', 's')}*W(r+s) = 44*W(r+s)", 2 * 18 * 18),
]


@pytest.mark.parametrize(
    "text, evaluations",
    [
        (THM4, 2 * 10),
        ("W(r)^50*(W(r+3) - W(r+2) - W(r+1) - W(r)) = 0", 2756),
        ("W(r)^200 = W(r)^199*(W(r+3) - W(r+2) - W(r+1))", 40602),
        *NORM_RELATION,
        # a reduction that rewrites Z_v,0^3 one term at a time takes seconds
        (f"{hankel()}^5*W(s) = -W(s)", 2 * 137 * 3),
    ],
)
def test_normal_form_verdicts_touch_no_table(monkeypatch, text, evaluations):
    grids = []

    def counting_grid(*args):
        grids.append(args)
        return _grid(*args)

    monkeypatch.setattr(certify_module, "_grid", counting_grid)
    cert = certify(parse(text))
    assert (cert.verdict, cert.method, cert.evaluations) == ("verified", "normal_form", evaluations)
    assert grids == []
    assert certify(parse("W(r) = 2*W(r-1)")).verdict == "refuted"
    assert len(grids) == 1


@pytest.mark.parametrize("text", [text for text, _ in NORM_RELATION])
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

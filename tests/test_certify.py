import random

import pytest

from tribkit import (
    SeedVector,
    UnsupportedTerm,
    certify,
    fuzz,
    load_corpus,
    parse,
    single_coefficient_mutants,
    term,
    window_bound,
)
from tribkit.certify import _Tables

from reference import reevaluate

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
    assert cert.evaluations == 8 * 3  # {0,1}^3 seed grid times the r window


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


def test_fuzz_valid_identity():
    report = fuzz(parse("W(r+s) = T(s-1)*W(r-1) + (T(s-1) + T(s-2))*W(r) + T(s)*W(r+1)"), 1000, 42)
    assert report.ok and report.passes == 1000


def test_fuzz_finds_mutant_failure_quickly():
    bad = parse("253*W(r)^2 - 927*W(r-1)^2 + 2884*W(r-4)^2 - W(r-17)^2 = 0")
    report = fuzz(bad, 100, 42)
    assert not report.ok and report.passes < 5
    c = report.counterexample
    seed = SeedVector(*c.seed)
    assert reevaluate(bad.lhs, seed, c.r, c.s) == c.lhs
    assert reevaluate(bad.rhs, seed, c.r, c.s) == c.rhs


def test_fuzz_zero_trials():
    report = fuzz(parse("W(r) = 0"), 0, 1)
    assert report.ok and report.trials == 0


def test_fuzz_allows_absolute_indices():
    assert fuzz(parse("T(4) = 4"), 10, 0).ok


def test_certify_and_fuzz_agree_on_corpus():
    for entry in load_corpus()[::7]:
        ast = entry.ast()
        assert certify(ast).verdict == "verified"
        assert fuzz(ast, 50, 3).ok


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
    tables = _Tables(-1, 3, SeedVector(0, 0, 0))
    assert all(tables.eval_side(ast.diff(), r, 0) == 0 for r in (0, 1))

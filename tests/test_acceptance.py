"""End-to-end acceptance suite: one test per shipping criterion.

Each test prints a single ``criterion N (...): PASS/FAIL`` line so the
overall gate can be read off the run output at a glance.
"""

import random
import time

import pytest

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    bench,
    certify,
    derive_lucas_basis,
    derive_tribonacci_basis,
    fast_term,
    load_corpus,
    matrix_power_term,
    parse,
    render,
    single_coefficient_mutants,
    term,
    window_bound,
)
from tribkit.dsl import ParseError
from tribkit.fasteval import mul_count, reset_mul_count

from reference import reevaluate
from table1 import K_TABLE, T_TABLE
from test_derive import fraction_table, template_fraction_table


@pytest.fixture
def criterion(capsys):
    def run(number, label, body):
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number} ({label}): PASS")

    return run


def test_c1_reference_table_reproduction(criterion):
    def body():
        start = time.perf_counter()
        for r, expected in T_TABLE.items():
            assert term(TRIBONACCI, r) == expected
            assert fast_term(TRIBONACCI, r) == expected
        for r, expected in K_TABLE.items():
            assert term(TRIBONACCI_LUCAS, r) == expected
            assert fast_term(TRIBONACCI_LUCAS, r) == expected
        assert time.perf_counter() - start < 1.0

    criterion(1, "reference table reproduction", body)


def test_c2_corpus_certification(criterion):
    def body():
        assert (window_bound(1), window_bound(2), window_bound(3)) == (3, 6, 10)
        start = time.perf_counter()
        entries = load_corpus()
        assert len(entries) >= 40
        for entry in entries:
            cert = certify(entry.ast())
            assert cert.verdict == "verified", entry.id
        assert time.perf_counter() - start < 30.0

    criterion(2, "corpus certification", body)


def test_c3_mutation_killing(criterion):
    def body():
        by_id = {e.id: e for e in load_corpus()}
        # full kill with reproducible counterexamples on three landmarks
        for entry_id in ("eq12", "thm3a", "thm4"):
            for mutant in single_coefficient_mutants(by_id[entry_id].ast()):
                cert = certify(mutant)
                assert cert.verdict == "refuted", entry_id
                c = cert.counterexample
                seed = SeedVector(*c.seed)
                assert reevaluate(mutant.lhs, seed, c.r, c.s) == c.lhs
                assert reevaluate(mutant.rhs, seed, c.r, c.s) == c.rhs
                assert c.lhs != c.rhs
        # at least 95% kill rate over the whole corpus
        killed = total = 0
        for entry in by_id.values():
            for mutant in single_coefficient_mutants(entry.ast()):
                total += 1
                killed += certify(mutant).verdict == "refuted"
        assert killed / total >= 0.95

    criterion(3, "single-coefficient mutation killing", body)


def test_c4_derivation_regression(criterion):
    cases = [
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
    ]

    def body():
        for offsets, text in cases:
            t = derive_tribonacci_basis(*offsets)
            assert template_fraction_table(t) == fraction_table(parse(text), "T")
        t22 = derive_lucas_basis(-1, 0, 1)
        assert t22.denominator == 22
        assert t22.coeffs == ((5, 1, 2), (1, -2, 7), (2, 7, 3))

    criterion(4, "addition-formula derivation regression", body)


def test_c5_spot_anchors(criterion):
    def body():
        assert -103 * T_TABLE[16] + 56 * T_TABLE[17] == T_TABLE[0] == 0
        assert 9 * T_TABLE[17] - 103 * T_TABLE[13] == 2 * T_TABLE[0] == 0
        assert (
            252 * T_TABLE[17] ** 2
            - 927 * T_TABLE[16] ** 2
            + 2884 * T_TABLE[13] ** 2
            - T_TABLE[0] ** 2
            == 0
        )
        assert 4 * K_TABLE[0] ** 2 == 36
        assert 36 == (
            5 * T_TABLE[5] ** 2
            - 20 * T_TABLE[4] ** 2
            + 4 * T_TABLE[3] ** 2
            + 90 * T_TABLE[1] ** 2
            - 20 * T_TABLE[0] ** 2
            + 5 * T_TABLE[-3] ** 2
        )

    criterion(5, "spot identity anchors", body)


def test_c6_oracle_equivalence(criterion):
    def body():
        start = time.perf_counter()
        for seed in (TRIBONACCI, TRIBONACCI_LUCAS, SeedVector(1, 2, 3)):
            for n in range(-500, 501):
                assert fast_term(seed, n) == term(seed, n)
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(-100000, 100000)
            assert fast_term(TRIBONACCI, n) == matrix_power_term(TRIBONACCI, n)
        assert time.perf_counter() - start < 10.0

    criterion(6, "evaluation oracle equivalence", body)


def test_c7_logarithmic_cost(criterion):
    def body():
        counts = {}
        for k in range(10, 21):
            reset_mul_count()
            fast_term(TRIBONACCI, 2**k)
            counts[k] = mul_count()
        diffs = [counts[k + 1] - counts[k] for k in range(10, 20)]
        assert max(diffs) <= 9  # bounded step cost per doubling
        rows = {row.strategy: row for row in bench([100000], ("iterate", "double"))}
        assert rows["double"].nanoseconds < rows["iterate"].nanoseconds

    criterion(7, "logarithmic multiplication cost", body)


MALFORMED = [
    "W(r",
    "W(r) = ",
    "= W(r)",
    "W(r)) = 0",
    "W() = 0",
    "W(r)^0 = 0",
    "W(r)^-2 = 0",
    "2 ** W(r) = 0",
    "W(r) + = W(s)",
    "W(r q) = 0",
    "W(r) = W(r) = W(r)",
    "W(r) 0",
]


def test_c8_parser_round_trip_and_errors(criterion):
    def body():
        for entry in load_corpus():
            ast = entry.ast()
            text = render(ast)
            assert parse(text) == ast
            assert render(parse(text)) == text
        assert len(MALFORMED) >= 10
        for bad in MALFORMED:
            with pytest.raises(ParseError) as info:
                parse(bad)
            assert info.value.pos >= 0

    criterion(8, "parser round trip and positioned errors", body)

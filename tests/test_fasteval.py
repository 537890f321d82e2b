import random

import pytest

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    bench,
    fast_term,
    matrix_power_term,
    term,
)
from tribkit.fasteval import digit_count, mul_count, reset_mul_count

from table1 import K_TABLE, T_TABLE

SPECS = [
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector(1, 2, 3),
    SeedVector(0, 0, 0),
    SeedVector(10**30 - 7, -(10**30) + 3, 10**30 + 11),
]


def test_table1_via_doubling_and_matrix():
    for r, expected in T_TABLE.items():
        assert fast_term(TRIBONACCI, r) == expected
        assert matrix_power_term(TRIBONACCI, r) == expected
    for r, expected in K_TABLE.items():
        assert fast_term(TRIBONACCI_LUCAS, r) == expected
        assert matrix_power_term(TRIBONACCI_LUCAS, r) == expected


def test_small_examples():
    assert fast_term(TRIBONACCI, 24) == 755476
    assert fast_term(TRIBONACCI, 0) == 0
    assert fast_term(SeedVector(1, 2, 3), 5) == 20
    assert fast_term(TRIBONACCI_LUCAS, -13) == -105
    assert matrix_power_term(TRIBONACCI, 17) == 10609
    assert matrix_power_term(SeedVector(9, -4, 6), 1) == -4
    assert matrix_power_term(TRIBONACCI, -19) == 159


def test_matches_iteration_on_window():
    for seed in SPECS:
        expected = [term(seed, n) for n in range(-500, 501)]
        assert [fast_term(seed, n) for n in range(-500, 501)] == expected


def test_matches_iteration_far_out():
    for seed in SPECS:
        for n in (1000, -1000, 10000, -10000):
            expected = term(seed, n)
            assert fast_term(seed, n) == expected
            assert matrix_power_term(seed, n) == expected


def test_matches_matrix_power_on_random_indices():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(-100000, 100000)
        assert fast_term(TRIBONACCI, n) == matrix_power_term(TRIBONACCI, n)


def test_multiplication_count_is_logarithmic():
    # one extra doubling step per extra bit: 6 counted multiplications;
    # 2**k doubles k times to 2**(k-1), then the finish takes 3 products
    counts = {}
    for k in range(10, 21):
        reset_mul_count()
        fast_term(TRIBONACCI, 2**k)
        counts[k] = mul_count()
        assert counts[k] == 6 * k + 3
    diffs = {counts[k + 1] - counts[k] for k in range(10, 20)}
    assert diffs == {6}


def test_digit_count_growth():
    assert digit_count(0) == 1
    assert digit_count(-755476) == 6
    # floor(1e5 * log10(1.8392867...)) + 1 = 26465 where the base is the
    # dominant root of x^3 = x^2 + x + 1
    assert digit_count(fast_term(TRIBONACCI, 10**5)) == 26465


def test_digit_count_at_powers_of_ten():
    for k in (*range(1, 401), 10**5):
        for sign in (1, -1):
            assert digit_count(sign * 10**k) == k + 1
            assert digit_count(sign * (10**k - 1)) == k


def test_bench_cross_verifies():
    rows = bench([1000], ("iterate", "double", "matrix"))
    assert len(rows) == 3
    value = fast_term(TRIBONACCI, 1000)
    assert {row.digits for row in rows} == {len(str(value))}


def test_bench_known_value_row():
    rows = bench([24], ("matrix",))
    assert rows[0].digits == len("755476")


def test_bench_argument_errors():
    with pytest.raises(ValueError):
        bench([], ("double",))
    with pytest.raises(ValueError):
        bench([10], ())
    with pytest.raises(ValueError):
        bench([10], ("warp",))

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    basis_decomposition,
    term,
    term_range,
)
from tribkit.sequences import square_and_shift

from table1 import K_TABLE, T_TABLE

seeds = st.builds(
    SeedVector,
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
)


def test_table1_reproduced_exactly():
    for r, expected in T_TABLE.items():
        assert term(TRIBONACCI, r) == expected
    for r, expected in K_TABLE.items():
        assert term(TRIBONACCI_LUCAS, r) == expected


def test_named_seeds_match_generalized():
    for n in range(-15, 30):
        assert term(SeedVector(0, 1, 1), n) == term(TRIBONACCI, n)
        assert term(SeedVector(3, 1, 3), n) == term(TRIBONACCI_LUCAS, n)


def test_zero_seed_is_zero_everywhere():
    zero = SeedVector(0, 0, 0)
    assert term_range(zero, -40, 40) == [0] * 81


def test_direct_iteration_example():
    assert term(SeedVector(1, 2, 3), 5) == 20


def test_term_range_matches_term():
    seed = SeedVector(2, -1, 5)
    assert term_range(seed, -10, 10) == [term(seed, n) for n in range(-10, 11)]


def test_term_range_singleton_and_order_error():
    assert term_range(TRIBONACCI, 7, 7) == [term(TRIBONACCI, 7)]
    with pytest.raises(ValueError):
        term_range(TRIBONACCI, 3, 2)


@given(seeds, st.integers(-30, 30))
def test_recurrence_holds_everywhere(seed, n):
    assert term(seed, n) == term(seed, n - 1) + term(seed, n - 2) + term(seed, n - 3)


@given(seeds, st.integers(-30, 30))
def test_three_term_recurrence(seed, n):
    assert term(seed, n) == 2 * term(seed, n - 1) - term(seed, n - 4)


@given(seeds, seeds, st.integers(-25, 25))
def test_linearity_in_seeds(u, v, n):
    assert term(u + v, n) == term(u, n) + term(v, n)


def test_basis_decomposition_small_examples():
    assert basis_decomposition(0) == (1, 0, 0)
    assert basis_decomposition(3) == (1, 1, 1)
    assert basis_decomposition(5) == (2, 3, 4)


def test_basis_decomposition_matches_unit_seeds():
    units = [SeedVector(1, 0, 0), SeedVector(0, 1, 0), SeedVector(0, 0, 1)]
    for n in [*range(-70, 71), -10**4, -1000, 1000, 10**4]:
        assert basis_decomposition(n) == tuple(term(u, n) for u in units)


@given(seeds, st.integers(-40, 40))
def test_basis_decomposition_reconstructs_terms(seed, n):
    a, b, c = basis_decomposition(n)
    assert term(seed, n) == seed.w0 * a + seed.w1 * b + seed.w2 * c


def _reduced_schoolbook_square(c0, c1, c2):
    d = [0] * 5
    for i, a in enumerate((c0, c1, c2)):
        for j, b in enumerate((c0, c1, c2)):
            d[i + j] += a * b
    # x^3 = x^2 + x + 1
    for k in (4, 3):
        d[k - 1] += d[k]
        d[k - 2] += d[k]
        d[k - 3] += d[k]
    return d[0], d[1], d[2]


coefficients = st.integers(-(10**40), 10**40)


@given(coefficients, coefficients, coefficients)
def test_kernel_step_is_the_reduced_square(c0, c1, c2):
    square = _reduced_schoolbook_square(c0, c1, c2)
    assert square_and_shift(c0, c1, c2, "0", True) == square
    s0, s1, s2 = square
    assert square_and_shift(c0, c1, c2, "1", True) == (s2, s0 + s2, s1 + s2)
    assert square_and_shift(c0, c1, c2, "1", False) == (s1 - s0, s2 - s0, s0)

import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    basis_decomposition,
    bench,
    fast_term,
    matrix_power_term,
    term,
    term_range,
)
import tribkit
from tribkit import fasteval, sequences
from tribkit.fasteval import digit_count, mul_count, reset_mul_count, term_bits
from tribkit.sequences import _SPLIT_BITS, _TOOM4_BITS

from reference import term_mod
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


@pytest.mark.parametrize("n", [2**17 + 1, -(2**17 + 1), 3 * 10**5, 10**6, -(10**6)])
def test_big_terms_match_companion_matrix_mod_p(n):
    # past the Toom-4 threshold: W(n) has about twice the bits of the
    # finish's operands, and matrix_power_term's kernel squares x^(n/2)
    p = 2**61 - 1
    for seed in (TRIBONACCI, TRIBONACCI_LUCAS, SPECS[4]):
        value = fast_term(seed, n)
        assert value.bit_length() > 2 * _TOOM4_BITS
        assert value % p == term_mod(seed, n, p)
        assert matrix_power_term(seed, n) % p == term_mod(seed, n, p)


def test_matches_matrix_power_on_random_indices():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(-100000, 100000)
        assert fast_term(TRIBONACCI, n) == matrix_power_term(TRIBONACCI, n)


def test_multiplication_count_is_logarithmic():
    # 5 squares per bit of 2**(k-1), k bits, then 3 squares in the finish
    counts = {}
    for k in range(10, 21):
        reset_mul_count()
        fast_term(TRIBONACCI, 2**k)
        counts[k] = mul_count()
        assert counts[k] == 5 * k + 3
    diffs = {counts[k + 1] - counts[k] for k in range(10, 20)}
    assert diffs == {5}


def test_basis_decomposition_is_not_counted():
    reset_mul_count()
    basis_decomposition(2**20)
    matrix_power_term(TRIBONACCI, 2**10)
    assert mul_count() == 0


big_seeds = st.builds(
    SeedVector,
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
)


@given(big_seeds, st.integers(-3000, 3000))
def test_fast_term_matches_iteration_on_random_seeds(seed, n):
    assert fast_term(seed, n) == term(seed, n)


# (-2, 2, -2) at even n and (-2, -2, 2) at odd n leave a Schur complement
# with a zero diagonal, so the finish takes the 2x2 pivot
@pytest.mark.parametrize("seed", [SeedVector(-2, 2, -2), SeedVector(-2, -2, 2)])
def test_two_by_two_pivot_seeds(seed):
    for n in (*range(-40, 41), 1000, 1001, -1000, -1001):
        assert fast_term(seed, n) == term(seed, n)


def test_zero_seed_and_negative_indices():
    zero = SeedVector(0, 0, 0)
    reset_mul_count()
    assert [fast_term(zero, n) for n in (-10**5, -1, 0, 1, 10**5)] == [0] * 5
    assert mul_count() == 0
    for seed in (TRIBONACCI, TRIBONACCI_LUCAS, SeedVector(5, -3, 2)):
        for n in (-1, -2, -3, -4, -999, -1000, -2**12):
            assert fast_term(seed, n) == term(seed, n)


# at 70,001, -140,001 and -(10^5 + 1) only the finish's squares pass the split
@pytest.mark.parametrize("n", [70_001, -140_001, 10**5 + 1, -(10**5 + 1), 10**6, -(10**6)])
def test_worker_changes_no_value_or_count(monkeypatch, n):
    seed = SeedVector(10**30 - 7, -(10**30) + 3, 10**30 + 11)
    results = {}
    for mode in ("local", "worker"):
        monkeypatch.setattr(sequences, "_can_fork", lambda: mode == "worker")
        sequences._discard_worker()
        reset_mul_count()
        results[mode] = (fast_term(TRIBONACCI, n), fast_term(seed, n), mul_count())
        assert (sequences._worker is not None) == (mode == "worker")
        results[mode] += basis_decomposition(n)
    sequences._discard_worker()
    assert results["worker"] == results["local"]


def test_each_batch_past_the_split_sends_one_request(monkeypatch):
    monkeypatch.setattr(sequences, "_can_fork", lambda: True)
    batches, requests, workers = [], [], set()

    def recorded(squares):
        def batch(xs):
            bits = [x.bit_length() for x in xs]
            batches.append((len(xs), bits[0], max(bits), bits[-1]))
            return squares(xs)

        return batch

    monkeypatch.setattr(sequences, "_squares", recorded(sequences._squares))
    monkeypatch.setattr(fasteval, "_squares", recorded(fasteval._squares))
    # this process pickles exactly one frame per request: the worker's groups
    # of operands, each answered by a reply frame of its own
    here, dump = os.getpid(), pickle.dump

    def recorded_dump(obj, *args):
        if os.getpid() == here:  # not the worker's replies
            requests.append(tuple(map(len, obj)))
        return dump(obj, *args)

    monkeypatch.setattr(pickle, "dump", recorded_dump)
    for n in (10**6, -(10**6), 10**5 + 1, 70_001, 40_001):
        batches.clear()
        requests.clear()
        fast_term(TRIBONACCI, n)
        workers.add(sequences._worker[0])
        # five squares per bit of |n // 2|, then the finish's three
        assert [k for k, _, _, _ in batches] == [5] * abs(n // 2).bit_length() + [3]
        # the first operand alone decides, and it is near enough the largest
        # that deciding by the largest would split the same batches; the
        # worker gets the last k // 2 operands, and first three Toom-4 points
        # of an odd batch's last operand once that is past _TOOM4_BITS
        assert requests == [
            (3, k // 2) if k % 2 and last > _TOOM4_BITS else (k // 2,)
            for k, first, _, last in batches
            if first > _SPLIT_BITS
        ]
        assert [first > _SPLIT_BITS for _, first, _, _ in batches] == [
            top > _SPLIT_BITS for _, _, top, _ in batches
        ]
        assert bool(requests) == (n != 40_001)
        if abs(n) == 10**6:  # the kernel's last steps and the finish share points
            assert requests[-2:] == [(3, 2), (3, 1)]
    big, small, toom = 1 << _SPLIT_BITS, 3, 1 << _TOOM4_BITS
    requests.clear()
    assert sequences._squares((small, big)) == [small * small, big * big]
    assert requests == []
    assert sequences._squares((big, small)) == [big * big, small * small]
    assert requests == [(1,)]
    # a lone operand past the split leaves the worker nothing until it is
    # past _TOOM4_BITS, and then three of its seven points
    requests.clear()
    assert sequences._squares((big,)) == [big * big]
    assert sequences._squares((toom - 1,)) == [(toom - 1) ** 2]
    assert requests == []
    assert sequences._squares((toom,)) == [toom * toom]
    assert sequences._squares((toom, small, -toom)) == [toom * toom, small * small, toom * toom]
    assert requests == [(3, 0), (3, 1)]
    workers.add(sequences._worker[0])
    assert len(workers) == 1  # no reply failed and cost the worker
    sequences._discard_worker()


def _traced_peak(fn):
    fn()  # warm: the first call allocates what later calls reuse
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# traced peaks in bytes when _square evaluated and interpolated Toom-4 inline
# and the worker took whole operands only (Python 3.10-3.13): a 440,000-bit
# square 425,804, fast_term(T, 10^6) 953,468 here and 938,180 with a worker
@pytest.mark.parametrize("mode, fast_term_peak", [("local", 953_468), ("worker", 938_180)])
def test_traced_peaks_of_big_squares_stay_bounded(monkeypatch, mode, fast_term_peak):
    # each point is dropped once squared and each square once interpolated,
    # and the worker's three points leave this process before any is squared
    monkeypatch.setattr(sequences, "_can_fork", lambda: mode == "worker")
    sequences._discard_worker()
    x = random.Random(1).getrandbits(440_000) | 1 << 439_999
    assert _traced_peak(lambda: sequences._square(x)) <= 1.1 * 425_804
    assert _traced_peak(lambda: fast_term(TRIBONACCI, 10**6)) <= 1.1 * fast_term_peak
    assert (sequences._worker is not None) == (mode == "worker")
    sequences._discard_worker()


def test_worker_is_reaped_when_the_process_exits():
    script = (
        "from tribkit import TRIBONACCI, fast_term, sequences\n"
        "sequences._can_fork = lambda: True\n"
        "fast_term(TRIBONACCI, 10**6)\n"
        "print(sequences._worker[0])\n"
    )
    src = Path(tribkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    with pytest.raises(ProcessLookupError):
        os.kill(int(out), 0)


@pytest.mark.parametrize("seed", SPECS[:3] + [SeedVector(10**6, -(10**6), 7), SeedVector(-1, 0, 0)])
def test_term_bits_bounds_the_bit_lengths(seed):
    ns = [*range(-70, 71), 999, -999, 2**12, -(2**12), 10**5, -(10**5), 10**6 + 1, -(10**6 + 1)]
    for n in ns:
        bits = abs(fast_term(seed, n)).bit_length()
        assert bits <= term_bits(seed, n, n) <= bits + 0.0011 * abs(n) + 50
    lo, hi = -300, 300
    exact = sum(abs(term(seed, n)).bit_length() for n in range(lo, hi + 1))
    assert exact <= term_bits(seed, lo, hi) <= sum(term_bits(seed, n, n) for n in range(lo, hi + 1))
    assert term_bits(seed, 5, 4) == 0
    # every term counts, zeros too: each prints at least one digit
    assert term_bits(SeedVector(0, 0, 0), -(10**8), 10**8) > 2 * 10**8


@given(st.lists(st.integers(-3000, 3000), min_size=1, max_size=4))
def test_bench_bits_bound_the_values_and_the_terms_iterate_passes(ns):
    # sequences.term(T, n) passes W(0..n+2) for n >= 0 and W(n..2) for n < 0
    values, steps = fasteval.bench_bits(ns)
    assert sum(abs(term(TRIBONACCI, n)).bit_length() for n in ns) <= values
    passed = [term_range(TRIBONACCI, min(n, 0), max(n, 0) + 2) for n in ns]
    assert sum(v.bit_length() for terms in passed for v in terms) <= steps


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
    with pytest.raises(ValueError, match="repeated"):
        bench([10], ("iterate", "iterate"))

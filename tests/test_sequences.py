import os
import pickle
import random
import signal
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribkit import (
    TRIBONACCI,
    TRIBONACCI_LUCAS,
    SeedVector,
    basis_decomposition,
    term,
    term_range,
)
from tribkit import sequences
from tribkit.sequences import _SPLIT_BITS, _TOOM4_BITS, _square, _squares, square_and_shift

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
    # first windows past the kernel's small-index table, on both sides
    for w in (seed, TRIBONACCI, SeedVector(-917, 44, 3051), SeedVector(0, 0, 0)):
        for lo in (63, 64, 70, 1000, 10**4, -63, -64, -70, -1000, -(10**4)):
            assert term_range(w, lo, lo + 4) == [term(w, n) for n in range(lo, lo + 5)]


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
    total = SeedVector(u.w0 + v.w0, u.w1 + v.w1, u.w2 + v.w2)
    assert term(total, n) == term(u, n) + term(v, n)


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


@st.composite
def toom_operands(draw):
    """Signed operands from just below the Toom-4 threshold to past 16 times
    it, where the largest evaluations recurse three levels deep."""
    n = draw(st.integers(_TOOM4_BITS - 64, 17 * _TOOM4_BITS))
    shape = draw(st.sampled_from(["random", "power_of_two", "all_ones", "short_top_limb"]))
    if shape == "power_of_two":
        x = 1 << (n - 1)
    elif shape == "all_ones":
        x = (1 << n) - 1
    else:
        if shape == "short_top_limb":
            n += 1 - n % 4  # n = 4k - 3: the top limb has k - 3 bits
        x = draw(st.randoms(use_true_random=False)).getrandbits(n) | 1 << (n - 1)
    return -x if draw(st.booleans()) else x


@settings(max_examples=40, deadline=None)
@given(toom_operands())
@example(0)
@example(-1)
@example((1 << _TOOM4_BITS) - 1)
@example(1 << _TOOM4_BITS)
def test_toom4_square_matches_product(x):
    assert _square(x) == x * x


@pytest.fixture(params=["worker", "local"])
def worker_mode(request, monkeypatch):
    """A batch past the split goes to a worker (forked even on one CPU), or
    is squared here; each test starts and ends without a worker."""
    monkeypatch.setattr(sequences, "_can_fork", lambda: request.param == "worker")
    sequences._discard_worker()
    yield request.param
    sequences._discard_worker()


def _operands(rng, count, bits):
    """``count`` signed operands, the first and largest with exactly ``bits``
    bits, as ``_squares``' callers order them."""
    xs = [rng.getrandbits(bits - 1) | 1 << (bits - 1)]
    xs += [rng.getrandbits(rng.randint(1, bits)) for _ in range(count - 1)]
    return tuple(-x if rng.random() < 0.5 else x for x in xs)


@pytest.mark.parametrize("bits", [_SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1, 40 * _SPLIT_BITS])
def test_squares_batch_matches_products(worker_mode, bits):
    rng = random.Random(bits)
    for count in (1, 2, 3, 5):
        xs = _operands(rng, count, bits)
        assert _squares(xs) == [x * x for x in xs]
    assert _squares((0, -(1 << bits - 1), -1)) == [0, 1 << 2 * bits - 2, 1]
    # the worker exists exactly when a batch passed the split with it on
    split = worker_mode == "worker" and bits > _SPLIT_BITS
    assert (sequences._worker is not None) == split


def test_exception_between_request_and_reply_discards_the_worker(worker_mode, monkeypatch):
    rng = random.Random(5)
    first, second = _operands(rng, 5, _SPLIT_BITS + 1000), _operands(rng, 5, _SPLIT_BITS + 1000)
    _squares(first)
    pid = sequences._worker and sequences._worker[0]
    raised = []

    def square_failing_once(x):
        if not raised:
            raised.append(x)
            raise KeyboardInterrupt
        return _square(x)

    monkeypatch.setattr(sequences, "_square", square_failing_once)
    with pytest.raises(KeyboardInterrupt):
        _squares(first)
    if pid:  # the worker that may hold the unread reply is gone
        assert sequences._worker is None
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert _squares(second) == [x * x for x in second]


def test_dead_worker_is_replaced_by_local_squares(worker_mode):
    xs = _operands(random.Random(6), 5, _SPLIT_BITS + 1)
    _squares(xs)
    if worker_mode == "worker":
        os.kill(sequences._worker[0], signal.SIGKILL)
    assert _squares(xs) == [x * x for x in xs]
    assert _squares(xs) == [x * x for x in xs]


def test_reply_cut_off_mid_frame_is_squared_here(monkeypatch):
    def fork_half_replying_worker():
        """A worker that answers its first request with half a frame and exits."""
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                with open(request_r, "rb") as requests, open(reply_w, "wb") as replies:
                    frame = pickle.dumps([x * x for x in pickle.load(requests)], pickle.HIGHEST_PROTOCOL)
                    replies.write(frame[: len(frame) // 2])
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        return pid, open(request_w, "wb"), open(reply_r, "rb")

    monkeypatch.setattr(sequences, "_can_fork", lambda: True)
    monkeypatch.setattr(sequences, "_fork_worker", fork_half_replying_worker)
    sequences._discard_worker()
    xs = _operands(random.Random(8), 5, _SPLIT_BITS + 1)
    assert _squares(xs) == [x * x for x in xs]
    assert sequences._worker is None


def test_threads_share_the_worker_without_mixing_replies(monkeypatch):
    monkeypatch.setattr(sequences, "_can_fork", lambda: True)
    rng = random.Random(7)
    batches = [_operands(rng, 5, _SPLIT_BITS + 1 + 97 * i) for i in range(6)]
    _squares(batches[0])  # fork the worker while this is the only thread
    wrong = []

    def square_all():
        for _ in range(10):
            for xs in batches:
                if _squares(xs) != [x * x for x in xs]:
                    wrong.append(xs)

    threads = [threading.Thread(target=square_all) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert sequences._worker is not None
    sequences._discard_worker()

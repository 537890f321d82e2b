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


def _full(rng, bits):
    return rng.getrandbits(bits - 1) | 1 << (bits - 1)


def _operands(rng, count, bits, last=None):
    """``count`` signed operands, the first and largest with exactly ``bits``
    bits, as ``_squares``' callers order them; ``last``, if given, replaces
    the last one."""
    xs = [_full(rng, bits)]
    xs += [rng.getrandbits(rng.randint(1, bits)) for _ in range(count - 1)]
    xs = tuple(-x if rng.random() < 0.5 else x for x in xs)
    return xs if last is None else xs[:-1] + (last,)


def _toom_batch(rng, count):
    """An odd batch past the split whose last operand is past _TOOM4_BITS:
    three of that operand's seven Toom-4 points go to the worker."""
    bits = _TOOM4_BITS + 1000
    return _operands(rng, count, bits, -_full(rng, bits))


# the last operand of an odd batch: either side of _TOOM4_BITS, and the
# shapes toom_operands draws, one of them across a second Toom-4 level
_LAST_OPERANDS = {
    "toom4_bits-1": lambda rng: _full(rng, _TOOM4_BITS - 1),
    "toom4_bits": lambda rng: _full(rng, _TOOM4_BITS),
    "toom4_bits+1": lambda rng: _full(rng, _TOOM4_BITS + 1),
    "short_top_limb": lambda rng: _full(rng, 4 * 40_000 - 3),
    "zero_limbs": lambda rng: 1 << (4 * 7_000 - 1) | 1,
    "power_of_two": lambda rng: 1 << (4 * 7_000 - 1),
    "negative": lambda rng: -_full(rng, 3 * _TOOM4_BITS),
}


@pytest.mark.parametrize("count", [1, 3, 5])
@pytest.mark.parametrize("shape", sorted(_LAST_OPERANDS))
def test_odd_batch_shares_its_last_operands_points(worker_mode, count, shape):
    rng = random.Random(f"{shape}{count}")
    last = _LAST_OPERANDS[shape](rng)
    xs = _operands(rng, count, max(_TOOM4_BITS + 1, abs(last).bit_length()), last)
    assert _squares(xs) == [x * x for x in xs]
    # a lone operand that Toom-4 does not split leaves the worker nothing
    idle = count == 1 and abs(last).bit_length() <= _TOOM4_BITS
    assert (sequences._worker is not None) == (worker_mode == "worker" and not idle)


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


def _failure_batches(rng):
    """Each failure test runs on a batch of whole operands and on one whose
    last operand's Toom-4 points are shared."""
    return _operands(rng, 5, _SPLIT_BITS + 1000), _toom_batch(rng, 5)


def test_exception_between_request_and_reply_discards_the_worker(worker_mode, monkeypatch):
    rng = random.Random(5)
    whole, points = _failure_batches(rng)
    # the exception comes at the first square here, or in a batch that shares
    # its last operand's points: at the first point this process squares,
    # once the worker's point squares are read (and its operands' are not),
    # or at the first operand this process squares after the join
    cases = [("square", whole), ("point", points), ("operand", points)]
    if worker_mode == "worker":
        cases.append(("reply", points))
    load = pickle.load
    for at, batch in cases:
        _squares(batch)
        pid = sequences._worker and sequences._worker[0]
        failing = {"point": sequences._toom4_points(batch[-1])[1][0], "operand": batch[0]}.get(at)
        raised = []

        def square_failing_once(x):
            if not raised and (failing is None or x == failing):
                raised.append(x)
                raise KeyboardInterrupt
            return _square(x)

        def load_failing_once(file):
            reply = load(file)
            if not raised:
                raised.append(reply)
                raise KeyboardInterrupt
            return reply

        with monkeypatch.context() as patch:
            if at == "reply":
                patch.setattr(pickle, "load", load_failing_once)
            else:
                patch.setattr(sequences, "_square", square_failing_once)
            with pytest.raises(KeyboardInterrupt):
                _squares(batch)
        if pid:  # the worker that may hold the unread reply is gone
            assert sequences._worker is None
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # a stale reply to the failed batch would give wrong squares here
        second = tuple(x + 1 for x in batch)
        assert _squares(second) == [x * x for x in second]


def test_workers_point_squares_are_read_before_the_operands_here(monkeypatch):
    # a reply left unread while this process squares whole operands could
    # fill the pipe (80 KB of point squares at 440,000 bits) and stall the worker
    monkeypatch.setattr(sequences, "_can_fork", lambda: True)
    sequences._discard_worker()
    xs = _toom_batch(random.Random(9), 5)
    _squares(xs)  # fork the worker before the patches
    events = []
    load, square = pickle.load, sequences._square
    monkeypatch.setattr(pickle, "load", lambda file: events.append("reply") or load(file))
    monkeypatch.setattr(
        sequences, "_square", lambda x: events.append(xs.index(x) if x in xs else "point") or square(x)
    )
    assert _squares(xs) == [x * x for x in xs]
    assert events[:6] == ["point"] * 4 + ["reply", 0]
    assert events.count("reply") == 2
    sequences._discard_worker()


def test_dead_worker_is_replaced_by_local_squares(worker_mode):
    for xs in _failure_batches(random.Random(6)):
        _squares(xs)
        if worker_mode == "worker":
            os.kill(sequences._worker[0], signal.SIGKILL)
        assert _squares(xs) == [x * x for x in xs]
        assert _squares(xs) == [x * x for x in xs]


def test_reply_cut_off_mid_frame_is_squared_here(monkeypatch):
    def fork_half_replying_worker():
        """A worker that answers its first request's last group of operands
        with half a frame and exits: the only reply of a batch of whole
        operands, the second one of a batch that shares Toom-4 points."""
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                with open(request_r, "rb") as requests, open(reply_w, "wb") as replies:
                    *answered, cut = pickle.load(requests)
                    for operands in answered:
                        pickle.dump([x * x for x in operands], replies, pickle.HIGHEST_PROTOCOL)
                    frame = pickle.dumps([x * x for x in cut], pickle.HIGHEST_PROTOCOL)
                    replies.write(frame[: len(frame) // 2])
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        return pid, open(request_w, "wb"), open(reply_r, "rb")

    monkeypatch.setattr(sequences, "_can_fork", lambda: True)
    monkeypatch.setattr(sequences, "_fork_worker", fork_half_replying_worker)
    for xs in _failure_batches(random.Random(8)):
        sequences._discard_worker()
        assert _squares(xs) == [x * x for x in xs]
        assert sequences._worker is None


def test_threads_share_the_worker_without_mixing_replies(monkeypatch):
    monkeypatch.setattr(sequences, "_can_fork", lambda: True)
    rng = random.Random(7)
    batches = [_operands(rng, 5, _SPLIT_BITS + 1 + 97 * i) for i in range(6)]
    batches += [_toom_batch(rng, count) for count in (1, 3, 5)]
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

"""Exact evaluation of generalized Tribonacci sequences at any integer index.

A sequence is determined by its seed window (w0, w1, w2) and the order-3
recurrence W(n) = W(n-1) + W(n-2) + W(n-3), extended to negative indices by
the inverted recurrence W(n) = W(n+3) - W(n+2) - W(n+1).  All arithmetic is
exact Python integer arithmetic; no rounding occurs anywhere.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import NamedTuple


class SeedVector(NamedTuple):
    """Seed window (W0, W1, W2) of a generalized Tribonacci sequence.

    The all-zero seed is permitted; the certifier's seed grids need it.
    """

    w0: int
    w1: int
    w2: int


#: The Tribonacci sequence T: 0, 1, 1, 2, 4, 7, 13, ...
TRIBONACCI = SeedVector(0, 1, 1)

#: The Tribonacci-Lucas sequence K: 3, 1, 3, 7, 11, 21, ...
TRIBONACCI_LUCAS = SeedVector(3, 1, 3)

#: The named sequences the DSL and the CLI refer to by symbol.
NAMED = {"T": TRIBONACCI, "K": TRIBONACCI_LUCAS}


def term(seed: SeedVector, n: int) -> int:
    """Return W(n) for the sequence with the given seed window.

    Forward recurrence for n >= 3, backward recurrence for n < 0.
    Total over all integer n.
    """
    a, b, c = seed
    if n >= 0:
        for _ in range(n):
            a, b, c = b, c, a + b + c
        return a
    for _ in range(-n):
        a, b, c = c - b - a, a, b
    return a


def term_range(seed: SeedVector, lo: int, hi: int) -> list[int]:
    """Return [W(lo), ..., W(hi)].

    The first window jumps to lo through the x^n mod f kernel: with
    c = ``basis_decomposition(lo)``, W(lo+j) = sum_i c_i W(i+j) since
    x^(lo+j) = x^lo * x^j, and W(0..4) come from the seed by additions.
    The recurrence gives the rest, so the cost is O(log |lo| + hi - lo)
    operations; ``term`` stays the linear-time reference.

    Raises ValueError if lo > hi.
    """
    if lo > hi:
        raise ValueError(f"term_range: lo ({lo}) must not exceed hi ({hi})")
    w0, w1, w2 = seed
    w3 = w0 + w1 + w2
    w4 = w1 + w2 + w3
    c0, c1, c2 = basis_decomposition(lo)
    a = c0 * w0 + c1 * w1 + c2 * w2
    b = c0 * w1 + c1 * w2 + c2 * w3
    c = c0 * w2 + c1 * w3 + c2 * w4
    out = []
    for _ in range(hi - lo + 1):
        out.append(a)
        a, b, c = b, c, a + b + c
    return out


def basis_decomposition(n: int) -> tuple[int, int, int]:
    """Coordinates (c0, c1, c2) with W(n) = w0*c0 + w1*c1 + w2*c2 for every seed.

    They are the coefficients of x^n mod x^3 - x^2 - x - 1: the shift
    operator satisfies the characteristic polynomial on every sequence
    (Cayley-Hamilton; Fiduccia 1985).  Square-and-shift over the bits of
    |n|, O(log |n|) steps; negative n shifts by x^-1 = x^2 - x - 1.

    Each step costs five squares (``square_and_shift``).  |n| < 64, the
    indices certify and derive ask for over and over, read a table that the
    same loop fills at import.
    """
    if -64 < n < 64:
        return _SMALL_POWERS[n]
    return square_and_shift(1, 0, 0, bin(abs(n))[2:], n > 0)


def square_and_shift(c0: int, c1: int, c2: int, bits: str, forward: bool) -> tuple[int, int, int]:
    """For each bit of ``bits``: square c0 + c1*x + c2*x^2 modulo
    x^3 - x^2 - x - 1, then on a "1" multiply by x (``forward``) or x^-1.

    Squaring takes five big-integer squares: Toom-3 at the points 0, 1,
    -1, -2 and infinity (Chung & Hasan, "Asymmetric squaring formulae",
    ARITH 2007).  Interpolation needs only exact halvings and one exact
    division by 3; the square's coefficients d0..d4 reduce by
    x^3 = x^2 + x + 1 and x^4 = 2x^2 + 2x + 1.  One loop over the bits.

    The five squares go through ``_squares``, one batch per bit, and each
    through ``_square``, which picks ``x * x`` or Toom-4 by the operand's
    size.  Either way a bit costs five squares of the algorithm, the count
    ``fasteval.mul_count`` keeps.
    """
    for bit in bits:
        p = c0 + c2
        q = p - c1
        p += c1
        r = q + 3 * c2 - c1  # c0 - 2c1 + 4c2
        # v0 = d0, v4 = d4, p = d0 + d1 + d2 + d3 + d4,
        # q = d0 - d1 + d2 - d3 + d4, r = d0 - 2d1 + 4d2 - 8d3 + 16d4
        v0, v4, p, q, r = _squares((c0, c2, p, q, r))
        t = ((q - v0 - (r - p) // 3) >> 1) + 3 * v4  # d3 + d4
        # c0 = d0 + d3 + d4, c1 = d1 + d3 + 2d4, c2 = d2 + d3 + 2d4
        c0, c1, c2 = v0 + t, ((p - q) >> 1) + 2 * v4, ((p + q) >> 1) - v0 + t
        if bit == "1":
            if forward:  # times x
                c0, c1, c2 = c2, c0 + c2, c1 + c2
            else:  # times x^-1
                c0, c1, c2 = c1 - c0, c2 - c0, c0
    return c0, c1, c2


#: Operand size in bits above which ``_square`` splits into Toom-4 limbs
#: and ``_squares`` shares a batch with its worker.  One Toom-4 level over
#: CPython's Karatsuba squaring broke even at about 24,000 bits and won
#: 2-4 % from 26,000 bits (2 vCPUs, Python 3.11.7).
_TOOM4_BITS = 26_000


def _square(x: int) -> int:
    """x * x, by Toom-4 squaring once |x| has more than ``_TOOM4_BITS`` bits.

    |x| = a0 + a1*B + a2*B^2 + a3*B^3 with B = 2^k and limbs a_i >= 0, so
    x^2 = sum d_j B^j (j = 0..6) with every d_j >= 0.  With A(t) the limb
    polynomial, the seven squares are A(0)^2 = d0, A(inf)^2 = d6 and A(t)^2
    at t = 1, -1, 2, -2, 3, each by a recursive call (Bodrato & Zanoni,
    "Integer and polynomial multiplication: towards optimal Toom-Cook
    matrices", ISSAC 2007).  ``_toom4_points`` evaluates and
    ``_toom4_join`` interpolates, here and in ``_squares``, whose worker
    squares three of a batch's last operand's points.

    Each point or square is about |x| / 4 or |x| / 2 bits, so each point is
    dropped as soon as it is squared and each square as soon as the join
    has used it.  The traced peak of a 440,000-bit square is 396,660
    bytes, against 425,804 when evaluation, squares and interpolation were
    interleaved in one loop (Python 3.11.7).
    """
    if x.bit_length() <= _TOOM4_BITS:
        return x * x
    k, points = _toom4_points(x)
    return _toom4_join(k, (_square(points.pop(0)) for _ in range(7)))


def _toom4_points(x: int) -> tuple[int, list[int]]:
    """The limb size k of |x| and its seven Toom-4 evaluation points, in the
    order ``_toom4_join`` takes their squares: A(0), A(inf), A(1), A(-1),
    A(2), A(-2), A(3)."""
    k = (x.bit_length() + 3) >> 2
    mask = (1 << k) - 1
    x = abs(x)
    a0, a1, a2, a3 = x & mask, (x >> k) & mask, (x >> 2 * k) & mask, x >> 3 * k
    s, t = a0 + a2, a1 + a3
    u, w = a0 + 4 * a2, 2 * a1 + 8 * a3
    return k, [a0, a3, s + t, s - t, u + w, u - w, a0 + 3 * a1 + 9 * a2 + 27 * a3]


def _toom4_join(k: int, squares) -> int:
    """x^2 from the squares of ``_toom4_points(x)``, which the iterator
    ``squares`` yields in that order; it is drawn only as each is needed:

        e1 = (v1 + v-1)/2 - d0 - d6                 = d2 + d4
        o1 = (v1 - v-1)/2                           = d1 + d3 + d5
        d4 = ((v2 + v-2)/2 - d0 - 64 d6 - 4 e1)/12
        o2 = (v2 - v-2)/4                           = d1 + 4 d3 + 16 d5
        o3 = (v3 - d0 - 9 d2 - 81 d4 - 729 d6)/3    = d1 + 9 d3 + 81 d5
        d5 = ((o3 - o2)/5 - (o2 - o1)/3)/8,  d3 = (o2 - o1)/3 - 5 d5,
        d2 = e1 - d4,  d1 = o1 - d3 - d5

    Each numerator equals its divisor times a sum of d_j with nonnegative
    coefficients, so it is a nonnegative multiple of the divisor: every
    shift and every floor division is exact.
    """
    d0, d6 = next(squares), next(squares)
    v1, vm1 = next(squares), next(squares)
    e1, o1 = ((v1 + vm1) >> 1) - d0 - d6, (v1 - vm1) >> 1
    del v1, vm1
    v2, vm2 = next(squares), next(squares)
    d4 = (((v2 + vm2) >> 1) - d0 - 64 * d6 - 4 * e1) // 12
    o2 = (v2 - vm2) >> 2
    del v2, vm2
    d2 = e1 - d4
    o3 = (next(squares) - d0 - 9 * d2 - 81 * d4 - 729 * d6) // 3
    p = (o2 - o1) // 3
    d5 = ((o3 - o2) // 5 - p) >> 3
    d3 = p - 5 * d5
    d1 = o1 - d3 - d5
    del e1, o1, o2, o3, p
    low = [d0, d1, d2, d3, d4, d5]
    del d0, d1, d2, d3, d4, d5
    out = d6
    while low:
        out = (out << k) + low.pop()
    return out


#: (pid, request writer, reply reader) of the squaring worker, or None.
_worker = None
_worker_lock = threading.Lock()


def _squares(xs: tuple[int, ...]) -> list[int]:
    """[_square(x) for x in xs], for independent operands, on two CPUs when
    they are big.

    One size test per batch: both callers put an operand within a few bits
    of their largest first, so only xs[0] is measured.  Once it has more
    than ``_TOOM4_BITS`` bits and a worker is usable (``_can_fork``), one
    long-lived forked child shares the batch, in one shape.  With half =
    len(xs) // 2, the worker squares the three Toom-4 points of the last
    operand that ``_toom4_join`` draws last (``_toom4_points``) and answers
    them, then squares xs[half:-1] and answers those.  This process squares
    the other four points, reads the worker's three as the join draws
    them, joins, then squares xs[:half], so each CPU squares about half of
    fast_term's batches of three and five.  The values are the same either
    way, for any batch: xs[:half], xs[half:-1] and the last operand are the
    whole of it, and a small or zero last operand still has seven points.
    The join comes before this process's operands so that the worker's
    first answer is read as soon as it is due: at 440,000 bits its three
    squares are about 80 KB, more than a Linux pipe holds, and a worker
    that answered while this process still squared its operands would
    stall until they were read.

    The worker is forked on first use and reads ``pickle`` frames from one
    pipe and answers on another: one request frame per batch, holding the
    points and the operands, and one reply frame per group.  A thread that
    finds the worker busy squares its batch itself.  Any exception between
    the request and the last reply discards the worker, so no later batch
    can read a stale reply; a broken pipe, a dead worker or a reply cut off
    mid-frame is answered by squaring the batch here, anything else is
    raised.
    """
    global _worker
    if xs[0].bit_length() > _TOOM4_BITS and _worker_lock.acquire(False):
        try:
            import pickle  # only here: importing it costs 2-3 ms

            if _worker is None and _can_fork():
                _worker = _fork_worker()
            if _worker is not None:
                _, requests, replies = _worker
                half = len(xs) // 2
                k, points = _toom4_points(xs[-1])
                theirs = (points[4:], xs[half:-1])
                del points[4:]
                try:
                    pickle.dump(theirs, requests, pickle.HIGHEST_PROTOCOL)
                    requests.flush()
                    del theirs

                    def point_squares():
                        # four points squared here, then the worker's three
                        for _ in range(4):
                            yield _square(points.pop(0))
                        answered = pickle.load(replies)
                        while answered:
                            yield answered.pop(0)

                    # the join before this process's operands: the worker's
                    # first reply is read as soon as it is due, not left to
                    # fill the pipe and stall the worker
                    last = _toom4_join(k, point_squares())
                    return [_square(x) for x in xs[:half]] + pickle.load(replies) + [last]
                except (EOFError, OSError, pickle.UnpicklingError):
                    # the worker died, its pipe broke or its reply was cut off
                    _discard_worker()
                except BaseException:
                    _discard_worker()
                    raise
        finally:
            _worker_lock.release()
    return [_square(x) for x in xs]


def _can_fork() -> bool:
    """A worker can help and be forked safely: this process may run on two
    CPUs and has no second thread that a fork would leave behind."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        hasattr(os, "fork")
        and affinity is not None
        and len(affinity(0)) >= 2
        and threading.active_count() == 1
    )


def _fork_worker():
    """Fork the squaring worker: (pid, request writer, reply reader), or None
    if the pipes or the fork cannot be had."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    request_r, request_w, reply_r, reply_w = fds
    if pid == 0:  # the worker: never returns into the caller's code
        try:
            import pickle

            os.close(request_w)
            os.close(reply_r)
            with open(request_r, "rb") as requests, open(reply_w, "wb") as replies:
                while True:  # until EOF: the parent closed its end or died
                    for operands in pickle.load(requests):  # one reply each
                        pickle.dump([_square(x) for x in operands], replies, pickle.HIGHEST_PROTOCOL)
                        replies.flush()
        finally:
            os._exit(0)
    os.close(request_r)
    os.close(reply_w)
    return pid, open(request_w, "wb"), open(reply_r, "rb")


def _discard_worker() -> None:
    """Kill the worker, close its pipes and reap it."""
    global _worker
    worker, _worker = _worker, None
    if worker is None:
        return
    import signal  # only here: importing it costs about 1 ms

    pid, requests, replies = worker
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    for f in (requests, replies):
        try:
            f.close()
        except OSError:  # unsent bytes of a broken request
            pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped elsewhere
        pass


def _forget_worker() -> None:
    """In a forked child: drop the parent's worker without touching it, and
    close this copy of its pipes so that it still sees EOF when the parent
    exits."""
    global _worker, _worker_lock
    worker, _worker = _worker, None
    _worker_lock = threading.Lock()
    if worker is not None:
        for f in worker[1:]:
            try:
                f.close()
            except OSError:
                pass


atexit.register(_discard_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


_SMALL_POWERS = {n: square_and_shift(1, 0, 0, bin(abs(n))[2:], n > 0) for n in range(-63, 64)}

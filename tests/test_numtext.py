import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribkit
from tribkit.numtext import format_int, parse_int

from reference import interpreter_state, str_unlimited

LIMIT_BITS = 300_000
#: Bit sizes at the edges: the str/Decimal switch at 14,000 bits, the leaf
#: size 4096 and the ladder rungs 4096 * 2^j below 2^300000.
EDGE_BITS = sorted(
    {13_999, 14_000, 14_001, LIMIT_BITS - 1}
    | {(4096 << j) + d for j in range(7) for d in (-1, 0, 1)}
)
#: Digit counts of 10^d next to each of those: d = ceil(k * log10(2)).
EDGE_DIGITS = sorted({k * 30103 // 100000 + 1 for k in EDGE_BITS})


def _edges() -> list[tuple[int, str]]:
    """±2^k ± 1 and ±(10^d ± 1), each with its decimal text.  2^k ends in
    2, 4, 6 or 8, so 2^k ± 1 only changes the last digit of ``str(2^k)``.
    """
    pairs = []
    for k in EDGE_BITS:
        text = str_unlimited(2**k)
        pairs += [(2**k + d, text[:-1] + str(int(text[-1]) + d)) for d in (-1, 0, 1)]
    for d in EDGE_DIGITS:
        pairs += [(10**d - 1, "9" * d), (10**d, "1" + "0" * d), (10**d + 1, "1" + "0" * (d - 1) + "1")]
    return pairs + [(-v, "-" + text) for v, text in pairs]


EDGES = _edges()


def test_edges_match_str():
    state = interpreter_state()
    for v, text in EDGES:
        assert format_int(v) == text
    assert interpreter_state() == state


@st.composite
def _ints(draw):
    """|v| < 2^300000: an edge value, or a random one of log-uniform size."""
    if draw(st.booleans()):
        return draw(st.sampled_from(EDGES))[0]
    top = draw(st.integers(0, LIMIT_BITS.bit_length() - 1))
    bits = min(draw(st.integers(2**top, 2 ** (top + 1) - 1)), LIMIT_BITS - 1)
    v = draw(st.randoms(use_true_random=False)).getrandbits(bits) | 1 << (bits - 1)
    return -v if draw(st.booleans()) else v


@settings(max_examples=60, deadline=None)
@given(_ints())
def test_format_int_matches_str(v):
    state = interpreter_state()
    text = format_int(v)
    assert interpreter_state() == state
    assert text == str_unlimited(v)


@settings(max_examples=60, deadline=None)
@given(_ints(), st.integers(0, 5))
def test_parse_int_inverts_format_int(v, zeros):
    digits = "0" * zeros + format_int(abs(v))
    assert parse_int(digits) == abs(v)


def test_small_values_are_str():
    for v in (0, 1, -1, 10**4000, -(2**13_999)):
        assert format_int(v) == str(v)


def test_import_does_not_load_decimal():
    src = Path(tribkit.__file__).resolve().parent.parent
    code = "import sys, tribkit, tribkit.cli; print('decimal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_small_work_does_not_load_decimal_pickle_or_signal():
    # each costs milliseconds to import, so only the paths that need it do:
    # decimal output past 14,000 bits, the squaring worker and its teardown
    src = Path(tribkit.__file__).resolve().parent.parent
    code = (
        "import sys, tribkit, tribkit.cli\n"
        "for entry in tribkit.load_corpus():\n"
        "    tribkit.certify(entry.ast())\n"
        "tribkit.fast_term(tribkit.TRIBONACCI, 1000)\n"
        "code = tribkit.cli.main(['derive', '--basis', 'K', '--offsets', '-6,-4,-2', '--json'])\n"
        "print(code, sorted({'decimal', 'pickle', 'signal'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("digits", [1, 4096, 4097, 8192, 8193, 40_000])
def test_parse_int_at_leaf_edges(digits):
    text = "9" * digits
    assert parse_int(text) == 10**digits - 1

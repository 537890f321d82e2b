"""Exact decimal text for integers of any size.

CPython converts between ``int`` and decimal text in quadratic time and
refuses values past ``sys.get_int_max_str_digits()`` (4300 by default).
tribkit's values have no size limit (W(10^5) has 26,465 digits), so every
integer it prints goes through ``format_int``, and every coefficient
literal it reads goes through ``parse_int``.  Neither changes an
interpreter setting.

``format_int`` is ``str`` below ``_DIRECT_BITS``.  Above, it splits
v = hi * 2^k + lo at k = 4096 * 2^j with k < bits <= 2k, converts the
leaves (at most 4096 bits, at most 1234 digits) with ``str``, and joins
them with one ``Decimal`` multiply and add per node against the ladder
2^(4096 * 2^j), one cached entry per level.  libmpdec multiplies large
operands by a number-theoretic transform, so the join is sub-quadratic.
The arithmetic runs in a private context with precision ``MAX_PREC``,
exponents up to ``MAX_EMAX``, and ``Inexact`` and ``Rounded`` trapped, so
a result is exact or an exception; the thread's decimal context is never
read or changed.  ``decimal`` is imported only on that branch.

``parse_int`` is the inverse over digit strings:
int(s) = int(s[:-k]) * 10^k + int(s[-k:]) with k = 4096 * 2^j digits,
``int`` on leaves of at most 4096 digits, and cached powers of ten.
"""

from __future__ import annotations

from functools import cache

#: Below this many bits ``str`` is faster and within the digit limit
#: (2^14000 has 4215 digits).
_DIRECT_BITS = 14000
#: Leaf size of ``format_int`` in bits and of ``parse_int`` in digits.
_LEAF = 4096


@cache
def _context():
    """The private exact context, built on first use: importing tribkit
    does not load ``decimal``."""
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[
            decimal.InvalidOperation,
            decimal.DivisionByZero,
            decimal.Overflow,
            decimal.Inexact,
            decimal.Rounded,
        ],
    )


@cache
def _two_power(j: int):
    """2^(4096 * 2^j) as an exact Decimal."""
    if j == 0:
        return _context().create_decimal(str(1 << _LEAF))
    half = _two_power(j - 1)
    return _context().multiply(half, half)


def _to_decimal(v: int):
    """The exact Decimal of ``v >= 0``."""
    bits = v.bit_length()
    if bits <= _LEAF:
        return _context().create_decimal(str(v))
    j = ((bits - 1) // _LEAF).bit_length() - 1
    k = _LEAF << j
    ctx = _context()
    hi = ctx.multiply(_to_decimal(v >> k), _two_power(j))
    return ctx.add(hi, _to_decimal(v & ((1 << k) - 1)))


def format_int(v: int) -> str:
    """``str(v)`` for an int of any size, in sub-quadratic time."""
    if v.bit_length() < _DIRECT_BITS:
        return str(v)
    digits = _context().to_sci_string(_to_decimal(abs(v)))
    return "-" + digits if v < 0 else digits


@cache
def _ten_power(j: int) -> int:
    """10^(4096 * 2^j)."""
    if j == 0:
        return 10**_LEAF
    half = _ten_power(j - 1)
    return half * half


def parse_int(digits: str) -> int:
    """``int(digits)`` for a run of decimal digits of any length."""
    if len(digits) <= _LEAF:
        return int(digits)
    j = ((len(digits) - 1) // _LEAF).bit_length() - 1
    k = _LEAF << j
    return parse_int(digits[:-k]) * _ten_power(j) + parse_int(digits[-k:])

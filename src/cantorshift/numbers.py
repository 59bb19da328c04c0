"""Represented numbers: digit streams over a numeral system and their
exact evaluation.

A digit stream is a finite prefix plus a tail specification: all zeros,
all max digits, or a repeating digit cycle whose period the system must
share from the cycle's start position.  A `RepresentedNumber` is checked
once, when it is built (`validate_number`), so every number in the
package is valid and no operation checks it again.  `_tail_period` is the
one definition of the position from which a number's digits and its
system repeat together, and `normalize_stream` the one normal form of a
stream over its system.  Evaluation is exact rational arithmetic through
`series`.  Digits are read as slices of positions (`_digits`), the way
`EventuallyPeriodicSeq.items` reads a system; `digit_at` reads one
position through it, and `_digit_pair` as the pair `series` re-indexes.

Decoding, cylinders and dual representations read digits off a value
rather than a stream; they live in `decoding`.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import AlignmentError
from .systems import (
    _check_digit,
    _max_digits,
    _position_arrays,
    combined_cycle_len,
    combined_prefix_len,
    periodic_from,
)
from .series import _affine, _compose, _normalize, _periodic_sum, _slice, _Value

__all__ = [
    "Tail",
    "TAIL_ZEROS",
    "TAIL_MAX",
    "cycle_tail",
    "DigitStream",
    "RepresentedNumber",
    "validate_number",
    "digit_at",
    "evaluate",
    "normalize_stream",
    "make_stream",
    "digits_equal",
    "same_number",
]


class Tail(_Value):
    __slots__ = _fields = ("kind", "cycle")

    def __init__(self, kind, cycle=()):
        if kind not in ("zeros", "max", "cycle"):
            raise ValueError(f"unknown tail kind {kind!r}")
        cycle = tuple(cycle)
        if kind == "cycle" and not cycle:
            raise ValueError("cycle tail needs at least one digit")
        if kind != "cycle" and cycle:
            raise ValueError(f"{kind} tail carries no cycle digits")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cycle", cycle)


TAIL_ZEROS = Tail("zeros")
TAIL_MAX = Tail("max")


def cycle_tail(digits):
    return Tail("cycle", tuple(digits))


class DigitStream(_Value):
    __slots__ = _fields = ("prefix", "tail")

    def __init__(self, prefix, tail):
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "tail", tail)


class RepresentedNumber(_Value):
    """A digit stream over a numeral system.  Construction raises
    DigitRangeError or AlignmentError when the stream does not fit the
    system, so no invalid number exists."""

    __slots__ = _fields = ("system", "digits")

    def __init__(self, system, digits):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "digits", digits)
        validate_number(self)


def digit_at(num, n):
    """Digit at 1-based position n."""
    return _digits(num, n, 1)[0]


def _check_digits(system, first, digits):
    """`_check_digit` of the digits at positions first, first + 1, ...:
    the first digit out of its alphabet raises with its position."""
    for n, (d, top) in enumerate(zip(digits, _max_digits(system, first, len(digits))), first):
        if type(d) is not int or not 0 <= d <= top:
            _check_digit(system, n, d)


def _digits(num, first, count):
    """The digits at positions first, ..., first + count - 1, as a list: a
    slice of the prefix, then zeros, the max digits or the cycle read from
    its phase."""
    stream = num.digits
    tail = stream.tail
    if tail.kind != "max":
        return _slice(stream.prefix, tail.cycle or (0,), first, count)
    head = max(min(count, len(stream.prefix) - first + 1), 0)
    return (_slice(stream.prefix, (0,), first, head)
            + _max_digits(num.system, first + head, count - head))


def validate_number(num):
    """Raise DigitRangeError / AlignmentError when the stream does not fit
    the system; valid numbers pass silently.  Every RepresentedNumber runs
    it once, when it is built."""
    system, stream = num.system, num.digits
    _check_digits(system, 1, stream.prefix)
    tail = stream.tail
    if tail.kind == "cycle":
        start = len(stream.prefix) + 1
        p = len(tail.cycle)
        if not periodic_from(system, start, p):
            raise AlignmentError(
                f"digit cycle of length {p} starting at position {start} "
                "is not a period of the numeral system there"
            )
        _check_digits(system, start, tail.cycle)


def _tail_period(num):
    """(start, period): from position start + 1 on, the digits and the
    system repeat together with the given period.  This is the one
    definition of where a number becomes periodic.  A system is held in
    normalized form (combined prefix P, combined cycle L), so a valid cycle
    tail starts at or after P and its length is a multiple of L: the cycle
    gives (prefix length, cycle length), and a zeros or max tail gives
    (max(prefix length, P), L).  This is the stream as written, not the
    shortest joint period: a number built directly may carry a longer
    cycle or prefix than its digits need, while `normalize_stream` gives
    the shortest that fits the system.  Sums, `_digit_pair`'s max tails,
    dual partners and decode depths are read over it."""
    system, stream = num.system, num.digits
    if stream.tail.kind == "cycle":
        return len(stream.prefix), len(stream.tail.cycle)
    return max(len(stream.prefix), combined_prefix_len(system)), combined_cycle_len(system)


def _term_arrays(num):
    if num.digits.tail.kind == "zeros":
        split = total = len(num.digits.prefix)
    else:
        split, period = _tail_period(num)
        total = split + period
    return (*_position_arrays(num.system, _digits(num, 1, total)), split)


def _prefix_ints(system, digits):
    """Integer (v, w, den) of a finite digit prefix at positions 1..k, the
    map `series._affine` of its positions: its signed value is v/den, its
    weight product w/den, and den the product of the positions'
    denominators."""
    return _affine(*_position_arrays(system, digits), 0, len(digits))


def _stream_prefix(num, m):
    """Integer (v, w, den) of the digits of a valid number at positions
    1..m: the maps of the digits before the position where digits and
    system start to repeat, of k whole periods past it and of the
    positions left, joined by `series._compose`.  The k periods are a
    geometric block sum and a k-th power of the period's weight, so the
    work is O(start + period + log k), not O(m).  The sum of all periods
    is total = block / (1 - r) for the period's weight r, reduced before
    the power, and k of them sum to total * (1 - r^k)."""
    system = num.system
    start, period = _tail_period(num)
    k, r = divmod(max(m - start, 0), period)
    if k == 0:
        return _prefix_ints(system, _digits(num, 1, m))
    digits = _digits(num, 1, start + period)
    head = _prefix_ints(system, digits[:start])
    block = _position_arrays(system, digits[start:], start + 1)
    total_num, total_den = _periodic_sum(*block, 0)
    r_num, r_den = prod(block[1]), prod(block[2])
    g = gcd(r_num, r_den)
    r_num, r_den = (r_num // g) ** k, (r_den // g) ** k
    periods = (total_num * (r_den - r_num), total_den * r_num, total_den * r_den)
    return _compose(_compose(head, periods), _affine(*block, 0, r))


def _evaluate(num):
    return Fraction(*_periodic_sum(*_term_arrays(num)))


def evaluate(num):
    """Exact value of the represented number, summed on every call:
    nothing is cached per number."""
    # A name looked up at call time, which tests/test_verify.py patches.
    return _evaluate(num)



def normalize_stream(system, prefix, tail):
    """Canonical form of a digit stream over the system: two streams have
    the same digits exactly when their forms are equal.  The digits are
    read as one normalized sequence (primitive cycle, shortest prefix; a
    max tail is first written out as the system's max digits).  A zeros
    tail keeps that prefix.  Otherwise the cycle starts at the later of the
    prefix's end and the system's prefix P, with length the lcm of the
    primitive period and the system's cycle L, so the stream fits the
    system; a cycle of max digits is named, and the prefix digits it
    repeats are trimmed."""
    system_pre, system_period = combined_prefix_len(system), combined_cycle_len(system)
    if tail.kind == "max":
        prefix = list(prefix)
        split = max(len(prefix), system_pre)
        prefix += _max_digits(system, len(prefix) + 1, split - len(prefix))
        prefix, cycle = _normalize(prefix, _max_digits(system, split + 1, system_period))
    else:
        prefix, cycle = _normalize(prefix, tail.cycle or (0,))
    if cycle == (0,):
        return DigitStream(prefix, TAIL_ZEROS)
    start = max(len(prefix), system_pre)
    period = lcm(len(cycle), system_period)
    prefix, cyc = _slice(prefix, cycle, 1, start), _slice(prefix, cycle, start + 1, period)
    if cyc != _max_digits(system, start + 1, period):
        return DigitStream(tuple(prefix), cycle_tail(cyc))
    tops = _max_digits(system, 1, start)
    while start and prefix[start - 1] == tops[start - 1]:
        start -= 1
    return DigitStream(tuple(prefix[:start]), TAIL_MAX)


def make_stream(system, fn, preperiod, period):
    """Digit stream for a position function that is `period`-periodic
    beyond `preperiod`; the result is normalized."""
    prefix = [fn(n) for n in range(1, preperiod + 1)]
    cyc = [fn(preperiod + j) for j in range(1, period + 1)]
    return normalize_stream(system, prefix, cycle_tail(cyc))



def _digit_pair(num):
    """The digits as the unnormalized (prefix, cycle) pair that
    `series._shifted`/`_removed` re-index: a zeros or cycle tail as
    written, a max tail written out over `_tail_period`."""
    stream = num.digits
    if stream.tail.kind != "max":
        return stream.prefix, stream.tail.cycle or (0,)
    start, period = _tail_period(num)
    digits = _digits(num, 1, start + period)
    return digits[:start], digits[start:]


def digits_equal(a, b):
    """Semantic equality of two digit streams over their systems: same
    digit at every position.  The systems may differ.  Two normalized
    `_digit_pair`s are equal exactly when their digits are."""
    return _normalize(*_digit_pair(a)) == _normalize(*_digit_pair(b))


def same_number(a, b):
    """Same system (structurally) and the same digit function."""
    return a.system == b.system and digits_equal(a, b)

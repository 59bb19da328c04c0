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
position through it.  `_stream_pair` is the one place a max tail is
written out.

Decoding, cylinders and dual representations read digits off a value
rather than a stream; they live in `decoding`.
"""

from fractions import Fraction
from math import lcm

from .errors import AlignmentError
from .systems import (
    _check_digit,
    _max_digits,
    _position_arrays,
    combined_cycle_len,
    combined_prefix_len,
    periodic_from,
)
from .series import _affine, _normalize, _periodic_sum, _slice, _Value

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
    the shortest that fits the system.  `evaluate` sums over it, and
    `decoding` reads dual partners and decode depths over it;
    `_stream_pair` writes a max tail out over the same positions."""
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


def _evaluate(num):
    return Fraction(*_periodic_sum(*_term_arrays(num)))


def evaluate(num):
    """Exact value of the represented number, summed on every call:
    nothing is cached per number.  A cache of evaluated numbers hit in
    about a third of the verify suites' lookups and never in the
    benchmark's command-line workloads, and it kept every cached number's
    system alive."""
    # A name looked up at call time, which tests/test_verify.py patches.
    return _evaluate(num)


def _stream_pair(system, prefix, tail):
    """A stream's digits as an unnormalized (prefix, cycle) pair: a zeros or
    cycle tail as written, and a max tail, the one place one is written
    out, as max digits up to max(len(prefix), P), then L more, for the
    system's combined prefix P and cycle L (the `_tail_period`)."""
    if tail.kind != "max":
        return prefix, tail.cycle or (0,)
    start = max(len(prefix), combined_prefix_len(system))
    return (list(prefix) + _max_digits(system, len(prefix) + 1, start - len(prefix)),
            _max_digits(system, start + 1, combined_cycle_len(system)))


def normalize_stream(system, prefix, tail):
    """Canonical form of a digit stream over the system: two streams have
    the same digits exactly when their forms are equal.  The digits are
    read as one normalized sequence of their `_stream_pair` (primitive
    cycle, shortest prefix).  A zeros tail keeps that prefix.  Otherwise
    the cycle starts at the later of the prefix's end and the system's
    prefix P, with length the lcm of the primitive period and the system's
    cycle L, so the stream fits the system; a cycle of max digits is
    named, and the prefix digits it repeats are trimmed."""
    prefix, cycle = _normalize(*_stream_pair(system, prefix, tail))
    if cycle == (0,):
        return DigitStream(prefix, TAIL_ZEROS)
    start = max(len(prefix), combined_prefix_len(system))
    period = lcm(len(cycle), combined_cycle_len(system))
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
    """The number's `_stream_pair`, which `series._shifted`/`_removed`
    re-index."""
    return _stream_pair(num.system, num.digits.prefix, num.digits.tail)


def digits_equal(a, b):
    """Semantic equality of two digit streams over their systems: same
    digit at every position.  The systems may differ.  Two normalized
    `_digit_pair`s are equal exactly when their digits are, so two long
    coprime cycles cost their own lengths, not their joint period."""
    return _normalize(*_digit_pair(a)) == _normalize(*_digit_pair(b))


def same_number(a, b):
    """Same system (structurally) and the same digit function."""
    return a.system == b.system and digits_equal(a, b)

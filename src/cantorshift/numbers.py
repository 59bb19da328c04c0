"""Represented numbers: digit streams over a numeral system, exact
evaluation, canonical decoding, cylinders, and dual representations.

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
position through it.

Decoding extracts digits by the half-open cylinder convention (each
cylinder contains its spatially lowest point; the representable
supremum belongs to its topmost cylinder) and closes the stream when a
residual value recurs at an aligned position, which yields the periodic
tail exactly.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple, Optional

from .errors import (
    AlignmentError,
    DigitRangeError,
    InexactDecodeError,
    OutOfIntervalError,
)
from .systems import (
    Interval,
    _extreme_digits,
    _max_digits,
    _position_arrays,
    _sign_variable_columns,
    combined_cycle_len,
    combined_prefix_len,
    periodic_from,
    position_table,
)
from .rationals import _shown
from .series import _fold, _normalize, _periodic_sum, _slice, _Value

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
    "decode",
    "partial_digits",
    "cylinder",
    "DualInfo",
    "dual_representation",
    "quasi_partner",
    "is_quasi_rational",
    "canonicalize",
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


def _check_digit(system, n, d):
    # a bool is an int, but not a digit
    if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d <= system.max_digit(n):
        raise DigitRangeError(
            f"digit {d!r} outside alphabet 0..{system.max_digit(n)} at position {n}"
        )


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
    the shortest that fits the system."""
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


def _array_prefix(t, w, c, s):
    """(v, w, den) of the positions of the arrays: the signed sum of
    s_n*term_n*w_1...w_{n-1} is v/den and the product w_1...w_k is w/den,
    with den the product of the positions' denominators."""
    num, den = _fold(t, w, c, s, 0, len(t), 0, 1)
    full = prod(c)  # den omits the positions after the fold's last restart
    return num * (full // den), prod(w), full


def _join(a, b):
    """(v, w, den) of prefix a followed by prefix b."""
    v1, w1, d1 = a
    v2, w2, d2 = b
    return v1 * d2 + w1 * v2, w1 * w2, d1 * d2


def _prefix_ints(system, digits):
    """Integer (v, w, den) of a finite digit prefix at positions 1..k: its
    signed value is v/den and its weight product w/den."""
    return _array_prefix(*_position_arrays(system, digits))


def _stream_prefix(num, m):
    """Integer (v, w, den) of the digits of a valid number at positions
    1..m.  Past the position where digits and system start to repeat, k
    whole periods contribute a geometric block sum and a k-th power of the
    period's weight, so the work is O(start + period + log k), not O(m).
    The sum of all periods is total = block / (1 - r) for the period's
    weight r, and k of them sum to total * (1 - r^k)."""
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
    rest = _array_prefix(*(a[:r] for a in block))
    return _join(_join(head, periods), rest)


def _evaluate(num):
    return Fraction(*_periodic_sum(*_term_arrays(num)))


def evaluate(num):
    """Exact value of the represented number, summed on every call:
    nothing is cached per number."""
    # A name looked up at call time, which tests/test_verify.py patches.
    return _evaluate(num)


def _digit_steps(table, n, y_nums, y_dens):
    """Extract the digit at position n from each residual
    y_nums[k]/y_dens[k], returning lists (digits, next nums, next dens).
    Every residual must lie in the representable interval of the system
    shifted by n-1 positions.  The slot, its tail interval, sign and base
    or pieces are read once per call.  A Cantor step keeps each
    denominator, unreduced, and returns `y_dens` itself; a column step
    returns reduced pairs."""
    i = table.slot(n)
    lo_num, lo_den, hi_num, hi_den = table.tails[i + 1]
    s = table.signs[i]
    digits, nums = [], []
    if table.bases:
        # Cantor: the digit is floor(q*y - lo) (ceil(lo - q*y) under a
        # negative sign), clamped to 0..q-1, computed on numerators and
        # denominators.
        q = table.bases[i]
        for k in range(len(y_nums)):
            y_num, y_den = y_nums[k], y_dens[k]
            d = (q * y_num * lo_den - lo_num * y_den) // (y_den * lo_den)
            if s < 0:
                d = -d
            if not 0 <= d < q:
                d = 0 if d < 0 else q - 1
            y2_num = q * y_num - s * d * y_den
            # the clamp moves a point past either end onto digit 0 or q-1,
            # so the next residual may leave the interval; a column step
            # needs no such check, since y in the piece s*t/c + (w/c)*[lo,
            # hi] puts (y - s*t/c)*c/w in [lo, hi]
            if not (lo_num * y_den <= y2_num * lo_den and y2_num * hi_den <= hi_num * y_den):
                raise OutOfIntervalError(f"value has no digit at position {n}")
            digits.append(d)
            nums.append(y2_num)
        return digits, nums, y_dens
    # Column: the first piece (lo, hi, d, ...) with lo <= y < hi, all over
    # the slot's denominator; y2 = (y - s*t/c) / (w/c).
    pieces, piece_den = table.pieces[i], table.piece_dens[i]
    dens = []
    for k in range(len(y_nums)):
        y_num, y_den = y_nums[k], y_dens[k]
        scaled = y_num * piece_den
        for lo, hi, d, t, w, c in pieces:
            if lo * y_den <= scaled < hi * y_den:
                break
        else:
            _, hi, d, t, w, c = table.tops[i]
            if scaled != hi * y_den:
                raise OutOfIntervalError(f"value has no digit at position {n}")
        y2_num, y2_den = c * y_num - s * t * y_den, w * y_den
        g = gcd(y2_num, y2_den)
        y2_num, y2_den = y2_num // g, y2_den // g
        digits.append(d)
        nums.append(y2_num)
        dens.append(y2_den)
    return digits, nums, dens


def _representable_table(system, y):
    """The system's position table, once the rational y is known to lie in
    its representable interval."""
    table = position_table(system)
    lo_num, lo_den, hi_num, hi_den = table.tail(0)
    if not (lo_num * y.denominator <= y.numerator * lo_den
            and y.numerator * hi_den <= hi_num * y.denominator):
        iv = table.interval(0)
        raise OutOfIntervalError(f"{_shown(y)} outside representable interval "
                                 f"[{_shown(iv.lo)}, {_shown(iv.hi)}]")
    return table


def partial_digits(system, value, count):
    """First `count` digits of the canonical expansion of `value`."""
    y = Fraction(value)
    table = _representable_table(system, y)
    y_nums, y_dens = [y.numerator], [y.denominator]
    digits = []
    for n in range(1, count + 1):
        d, y_nums, y_dens = _digit_steps(table, n, y_nums, y_dens)
        digits += d
    return tuple(digits)


def decode(system, value, depth):
    """Canonical representation of an in-interval rational.

    Digits are extracted stepwise; the stream closes exactly when a
    residual recurs at a position aligned with the system's period
    (periodic tail) within `depth` extracted digits, else
    InexactDecodeError is raised.  Residuals are compared as integer
    pairs: Cantor steps keep the value's denominator and column steps
    reduce, so equal pairs are equal residuals.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    y0 = Fraction(value)
    table = _representable_table(system, y0)
    pre, period = table.prefix_len, table.cycle_len
    y_nums, y_dens = [y0.numerator], [y0.denominator]
    digits = []
    seen = {}
    while True:
        k = len(digits)
        if k >= pre and (k - pre) % period == 0:
            y = y_nums[0], y_dens[0]
            if y in seen:
                cut = seen[y]
                return RepresentedNumber(
                    system, normalize_stream(system, digits[:cut], cycle_tail(digits[cut:]))
                )
            seen[y] = k
        if k >= depth:
            raise InexactDecodeError(
                f"no exact tail found within depth {depth} for value {_shown(y0)}"
            )
        d, y_nums, y_dens = _digit_steps(table, k + 1, y_nums, y_dens)
        digits += d


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
    while prefix and prefix[-1] == system.max_digit(len(prefix)):
        prefix.pop()
    return DigitStream(tuple(prefix), TAIL_MAX)


def make_stream(system, fn, preperiod, period):
    """Digit stream for a position function that is `period`-periodic
    beyond `preperiod`; the result is normalized."""
    prefix = [fn(n) for n in range(1, preperiod + 1)]
    cyc = [fn(preperiod + j) for j in range(1, period + 1)]
    return normalize_stream(system, prefix, cycle_tail(cyc))


def cylinder(system, prefix_digits):
    """Exact interval of all numbers whose expansion starts with the given
    digits: fixed prefix value plus the scaled representable interval of
    the shifted system."""
    prefix_digits = tuple(prefix_digits)
    _check_digits(system, 1, prefix_digits)
    return _cylinder_interval(_prefix_ints(system, prefix_digits),
                              position_table(system).tail(len(prefix_digits)))


def _cylinder_interval(prefix, tail):
    """Interval of a digit prefix's cylinder from the prefix's integer
    (v, w, den) and the integer bounds of the residual interval after it."""
    v, w, den = prefix
    lo_num, lo_den, hi_num, hi_den = tail
    return Interval(Fraction(v * lo_den + w * lo_num, den * lo_den),
                    Fraction(v * hi_den + w * hi_num, den * hi_den))


class DualInfo(NamedTuple):
    partner: RepresentedNumber
    position: int
    side: str  # "beta" when the number carries the most-negative tail


def dual_representation(num) -> Optional[DualInfo]:
    """Detect the two-representation structure: a number has a dual
    exactly when its digits beyond some position n follow the extreme
    beta tail (max at member positions, 0 elsewhere) or the mirror gamma
    tail.  The partner flips the digit at n toward the adjacent cylinder
    and carries the opposite extreme tail; both evaluate equal.  The tails
    come from the one rule `systems._extreme_digits`, read directly: a
    position table would cost more than the rest of the call.

    Sign-variable column systems are excluded: their cylinders may
    overlap or leave gaps, so adjacent-cylinder duality is not available.
    """
    system = num.system
    if _sign_variable_columns(system):
        return None
    # pre >= P and window >= L, so the digits at 1..pre + window also hold
    # the partner's prefix and one period of its tail.
    pre, window = _tail_period(num)
    size = pre + window
    digits = _digits(num, 1, size)
    members = system.signs.membership.items(1, size)
    # the tail digits of the most negative and most positive continuations
    beta, gamma = _extreme_digits(_max_digits(system, 1, size), members)
    for side, tail, other in (("beta", beta, gamma), ("gamma", gamma, beta)):
        if digits[pre:] != tail[pre:]:
            continue
        flip = next((n for n in range(pre, 0, -1) if digits[n - 1] != tail[n - 1]), None)
        if flip is None:
            # the stream is the extreme tail from position 1: an interval
            # endpoint with a unique representation
            return None
        step = 1 if members[flip - 1] else -1
        if side == "gamma":
            step = -step
        partner = digits[:flip - 1] + [digits[flip - 1] + step] + other[flip:]
        split = max(flip, combined_prefix_len(system))
        stream = normalize_stream(system, partner[:split],
                                  cycle_tail(partner[split:split + combined_cycle_len(system)]))
        return DualInfo(RepresentedNumber(system, stream), flip, side)
    return None


def quasi_partner(num):
    """The other exact representation of the same value, when one exists."""
    info = dual_representation(num)
    return info.partner if info is not None else None


def is_quasi_rational(num):
    return dual_representation(num) is not None


def canonicalize(num):
    """The representative decode() would produce for the number's value."""
    system = num.system
    _, period = _tail_period(num)
    depth = len(num.digits.prefix) + combined_prefix_len(system) + 3 * period + 8
    return decode(system, evaluate(num), depth)


def _digit_seq(num):
    """The number's digits as one normalized (prefix, cycle) sequence, the
    form `EventuallyPeriodicSeq` holds, read once over its start and
    period."""
    start, period = _tail_period(num)
    digits = _digits(num, 1, start + period)
    return _normalize(digits[:start], digits[start:])


def digits_equal(a, b):
    """Semantic equality of two digit streams over their systems: same
    digit at every position.  The systems may differ.  Each side reads
    its start plus its period once, as a normalized sequence, and two
    normalized sequences are equal exactly when their digits are."""
    return _digit_seq(a) == _digit_seq(b)


def same_number(a, b):
    """Same system (structurally) and the same digit function."""
    return a.system == b.system and digits_equal(a, b)

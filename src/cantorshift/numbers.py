"""Represented numbers: digit streams over a numeral system, exact
evaluation, canonical decoding, cylinders, and dual representations.

A digit stream is a finite prefix plus a tail specification: all zeros,
all max digits, or a repeating digit cycle whose period the system must
share from the cycle's start position.  Evaluation is exact rational
arithmetic through `series`.

Decoding extracts digits by the half-open cylinder convention (each
cylinder contains its spatially lowest point; the representable
supremum belongs to its topmost cylinder) and closes the stream when a
residual value recurs at an aligned position, which yields the periodic
tail exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from .errors import (
    AlignmentError,
    DigitRangeError,
    InexactDecodeError,
    OutOfIntervalError,
)
from .systems import (
    Interval,
    QTildeSystem,
    combined_cycle_len,
    combined_prefix_len,
    periodic_from,
    position_table,
    sign_factor,
)
from .rationals import _shown
from .series import weighted_periodic_value, weighted_value

__all__ = [
    "Tail",
    "TAIL_ZEROS",
    "TAIL_MAX",
    "cycle_tail",
    "DigitStream",
    "RepresentedNumber",
    "Interval",
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


@dataclass(frozen=True)
class Tail:
    kind: str
    cycle: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zeros", "max", "cycle"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if self.kind == "cycle" and not self.cycle:
            raise ValueError("cycle tail needs at least one digit")
        if self.kind != "cycle" and self.cycle:
            raise ValueError(f"{self.kind} tail carries no cycle digits")


TAIL_ZEROS = Tail("zeros")
TAIL_MAX = Tail("max")


def cycle_tail(digits):
    return Tail("cycle", tuple(digits))


@dataclass(frozen=True)
class DigitStream:
    prefix: tuple
    tail: Tail

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))


@dataclass(frozen=True)
class RepresentedNumber:
    system: object
    digits: DigitStream


def digit_at(num, n):
    """Digit at 1-based position n."""
    if n < 1:
        raise ValueError("positions are 1-based")
    stream = num.digits
    if n <= len(stream.prefix):
        return stream.prefix[n - 1]
    tail = stream.tail
    if tail.kind == "zeros":
        return 0
    if tail.kind == "max":
        return num.system.max_digit(n)
    return tail.cycle[(n - len(stream.prefix) - 1) % len(tail.cycle)]


def _check_digit(system, n, d):
    if not isinstance(d, int) or not 0 <= d <= system.max_digit(n):
        raise DigitRangeError(
            f"digit {d!r} outside alphabet 0..{system.max_digit(n)} at position {n}"
        )


def validate_number(num):
    """Raise DigitRangeError / AlignmentError when the stream does not fit
    the system; valid numbers pass silently."""
    system, stream = num.system, num.digits
    for i, d in enumerate(stream.prefix):
        _check_digit(system, i + 1, d)
    tail = stream.tail
    if tail.kind == "cycle":
        start = len(stream.prefix) + 1
        p = len(tail.cycle)
        if not periodic_from(system, start, p):
            raise AlignmentError(
                f"digit cycle of length {p} starting at position {start} "
                "is not a period of the numeral system there"
            )
        for j, d in enumerate(tail.cycle):
            _check_digit(system, start + j, d)


def _position_arrays(system, digits):
    """Per-position term values, weights and sign factors of the digits
    at positions 1, 2, ..."""
    terms, weights, signs = [], [], []
    for n, d in enumerate(digits, 1):
        terms.append(system.term_value(n, d))
        weights.append(system.digit_weight(n, d))
        signs.append(sign_factor(system.signs, n))
    return terms, weights, signs


def _term_arrays(num):
    system, stream = num.system, num.digits
    dpl = len(stream.prefix)
    tail = stream.tail
    if tail.kind == "zeros":
        split = dpl
        total = dpl
    elif tail.kind == "max":
        split = max(dpl, combined_prefix_len(system))
        total = split + combined_cycle_len(system)
    else:
        split = dpl
        total = dpl + len(tail.cycle)
    digits = [digit_at(num, n) for n in range(1, total + 1)]
    return (*_position_arrays(system, digits), split)


def _prefix_value(system, digits):
    """(value, weight) of a finite digit prefix at positions 1..k: the
    signed sum of s_n * term_n * w_1 ... w_{n-1} and the product
    w_1 ... w_k.  The empty prefix gives (0, 1)."""
    terms, weights, signs = _position_arrays(system, digits)
    num = den = 1
    for w in weights:
        num *= w.numerator
        den *= w.denominator
    return weighted_value(terms, weights, signs), Fraction(num, den)


@lru_cache(maxsize=8192)
def _evaluate_cached(num):
    validate_number(num)
    return weighted_periodic_value(*_term_arrays(num))


def evaluate(num):
    """Exact value of the represented number."""
    return _evaluate_cached(num)


def _digit_step(table, n, y):
    """Extract the digit at position n from residual y, returning
    (digit, next residual).  y must lie in the representable interval of
    the system shifted by n-1 positions."""
    i = table.slot(n)
    lo_num, lo_den, hi_num, hi_den = table.tail(n)
    s = table.signs[i]
    if table.bases:
        # Cantor: the digit is floor(q*y - lo) (ceil(lo - q*y) under a
        # negative sign), computed on numerators and denominators.
        q = table.bases[i]
        y_num, y_den = y.numerator, y.denominator
        d = (q * y_num * lo_den - lo_num * y_den) // (y_den * lo_den)
        d = min(max(d if s > 0 else -d, 0), q - 1)
        y2_num, y2_den = q * y_num - s * d * y_den, y_den
    else:
        for plo, phi, d, a, w in table.pieces[i]:
            if plo <= y < phi:
                break
        else:
            top = table.tops[i]
            if y != top[1]:
                raise OutOfIntervalError(f"value has no digit at position {n}")
            _, _, d, a, w = top
        y2 = (y - s * a) / w
        y2_num, y2_den = y2.numerator, y2.denominator
    if not (lo_num * y2_den <= y2_num * lo_den and y2_num * hi_den <= hi_num * y2_den):
        raise OutOfIntervalError(f"value has no digit at position {n}")
    return d, Fraction(y2_num, y2_den)


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
    digits = []
    for n in range(1, count + 1):
        d, y = _digit_step(table, n, y)
        digits.append(d)
    return tuple(digits)


def decode(system, value, depth):
    """Canonical representation of an in-interval rational.

    Digits are extracted stepwise; the stream closes exactly when a
    residual recurs at a position aligned with the system's period
    (periodic tail) within `depth` extracted digits, else
    InexactDecodeError is raised.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    y = y0 = Fraction(value)
    table = _representable_table(system, y)
    pre, period = table.prefix_len, table.cycle_len
    digits = []
    seen = {}
    while True:
        k = len(digits)
        if k >= pre and (k - pre) % period == 0:
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
        d, y = _digit_step(table, k + 1, y)
        digits.append(d)


def normalize_stream(system, prefix, tail):
    """Canonical structural form of a digit stream: cycles reduced to the
    shortest system-compatible period and absorbed into named zeros/max
    tails when they match, trailing redundant prefix digits trimmed."""
    prefix = list(prefix)
    if tail.kind == "cycle":
        cyc = list(tail.cycle)
        start = len(prefix) + 1
        # shortest period compatible with the system at the start position
        p = len(cyc)
        for d in range(1, p + 1):
            if p % d == 0 and cyc[:d] * (p // d) == cyc and periodic_from(system, start, d):
                cyc = cyc[:d]
                p = d
                break
        # absorb whole periods sitting at the end of the prefix
        while (
            len(prefix) >= p
            and prefix[-p:] == cyc
            and periodic_from(system, start - p, p)
        ):
            del prefix[-p:]
            start -= p
        if all(d == 0 for d in cyc):
            tail = TAIL_ZEROS
        elif periodic_from(system, start, p) and all(
            d == system.max_digit(start + j) for j, d in enumerate(cyc)
        ):
            tail = TAIL_MAX
        else:
            return DigitStream(tuple(prefix), cycle_tail(cyc))
    if tail.kind == "zeros":
        while prefix and prefix[-1] == 0:
            prefix.pop()
    else:
        while prefix and prefix[-1] == system.max_digit(len(prefix)):
            prefix.pop()
    return DigitStream(tuple(prefix), tail)


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
    for n, d in enumerate(prefix_digits, 1):
        _check_digit(system, n, d)
    value, weight = _prefix_value(system, prefix_digits)
    tail = position_table(system).interval(len(prefix_digits))
    return Interval(value + weight * tail.lo, value + weight * tail.hi)


def _beta_digit(system, n):
    # tail digits of the most negative continuation
    return system.max_digit(n) if system.signs.member(n) else 0


def _gamma_digit(system, n):
    # tail digits of the most positive continuation
    return 0 if system.signs.member(n) else system.max_digit(n)


@dataclass(frozen=True)
class DualInfo:
    partner: RepresentedNumber
    position: int
    side: str  # "beta" when the number carries the most-negative tail


def _stream_period(system, stream):
    if stream.tail.kind == "cycle":
        return len(stream.tail.cycle)
    return combined_cycle_len(system)


def dual_representation(num) -> Optional[DualInfo]:
    """Detect the two-representation structure: a number has a dual
    exactly when its digits beyond some position n follow the extreme
    beta tail (max at member positions, 0 elsewhere) or the mirror gamma
    tail.  The partner flips the digit at n toward the adjacent cylinder
    and carries the opposite extreme tail; both evaluate equal.

    Sign-variable column systems are excluded: their cylinders may
    overlap or leave gaps, so adjacent-cylinder duality is not available.
    """
    system = num.system
    if isinstance(system, QTildeSystem) and system.signs.has_members():
        return None
    validate_number(num)
    pre = max(len(num.digits.prefix), combined_prefix_len(system))
    window = lcm(_stream_period(system, num.digits), combined_cycle_len(system))
    for side, tail_fn, other_fn in (
        ("beta", _beta_digit, _gamma_digit),
        ("gamma", _gamma_digit, _beta_digit),
    ):
        if any(digit_at(num, n) != tail_fn(system, n) for n in range(pre + 1, pre + window + 1)):
            continue
        flip = next(
            (n for n in range(pre, 0, -1) if digit_at(num, n) != tail_fn(system, n)),
            None,
        )
        if flip is None:
            # the stream is the extreme tail from position 1: an interval
            # endpoint with a unique representation
            return None
        step = 1 if system.signs.member(flip) else -1
        if side == "gamma":
            step = -step
        flipped = digit_at(num, flip) + step

        def partner_digit(n, flip=flip, flipped=flipped, other_fn=other_fn):
            if n < flip:
                return digit_at(num, n)
            if n == flip:
                return flipped
            return other_fn(system, n)

        stream = make_stream(
            system,
            partner_digit,
            max(flip, combined_prefix_len(system)),
            combined_cycle_len(system),
        )
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
    validate_number(num)
    system = num.system
    depth = (
        len(num.digits.prefix)
        + combined_prefix_len(system)
        + 3 * max(_stream_period(system, num.digits), combined_cycle_len(system))
        + 8
    )
    return decode(system, evaluate(num), depth)


def digits_equal(a, b):
    """Semantic equality of two digit streams over their systems: same
    digit at every position."""
    pa = max(len(a.digits.prefix), combined_prefix_len(a.system))
    pb = max(len(b.digits.prefix), combined_prefix_len(b.system))
    horizon = max(pa, pb) + lcm(
        _stream_period(a.system, a.digits), _stream_period(b.system, b.digits)
    )
    return all(digit_at(a, n) == digit_at(b, n) for n in range(1, horizon + 1))


def same_number(a, b):
    """Same system (structurally) and the same digit function."""
    return a.system == b.system and digits_equal(a, b)

"""Digit extraction: canonical decoding of a rational, cylinders of a
digit prefix, and dual representations.

Decoding extracts digits by the half-open cylinder convention (each
cylinder contains its spatially lowest point; the representable
supremum belongs to its topmost cylinder) and closes the stream when a
residual value recurs at an aligned position, which yields the periodic
tail exactly.  `_digit_steps` is the one digit step: it steps every
residual at one position together, so a table of points decodes in one
call per position.

Decoding, the tables in `analysis` and `verify` read the position table
(`PositionTable`, `position_table`), which rolls each residual interval
on demand, so a reader pays only for the positions it reads.  The module
is apart from `numbers` and `systems` so that a process which only
evaluates, shifts or prints numbers does not compile it: the CLI's
`eval`, `shift`, `itershift` and `gshift` do not load it.
"""

import _thread
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

from .errors import InexactDecodeError, OutOfIntervalError
from .numbers import (
    RepresentedNumber,
    _check_digits,
    _digits,
    _prefix_ints,
    _tail_period,
    cycle_tail,
    evaluate,
    normalize_stream,
)
from .rationals import _shown
from .series import _affine, _periodic_sum
from .systems import (
    CantorSystem,
    Interval,
    _digit_arrays,
    _sign_variable_columns,
    combined_cycle_len,
    combined_prefix_len,
)

__all__ = [
    "PositionTable",
    "position_table",
    "decode",
    "partial_digits",
    "cylinder",
    "DualInfo",
    "dual_representation",
    "quasi_partner",
    "is_quasi_rational",
    "canonicalize",
]


def _extreme_digits(system, data, members):
    """The digits of the most negative and the most positive streams at
    positions 1..len(data), whose bases or columns are `data` and sign
    memberships `members`, at least the system's P + L.  This is the one
    rule for the extreme digits, which the position table and
    `dual_representation` read.

    The ends of the residual interval after each position obey
    lo_{n-1} = min_d (s_n*t_d + w_d*lo_n)/c_n and
    hi_{n-1} = max_d (s_n*t_d + w_d*hi_n)/c_n, and an extreme digit
    attains the min or the max.  Where a position's digits share one
    weight (Cantor systems), or every tail lies in [0, 1] (positive column
    systems), s_n*t_d + w_d*x is monotone in d, so the min is the max digit
    at member positions and 0 elsewhere, whatever the tail, and the max
    its mirror image.  On a sign-variable column system the choice depends
    on the tail after the position: `data` then holds the system's P + L
    slots (a member among them makes the system sign-variable), and
    `_hull_digits` improves the greedy digits by policy iteration."""
    cantor = isinstance(system, CantorSystem)
    tops = [q - 1 for q in data] if cantor else [len(col.ints) - 1 for col in data]
    lows = [top if member else 0 for top, member in zip(tops, members)]
    highs = [0 if member else top for top, member in zip(tops, members)]
    if cantor or not any(members):
        return lows, highs
    columns = [col.ints for col in data]
    signs = [-1 if member else 1 for member in members]
    prefix_len = combined_prefix_len(system)
    return (_hull_digits(columns, signs, prefix_len, lows, min),
            _hull_digits(columns, signs, prefix_len, highs, max))


def _hull_digits(columns, signs, prefix_len, digits, pick):
    """The digits of one end of the exact hull of a column system whose
    slots have the columns' `ints` and the signs, P = prefix_len, by
    policy iteration from `digits`, with pick = min (lo) or max (hi).

    Each round fixes one digit per cycle slot, solves the composed cycle
    map x = (a + b*x)/d for its fixed point a/(d - b), the tail after
    position P, and walks the slots backwards from it: a cycle slot keeps
    its digit to roll the tail, and marks the digit that the pick prefers
    strictly at the tail after it; a prefix slot takes its pick and rolls
    with it.  A round that marks no cycle slot is the last, and its prefix
    picks are exact.  Every map is a monotone contraction, so each
    switching round moves the fixed point strictly toward the end and the
    rounds stop."""
    size = len(digits)
    while True:
        a, b, d = _affine(*zip(*(column[k] for column, k in zip(columns, digits))),
                          signs, prefix_len, size)
        num, den = a, d - b
        better = list(digits)
        for i in range(size - 1, -1, -1):
            s, column = signs[i], columns[i]
            # the digits' values at slot i over their common c*den
            values = [s * t * den + w * num for t, w, _ in column]
            best = pick(values)
            if values[digits[i]] != best:
                better[i] = values.index(best)
            t, w, c = column[digits[i] if i >= prefix_len else better[i]]
            num, den = s * t * den + w * num, c * den
        if better[prefix_len:] == digits[prefix_len:]:
            return better
        digits = better


class PositionTable:
    """Per-position data of a system for positions 1..P+L, where P is the
    combined prefix length and L the combined cycle length; position
    n > P reads slot P + (n - P - 1) mod L.

    Slot i (position i + 1) holds, as integers, the max digit, the sign
    factor, the base q (`bases`) or the column's `ints` (`columns`: each
    digit's term_num, weight_num and den), and the digits of the two
    extreme streams of `_extreme_digits` (`lows`, `highs`).  Only the
    residual interval at position 0 is summed, by `series._periodic_sum`;
    `tail(n)` rolls it forward along the two streams,
    x_n = (c_n*x_{n-1} - s_n*t_n)/w_n, up to n's slot, reduces each end and
    keeps what it rolled.  A column slot's decode pieces are built on first
    use.  Tables are shared, so a roll holds the table's lock; an entry
    is appended only when complete, so reading one takes no lock.
    """

    __slots__ = ("prefix_len", "cycle_len", "max_digits", "signs", "bases", "columns",
                 "lows", "highs", "_tails", "_pieces", "_lock")

    @classmethod
    def build(cls, system):
        table = object.__new__(cls)
        table.prefix_len = prefix_len = combined_prefix_len(system)
        table.cycle_len = combined_cycle_len(system)
        # The base or column sequence and the sign membership are read
        # once each; everything else is derived from those two slices.
        size = prefix_len + table.cycle_len
        cantor = isinstance(system, CantorSystem)
        data = (system.base if cantor else system.columns).items(1, size)
        members = system.signs.membership.items(1, size)
        if cantor:
            table.bases, table.columns = tuple(data), ()
            table.max_digits = tuple(q - 1 for q in data)
        else:
            table.bases, table.columns = (), tuple(col.ints for col in data)
            table.max_digits = tuple(len(ints) - 1 for ints in table.columns)
        table.lows, table.highs = map(tuple, _extreme_digits(system, data, members))
        ends = ()
        for digits in table.lows, table.highs:
            *_, signs = arrays = _digit_arrays(system, data, members, digits)
            num, den = _periodic_sum(*arrays, prefix_len)
            g = gcd(num, den)
            ends += (num // g, den // g)
        table.signs, table._tails, table._pieces = tuple(signs), [ends], {}
        table._lock = _thread.allocate_lock()
        return table

    def slot(self, n):
        """Slot index of 1-based position n."""
        if n <= self.prefix_len + self.cycle_len:
            return n - 1
        return self.prefix_len + (n - self.prefix_len - 1) % self.cycle_len

    def digit_ints(self, i, d):
        """(term_num, weight_num, den) of digit d at slot i."""
        if self.bases:
            return d, 1, self.bases[i]
        return self.columns[i][d]

    def tail(self, n):
        """Integer bounds (lo_num, lo_den, hi_num, hi_den) of the residual
        interval after position n >= 0, each end reduced, with positive
        denominators.  Every roll, Cantor or column, reduces each end by one
        gcd: with unreduced column intervals the `roundtrip` and `segments`
        suites ran about 20% slower, and a table makes at most P + L + 1
        rolls."""
        k = self.slot(n) + 1 if n else 0
        tails = self._tails
        if k < len(tails):
            return tails[k]
        with self._lock:
            while len(tails) <= k:
                i = len(tails) - 1  # the slot rolled past
                lo_num, lo_den, hi_num, hi_den = tails[i]
                s = self.signs[i]
                t_lo, w_lo, c = self.digit_ints(i, self.lows[i])
                t_hi, w_hi, _ = self.digit_ints(i, self.highs[i])
                lo_num, lo_den = c * lo_num - s * t_lo * lo_den, w_lo * lo_den
                hi_num, hi_den = c * hi_num - s * t_hi * hi_den, w_hi * hi_den
                g, h = gcd(lo_num, lo_den), gcd(hi_num, hi_den)
                tails.append((lo_num // g, lo_den // g, hi_num // h, hi_den // h))
        return tails[k]

    def interval(self, n):
        """Interval of residual values available after position n >= 0."""
        lo_num, lo_den, hi_num, hi_den = self.tail(n)
        return Interval(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))

    def pieces(self, i):
        """Column slot i's decode pieces, built on first use, as (pieces,
        den, top): digit d's piece s*t/c + (w/c)*[lo, hi] over the tail after
        the slot is (lo_num, hi_num, d, t, w, c), both ends over den, sorted
        by (lo_num, hi_num, d); top is the piece that owns the upper end."""
        if i not in self._pieces:
            lo_n, lo_d, hi_n, hi_d = self.tail(i + 1)
            s, column = self.signs[i], self.columns[i]
            pieces = sorted((((s * t * lo_d + w * lo_n) * hi_d, (s * t * hi_d + w * hi_n) * lo_d,
                              d, t, w, c) for d, (t, w, c) in enumerate(column)),
                            key=lambda piece: piece[:3])
            self._pieces[i] = (pieces, column[0][2] * lo_d * hi_d,
                               max(pieces, key=lambda piece: (piece[1], -piece[2])))
        return self._pieces[i]


# Beyond 64 systems a table is rebuilt; a larger cache only keeps more
# tables alive.
@lru_cache(maxsize=64)
def position_table(system):
    """The system's PositionTable (cached)."""
    return PositionTable.build(system)


def _digit_steps(table, n, y_nums, y_dens):
    """Extract the digit at position n from each residual
    y_nums[k]/y_dens[k], returning lists (digits, next nums, next dens).
    Every residual must lie in the representable interval of the system
    shifted by n-1 positions.  The slot, its tail interval, sign and base
    or pieces are read once per call.  A Cantor step keeps each
    denominator, unreduced, and returns `y_dens` itself; a column step
    returns reduced pairs."""
    i = table.slot(n)
    # an interval rolled already is read without a call
    tails = table._tails
    lo_num, lo_den, hi_num, hi_den = tails[i + 1] if i + 1 < len(tails) else table.tail(n)
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
    pieces, piece_den, top = table.pieces(i)
    dens = []
    for k in range(len(y_nums)):
        y_num, y_den = y_nums[k], y_dens[k]
        scaled = y_num * piece_den
        for lo, hi, d, t, w, c in pieces:
            if lo * y_den <= scaled < hi * y_den:
                break
        else:
            _, hi, d, t, w, c = top
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
    if count < 0:
        raise ValueError("count must be >= 0")
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


def cylinder(system, prefix_digits):
    """Exact interval of all numbers whose expansion starts with the given
    digits: fixed prefix value plus the scaled representable interval of
    the shifted system, the residual interval after the prefix."""
    prefix_digits = tuple(prefix_digits)
    _check_digits(system, 1, prefix_digits)
    v, w, den = _prefix_ints(system, prefix_digits)
    lo_num, lo_den, hi_num, hi_den = position_table(system).tail(len(prefix_digits))
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
    come from the one rule `_extreme_digits`, read directly: a position
    table would cost more than the rest of the call.  The partner is
    normalized over the number's own (pre, window) from `_tail_period`.

    Sign-variable column systems are excluded: their cylinders may
    overlap or leave gaps, so adjacent-cylinder duality is not available.
    """
    system = num.system
    if _sign_variable_columns(system):
        return None
    # pre >= P and window >= L, so the digits at 1..pre + window also hold
    # the partner's prefix (flip <= pre) and one period of its tail.
    pre, window = _tail_period(num)
    size = pre + window
    digits = _digits(num, 1, size)
    members = system.signs.membership.items(1, size)
    # the tail digits of the most negative and most positive continuations
    data = (system.base if isinstance(system, CantorSystem) else system.columns).items(1, size)
    beta, gamma = _extreme_digits(system, data, members)
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
        stream = normalize_stream(system, partner[:pre], cycle_tail(partner[pre:]))
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

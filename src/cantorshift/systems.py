"""Numeral systems: Cantor bases, column-stochastic weight matrices, and
sign patterns, with validation and index surgery (remove/shift).

A system assigns to every position n a finite digit alphabet
A_n = {0, ..., max_digit(n)}, a per-digit term value and weight, and a
sign factor -1/+1.  Cantor systems use an integer base q_n >= 2 at each
position (digit d contributes d/q_n, weight 1/q_n); column systems carry
an explicit weight column summing to 1 (digit d contributes the
cumulative sum of the entries below it, weight entries[d]).

Exact arithmetic inside the package reads each digit as integers
(term_num, weight_num, den) over one denominator per position: a Cantor
digit d is (d, 1, q_n), a column digit its column's `ints` entry.  A
column is held as those integers alone, from the document parser up; its
`entries` are a `Fraction` view derived from them.  `term_value` and
`digit_weight` give the same values as `Fraction`s, read from the base or
the column's integers, for callers outside the package and for the tests'
reference routes.  Per-position data of a whole range of positions is
read in slices, through `EventuallyPeriodicSeq.items`.  A system stores
its combined prefix length P and combined cycle length L when it is
built, and every periodicity question reads them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from operator import methodcaller
from typing import NamedTuple

from .errors import DigitRangeError
from .rationals import _clip, _int_str, _pair_str
from .series import EventuallyPeriodicSeq, _suffix_values, _Value

__all__ = [
    "MAX_TABLE_ROWS",
    "SignPattern",
    "CantorSystem",
    "QTildeColumn",
    "QTildeSystem",
    "Interval",
    "Violation",
    "ValidationReport",
    "rho",
    "sign_factor",
    "validate",
    "base_interval",
    "PositionTable",
    "position_table",
    "remove_index",
    "shift_system",
    "combined_prefix_len",
    "combined_cycle_len",
    "periodic_from",
]

# Largest segment or graph table built: the product of the first m
# alphabet sizes (times the samples per cylinder for a graph).  Larger
# requests are refused up front rather than run unbounded.  It lives here,
# not in `analysis`, so that the CLI can bound its arguments without
# loading the table code.
MAX_TABLE_ROWS = 1 << 20


class SignPattern(_Value):
    """Membership of positions in the negative-sign set.

    Member positions carry sign factor -1, non-members +1.
    """

    __slots__ = _fields = ("membership",)

    def __init__(self, membership):
        # Items are held as bools, normalized again, so that two patterns
        # with the same `member` function are equal.  A sequence of bools
        # is normalized already, as every re-indexed membership is.
        if isinstance(membership, EventuallyPeriodicSeq):
            prefix, cycle = membership.prefix, membership.cycle
            if all(type(item) is bool for item in prefix + cycle):
                object.__setattr__(self, "membership", membership)
                return
        else:
            prefix, cycle = membership
        object.__setattr__(self, "membership", EventuallyPeriodicSeq(
            tuple(map(bool, prefix)), tuple(map(bool, cycle))))

    @classmethod
    def none(cls):
        return cls(EventuallyPeriodicSeq((), (False,)))

    @classmethod
    def odd(cls):
        return cls(EventuallyPeriodicSeq((), (True, False)))

    @classmethod
    def even(cls):
        return cls(EventuallyPeriodicSeq((), (False, True)))

    @classmethod
    def explicit(cls, prefix, cycle):
        return cls((prefix, cycle))

    def member(self, n):
        return bool(self.membership.at(n))

    def has_members(self):
        return any(self.membership.prefix) or any(self.membership.cycle)


def rho(signs, n):
    """1 at member positions, 2 elsewhere."""
    return 1 if signs.member(n) else 2


def sign_factor(signs, n):
    """(-1)**rho(n): -1 at member positions, +1 elsewhere."""
    return -1 if signs.member(n) else 1


def _store(system, seq, signs):
    """Store a system's base or column sequence seq and its sign pattern,
    then its combined prefix length P and combined cycle length L, which
    are computed once, when it is built, and are not fields."""
    membership = signs.membership
    for name, value in zip(system.__slots__, (
            seq, signs, max(len(seq.prefix), len(membership.prefix)),
            lcm(len(seq.cycle), len(membership.cycle)))):
        object.__setattr__(system, name, value)


class CantorSystem(_Value):
    __slots__ = ("base", "signs", "_prefix_len", "_cycle_len")
    _fields = __slots__[:2]

    kind = "cantor"

    def __init__(self, base, signs):
        _store(self, base, signs)

    def base_at(self, n):
        return self.base.at(n)

    def max_digit(self, n):
        return self.base.at(n) - 1

    def term_value(self, n, d):
        return Fraction(d, self.base.at(n))

    def digit_weight(self, n, d):
        return Fraction(1, self.base.at(n))

    def digit_ints(self, n, d):
        """(term_num, weight_num, den) of digit d at position n."""
        return d, 1, self.base.at(n)


class QTildeColumn(_Value):
    """One weight column: entries in (0,1) that sum to 1.

    Digit i against this column contributes the cumulative sum of the
    entries strictly below i and scales the remaining tail by entries[i].
    The column is held as its integers: `ints` holds each digit's
    (term_num, weight_num, den), its term and weight over the column's
    least common denominator.  `ints` is computed once, at construction,
    and equality and hashing read it, so (1/4, 3/4) and "2/8", "6/8" make
    equal columns.  `entries` is a view derived from `ints` as reduced
    `Fraction`s, for callers outside the package and for repr.

    `QTildeColumn(entries)` takes anything `Fraction()` accepts (Fractions,
    "p/q" strings, floats); the document parser builds a column from its
    literals' integer pairs with `_from_pairs`.  Both go through the one
    builder `_set_ints`.
    """

    __slots__ = _fields = ("ints",)

    def __init__(self, entries):
        fractions = [e if isinstance(e, Fraction) else Fraction(e) for e in entries]
        self._set_ints([(f.numerator, f.denominator) for f in fractions])

    @classmethod
    def _from_pairs(cls, pairs):
        """The column whose entries are p/q for the integer pairs (p, q),
        q > 0, not necessarily reduced."""
        column = object.__new__(cls)
        column._set_ints(pairs)
        return column

    def _set_ints(self, pairs):
        if not pairs:
            raise ValueError("column must have at least one entry")
        # The lcm of the given denominators over the gcd it shares with
        # every numerator is the entries' least common denominator.
        _, dens = zip(*pairs)
        den = lcm(*dens)
        nums = [p * (den // q) for p, q in pairs]
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [num // g for num in nums]
        object.__setattr__(self, "ints", tuple(
            zip(accumulate(nums, initial=0), nums, repeat(den))))

    def __repr__(self):
        return f"{type(self).__qualname__}(entries={self.entries!r})"

    def __reduce__(self):
        return type(self), (self.entries,)

    @property
    def entries(self):
        """The entries as reduced Fractions."""
        return tuple(Fraction(weight, den) for _, weight, den in self.ints)

    @property
    def max_digit(self):
        return len(self.ints) - 1

    def cumulative(self, i):
        if not 0 <= i <= self.max_digit:
            raise DigitRangeError(f"digit {i} outside column alphabet 0..{self.max_digit}")
        term, _, den = self.ints[i]
        return Fraction(term, den)


class QTildeSystem(_Value):
    __slots__ = ("columns", "signs", "_prefix_len", "_cycle_len")
    _fields = __slots__[:2]

    kind = "qtilde"

    def __init__(self, columns, signs):
        _store(self, columns, signs)

    def column_at(self, n):
        return self.columns.at(n)

    def max_digit(self, n):
        return self.columns.at(n).max_digit

    def term_value(self, n, d):
        return self.columns.at(n).cumulative(d)

    def digit_weight(self, n, d):
        _, weight, den = self._column(n, d).ints[d]
        return Fraction(weight, den)

    def digit_ints(self, n, d):
        """(term_num, weight_num, den) of digit d at position n."""
        return self._column(n, d).ints[d]

    def _column(self, n, d):
        """The column at position n, once digit d is known to be in its
        alphabet."""
        col = self.columns.at(n)
        if not 0 <= d <= col.max_digit:
            raise DigitRangeError(f"digit {d} outside column alphabet 0..{col.max_digit}")
        return col


class Interval(_Value):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi


# Records that are only ever returned are NamedTuples.  Value types are
# `_Value`s instead: a tuple equals any tuple with the same items, whatever
# its type.
class Violation(NamedTuple):
    path: str
    message: str

    def __str__(self):
        return f"{self.message} at $.{self.path}"


class ValidationReport(NamedTuple):
    problems: tuple

    @property
    def ok(self):
        return not self.problems

    def __str__(self):
        return "OK" if self.ok else "; ".join(str(p) for p in self.problems)


def combined_prefix_len(system):
    return system._prefix_len


def combined_cycle_len(system):
    return system._cycle_len


def periodic_from(system, start, period):
    """True when the system (alphabets, weights, signs) is `period`-periodic
    at every position >= start.  Its sequences are held normalized, so this
    holds exactly when start lies past the combined prefix P and the
    combined cycle L divides period."""
    return period >= 1 and start > system._prefix_len and period % system._cycle_len == 0


def validate(system):
    """Structural validation; violations are reported, never raised."""
    problems = []
    if isinstance(system, CantorSystem):
        for region, items in (("base.prefix", system.base.prefix),
                              ("base.cycle", system.base.cycle)):
            for i, q in enumerate(items):
                if not isinstance(q, int) or q < 2:
                    problems.append(Violation(f"{region}[{i}]",
                                              f"base entry must be an integer >= 2, got {q!r}"))
    elif isinstance(system, QTildeSystem):
        for region, items in (("columns.prefix", system.columns.prefix),
                              ("columns.cycle", system.columns.cycle)):
            for i, col in enumerate(items):
                for j, (_, w, den) in enumerate(col.ints):
                    if not 0 < w < den:
                        # str(Fraction(w, den)), clipped, for entries of any length
                        g = gcd(w, den)
                        entry = _int_str(w // g) if g == den else _pair_str(w // g, den // g)
                        problems.append(Violation(
                            f"{region}[{i}][{j}]",
                            f"column entry not in (0, 1): {_clip(entry)}"))
                term, w, den = col.ints[-1]
                if term + w != den:
                    problems.append(Violation(f"{region}[{i}]", "column sum != 1"))
        cycle = system.columns.cycle
        if prod(max(w for _, w, _ in col.ints) for col in cycle) >= prod(
                col.ints[0][2] for col in cycle):
            problems.append(Violation("columns.cycle",
                                      "cycle max-entry product must be < 1"))
    else:
        problems.append(Violation("", f"unknown system type {type(system).__name__}"))
    return ValidationReport(tuple(problems))


def _max_digits(system, first, count):
    """Max digits at positions first, ..., first + count - 1."""
    if isinstance(system, QTildeSystem):
        return [len(col.ints) - 1 for col in system.columns.items(first, count)]
    return [q - 1 for q in system.base.items(first, count)]


def _extreme_digits(max_digits, members):
    """The most negative and most positive digits at positions with the
    given max digits and sign memberships: the max digit at member
    positions and 0 elsewhere, and the mirror image.  This greedy rule is
    the one definition of the extreme streams, which the position table
    and `dual_representation` read.  It gives the exact inf and sup on
    Cantor and positive column systems; the exact hull of sign-variable
    column systems will replace it here."""
    return ([top if member else 0 for top, member in zip(max_digits, members)],
            [0 if member else top for top, member in zip(max_digits, members)])


def _sign_variable_columns(system):
    """True for a column system with a member sign position.  Its digit
    weights differ within a column, so its cylinders may overlap or leave
    gaps, and the greedy extreme streams need not be its inf and sup."""
    return isinstance(system, QTildeSystem) and system.signs.has_members()


def _digit_arrays(system, data, members, digits):
    """Integer (term_num, weight_num, den, sign) arrays of the digits over
    slices of the system already read: data holds the bases or columns
    at the digits' positions, members their sign memberships."""
    s = [-1 if member else 1 for member in members]
    if isinstance(system, QTildeSystem):
        ints = [col.ints[d] for col, d in zip(data, digits)]
        t, w, c = zip(*ints) if ints else ((), (), ())
    else:
        t, w, c = digits, [1] * len(digits), data
    return t, w, c, s


def _position_arrays(system, digits, first=1):
    """Integer (term_num, weight_num, den, sign) arrays of the digits at
    positions first, first + 1, ..., as `series` sums them.  The system's
    bases or columns and signs are read as slices.  The digits must lie in
    their alphabets, and are not checked: numbers are checked when built,
    and `cylinder` and `affine_on_cylinder` check their prefixes first."""
    size = len(digits)
    seq = system.columns if isinstance(system, QTildeSystem) else system.base
    return _digit_arrays(system, seq.items(first, size),
                         system.signs.membership.items(first, size), digits)


class PositionTable(NamedTuple):
    """Per-position data of a system for positions 1..P+L, where P is the
    combined prefix length and L the combined cycle length; position
    n > P reads slot P + (n - P - 1) mod L.

    Every value is held as integers.  Slot i (position i + 1) holds the max
    digit, the sign factor and, for Cantor systems, the base q; column
    systems hold their column's `ints` (each digit's term_num, weight_num
    and den) and the decode pieces (lo, hi, d, term_num, weight_num, den)
    with lo and hi over the slot's `piece_dens` entry, sorted by (lo, hi, d),
    with the piece owning the upper end in `tops`.  `tails[n]` is the
    residual interval after position n (n = 0..P+L) as reduced
    (lo_num, lo_den, hi_num, hi_den): the values after n of the two
    extreme streams of `_extreme_digits`, folded by
    `series._suffix_values`.  That rule is where the exact hull of
    sign-variable column systems will enter.
    """

    prefix_len: int
    cycle_len: int
    max_digits: tuple
    signs: tuple
    tails: tuple
    bases: tuple = ()
    columns: tuple = ()
    pieces: tuple = ()
    piece_dens: tuple = ()
    tops: tuple = ()

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
        """Integer bounds of the residual interval after position n >= 0."""
        return self.tails[self.slot(n) + 1 if n else 0]

    def interval(self, n):
        """Interval of residual values available after position n >= 0."""
        lo_num, lo_den, hi_num, hi_den = self.tail(n)
        return Interval(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))

    @classmethod
    def build(cls, system):
        prefix_len = combined_prefix_len(system)
        cycle_len = combined_cycle_len(system)
        # The base or column sequence and the sign membership are read
        # once each; everything else is derived from those two slices.
        size = prefix_len + cycle_len
        cantor = isinstance(system, CantorSystem)
        data = (system.base if cantor else system.columns).items(1, size)
        members = system.signs.membership.items(1, size)
        max_digits = [q - 1 for q in data] if cantor else [len(col.ints) - 1 for col in data]
        lows, highs = _extreme_digits(max_digits, members)
        _, _, _, signs = low_arrays = _digit_arrays(system, data, members, lows)
        lo_tails = _suffix_values(*low_arrays, prefix_len)
        hi_tails = _suffix_values(*_digit_arrays(system, data, members, highs), prefix_len)
        head = (prefix_len, cycle_len, tuple(max_digits), tuple(signs),
                tuple(lo + hi for lo, hi in zip(lo_tails, hi_tails)))
        if cantor:
            return cls(*head, bases=tuple(data))
        columns = tuple(col.ints for col in data)
        # Digit d's piece is s*t/c + (w/c)*[lo, hi], held over the slot's
        # denominator c*lo_den*hi_den.
        pieces = tuple(
            tuple(sorted((((s * t * lo_d + w * lo_n) * hi_d, (s * t * hi_d + w * hi_n) * lo_d,
                           d, t, w, c)
                          for d, (t, w, c) in enumerate(column)),
                         key=lambda piece: piece[:3]))
            for s, column, (lo_n, lo_d), (hi_n, hi_d)
            in zip(signs, columns, lo_tails[1:], hi_tails[1:]))
        piece_dens = tuple(column[0][2] * lo_d * hi_d
                           for column, (_, lo_d), (_, hi_d)
                           in zip(columns, lo_tails[1:], hi_tails[1:]))
        tops = tuple(max(p, key=lambda piece: (piece[1], -piece[2])) for p in pieces)
        return cls(*head, columns=columns, pieces=pieces, piece_dens=piece_dens, tops=tops)


# Beyond 64 systems a table is rebuilt in O(P + L); a larger cache only
# keeps more tables alive.
@lru_cache(maxsize=64)
def position_table(system):
    """The system's PositionTable (built in O(P + L), cached)."""
    return PositionTable.build(system)


@lru_cache(maxsize=4096)
def base_interval(system):
    """Exact values of the two extreme digit streams of
    `_extreme_digits` (the max digit at member positions and 0 elsewhere,
    and the mirror image), read from the position table.  They are the
    infimum and supremum on Cantor and positive column systems; the exact
    hull of sign-variable column systems will change that one rule."""
    return position_table(system).interval(0)


def _reindexed(system, op):
    """The system with op, an `EventuallyPeriodicSeq` method call, applied
    to its base or column sequence and to its sign membership."""
    signs = SignPattern(op(system.signs.membership))
    if isinstance(system, CantorSystem):
        return CantorSystem(op(system.base), signs)
    return QTildeSystem(op(system.columns), signs)


def shift_system(system, m):
    """System seen by the digit tail after dropping the first m positions."""
    if m < 0:
        raise ValueError("shift must be >= 0")
    if m == 0:
        return system
    return _reindexed(system, methodcaller("shifted", m))


def remove_index(system, m):
    """System with position m deleted from both the base/column sequence
    and the sign membership."""
    if m < 1:
        raise ValueError("positions are 1-based")
    return _reindexed(system, methodcaller("removed", m))

"""Exact summation of eventually periodic weighted series.

Every value the package handles is rational, and every infinite sum in
scope reduces to a finite explicit part plus a geometrically contracting
periodic tail, so exact closed forms exist.  The one summation primitive
is `_affine`, the integer affine map of a run of positions, joined by
`_compose` alone; `_periodic_sum` adds a periodic tail.  Evaluation, the
closed forms, cylinders and the position table all sum through them.
The public `geometric_block_sum` and `periodic_tail_sum` work on
`Fraction`s and are the tests' independent reference.  `_Value` is the
base of the immutable value types.
"""

from fractions import Fraction
from math import prod
from operator import attrgetter

from .errors import DivergentSeriesError

__all__ = [
    "EventuallyPeriodicSeq",
    "geometric_block_sum",
    "periodic_tail_sum",
]


def _normalize(prefix, cycle):
    prefix = tuple(prefix)
    cycle = tuple(cycle)
    if not cycle:
        raise ValueError("cycle must be nonempty")
    # Reduce the cycle to its primitive period.
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            cycle = cycle[:d]
            break
    # Absorb the prefix items that the cycle already produces: the j-th
    # item from the end matches when it equals the cycle read backwards.
    # Dropping k items shifts the cycle phase by k, hence the rotation.
    n = len(cycle)
    k = 0
    while k < len(prefix) and prefix[-1 - k] == cycle[-1 - k % n]:
        k += 1
    r = n - k % n
    return prefix[:len(prefix) - k], cycle[r:] + cycle[:r]


def _slice(prefix, cycle, first, count):
    """The items at positions first, ..., first + count - 1 of the
    sequence prefix, cycle, cycle, ..., as a list: a slice of the prefix,
    then the cycle read from its phase at the first position past the
    prefix."""
    if first < 1:
        raise ValueError("positions are 1-based")
    if count < 0:
        raise ValueError("count must be >= 0")
    out = list(prefix[first - 1:first - 1 + count])
    rest = count - len(out)
    if rest:
        phase = (first + len(out) - len(prefix) - 1) % len(cycle)
        repeats = -(-(phase + rest) // len(cycle))
        out += (cycle * repeats)[phase:phase + rest]
    return out


class _Value:
    """An immutable value over the fields named in `_fields`, which its
    `__init__` takes in that order, checks and stores with
    `object.__setattr__`; `__slots__` may hold more that equality ignores.
    Equality, hash and repr read the fields as a frozen dataclass's do: a
    value equals only an instance of its own class, hashes as the tuple of
    its fields, and shows them by name.

    The value types are not frozen dataclasses because each command is a
    process that creates them at start-up: without a bytecode cache the 9
    types took 0.25 ms of `import cantorshift.cli` against 7.1 ms as
    dataclasses (Python 3.11.7), and no module now imports `dataclasses`
    or `inspect`.  Nor are they NamedTuples, which equal any tuple with the
    same items."""

    __slots__ = ()

    def __init_subclass__(cls):
        # The tuple of the fields, called as self._key(self).
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickle and deepcopy rebuild the value through its constructor.
        return type(self), self._key(self)


class EventuallyPeriodicSeq(_Value):
    """A sequence with a finite prefix followed by a repeating cycle.

    Instances are normalized on construction (primitive cycle, minimal
    prefix), so two sequences are equal exactly when they are equal as
    functions of the position.
    """

    __slots__ = _fields = ("prefix", "cycle")

    def __init__(self, prefix, cycle):
        prefix, cycle = _normalize(prefix, cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    @property
    def prefix_len(self):
        return len(self.prefix)

    @property
    def cycle_len(self):
        return len(self.cycle)

    def at(self, n):
        """Item at 1-based position n."""
        if n < 1:
            raise ValueError("positions are 1-based")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    def items(self, first, count):
        """The items at positions first, ..., first + count - 1, as a list."""
        return _slice(self.prefix, self.cycle, first, count)

    def shifted(self, m):
        """Sequence whose position n holds position n+m, by `_shifted`."""
        return EventuallyPeriodicSeq(*_shifted(self.prefix, self.cycle, m))

    def removed(self, m):
        """Sequence without position m (later ones move down), by `_removed`."""
        return EventuallyPeriodicSeq(*_removed(self.prefix, self.cycle, m))


def _shifted(prefix, cycle, m):
    """The sequence prefix, cycle, cycle, ... without its first m items, as
    an unnormalized (prefix, cycle) pair; systems and digits shift by it."""
    if m < 0:
        raise ValueError("shift must be >= 0")
    pre = max(len(prefix) - m, 0)
    return _slice(prefix, cycle, m + 1, pre), _slice(prefix, cycle, m + 1 + pre, len(cycle))


def _removed(prefix, cycle, m):
    """The same sequence without its item m, as an unnormalized pair: the
    items before m, then `_shifted` by m; systems and digits lose m by it."""
    if m < 1:
        raise ValueError("positions are 1-based")
    head = _slice(prefix, cycle, 1, m - 1)
    rest, tail = _shifted(prefix, cycle, m)
    return head + rest, tail


def geometric_block_sum(block_sum, ratio):
    """Exact value of block_sum * (1 + ratio + ratio^2 + ...)."""
    if ratio < 0 or ratio >= 1:
        raise DivergentSeriesError(f"ratio {ratio} outside [0, 1)")
    return block_sum / (1 - ratio)


def periodic_tail_sum(term_fn, start, period):
    """Exact sum of term_fn(start) + term_fn(start+1) + ... where one
    aligned period repeats with a fixed contraction ratio.

    The caller guarantees term_fn(start + k*period + j) equals
    term_fn(start + j) * r^k for some r in [0, 1); the ratio is probed
    from the first nonzero term of the leading period.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if period < 1:
        raise ValueError("period must be >= 1")
    terms = [Fraction(term_fn(start + j)) for j in range(period)]
    block = sum(terms, Fraction(0))
    probe = next((j for j, t in enumerate(terms) if t != 0), None)
    if probe is None:
        return Fraction(0)
    ratio = Fraction(term_fn(start + period + probe)) / terms[probe]
    return geometric_block_sum(block, ratio)


# Longest run that _affine sums by its Horner loop; longer runs are
# binary-split (Haible and Papanikolaou, 1998).  In-process, summing 1500,
# 6000 and 20000 Cantor positions took 1.07, 13.1 and 120 ms by the loop
# alone and 0.55, 2.48 and 9.76 ms split (medians of 5 processes, Python
# 3.11.7 on a 2-vCPU Xeon virtual machine).  Leaves of 16 to 64 positions
# were equally fast there; 128 was slower.  At 64 every run of the verify
# suites takes the loop.
_LEAF = 64


def _affine(t, w, c, s, lo, hi):
    """The affine map x -> (a + b*x)/d of positions lo..hi-1 as integers
    (a, b, d): the backward Horner fold acc <- s_k*t_k/c_k + (w_k/c_k)*acc
    from acc = x.  Position k's term t_k and weight w_k are integers over
    its one denominator c_k > 0, so a/d is the run's signed value, b/d its
    weight product and d the product of every c_k; the caller reduces
    once.  Each Horner step multiplies a numerator as long as all the
    positions after it, so a run longer than _LEAF is binary-split into
    halves joined by `_compose`, whose products are of equal size."""
    if hi - lo <= _LEAF:
        a, d = 0, 1
        for k in range(hi - 1, lo - 1, -1):
            a = s[k] * t[k] * d + w[k] * a
            d *= c[k]
        return a, prod(w[lo:hi]), d
    mid = (lo + hi) // 2
    return _compose(_affine(t, w, c, s, lo, mid), _affine(t, w, c, s, mid, hi))


def _compose(f, g):
    """The map f(g(x)) of two affine maps as (a, b, d) integers: the map
    of f's run followed by g's."""
    a1, b1, d1 = f
    a2, b2, d2 = g
    return a1 * d2 + b1 * a2, b1 * b2, d1 * d2


def _periodic_sum(t, w, c, s, split):
    """Unreduced (num, den) of the sum with positions [0, split) explicit
    and [split, n) one full period that repeats forever, for the arrays'
    length n and 0 <= split <= n, each repetition scaled by the product of
    the period's weights.  Arrays as for _affine.  The tail is the fixed
    point pa/(pd - pb) of the period's map, which exists when its ratio
    pb/pd lies in [0, 1) or its sum pa is 0, and the explicit part's map
    applied to it is the sum."""
    pa, pb, pd = _affine(t, w, c, s, split, len(t))
    if pa and not 0 <= pb < pd:
        raise DivergentSeriesError("tail ratio outside [0, 1)")
    num, _, den = _compose(_affine(t, w, c, s, 0, split), (pa, 0, pd - pb if pa else 1))
    return num, den


"""Exact summation of eventually periodic weighted series.

Every value the package handles is rational, and every infinite sum in
scope reduces to a finite explicit part plus a geometrically contracting
periodic tail, so exact closed forms exist.  The one summation kernel
(`_fold`, `_periodic_sum`) takes each position's term and weight as
integers over one denominator, works on integer numerators over one
running denominator, and leaves the single reduction to a `Fraction` to
its caller.  `_suffix_values` folds the same arrays into the value after
every position, reduced at each step.  The public `geometric_block_sum`
and `periodic_tail_sum` work on `Fraction`s and are the tests'
independent reference.  `_Value` is the base of the immutable value
types.
"""

from fractions import Fraction
from math import gcd, prod
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
    its fields, and shows them by name."""

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
        """Sequence whose position n holds this sequence's position n+m."""
        if m < 0:
            raise ValueError("shift must be >= 0")
        if m == 0:
            return self
        preperiod = max(len(self.prefix) - m, 0)
        return EventuallyPeriodicSeq(self.items(m + 1, preperiod),
                                     self.items(m + 1 + preperiod, len(self.cycle)))

    def removed(self, m):
        """Sequence with position m deleted (later positions move down)."""
        if m < 1:
            raise ValueError("positions are 1-based")
        preperiod = max(m - 1, len(self.prefix))
        return EventuallyPeriodicSeq(
            self.items(1, m - 1) + self.items(m + 1, preperiod - m + 1),
            self.items(preperiod + 2, len(self.cycle)),
        )


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


def _fold(t, w, c, s, lo, hi, acc_n, acc_d):
    """Unreduced (num, den) of the backward Horner fold
    acc <- s_k*t_k/c_k + (w_k/c_k)*acc over positions hi-1 down to lo,
    starting from acc = acc_n/acc_d.  Position k's term t_k and weight w_k
    are integers over its one denominator c_k > 0, so each step is integer
    arithmetic and the caller reduces once.  While acc is 0 its denominator
    restarts at 1, so a run of zero terms does not grow it."""
    for k in range(hi - 1, lo - 1, -1):
        if acc_n:
            acc_n = s[k] * t[k] * acc_d + w[k] * acc_n
            acc_d *= c[k]
        else:
            acc_n, acc_d = s[k] * t[k], c[k]
    return acc_n, acc_d


def _periodic_sum(t, w, c, s, split):
    """Unreduced (num, den) of the sum with positions [0, split) explicit
    and [split, n) one full period that repeats forever, each repetition
    scaled by the product of the period's weights.  Arrays as for _fold."""
    n = len(t)
    if not 0 <= split <= n:
        raise ValueError("split out of range")
    tail_n, tail_d = 0, 1
    if split < n:
        block_n, block_d = _fold(t, w, c, s, split, n, 0, 1)
        if block_n != 0:
            rn, rd = prod(w[split:]), prod(c[split:])
            if rn < 0 or rn >= rd:
                raise DivergentSeriesError("tail ratio outside [0, 1)")
            tail_n, tail_d = block_n * rd, block_d * (rd - rn)
    return _fold(t, w, c, s, 0, split, tail_n, tail_d)


def _suffix_values(t, w, c, s, split):
    """Reduced (num, den) of the sum from each position k = 0..n on, for
    the series of `_periodic_sum`: positions [0, split) explicit and
    [split, n) one full period that repeats forever, so entry n equals
    entry split.  Each step reduces by a gcd: the unreduced fold grows by
    every denominator it passes, and a decode that compares against these
    bounds was measured 4x slower without the reduction."""
    num, den = _periodic_sum(t[split:], w[split:], c[split:], s[split:], 0)
    g = gcd(num, den)
    values = [(num // g, den // g)]
    for k in range(len(t) - 1, -1, -1):
        num, den = values[-1]
        num, den = s[k] * t[k] * den + w[k] * num, c[k] * den
        g = gcd(num, den)
        values.append((num // g, den // g))
    return values[::-1]

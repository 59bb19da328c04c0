"""Shift operators on represented numbers.

Three operators act on digit streams:

* shift / iterate_shift drop the leading position(s), digits and system
  together;
* generalized_shift deletes one interior position m, which maps the
  number into the system with index m removed.

The digit-deletion route and the closed-form route (an affine expression
in the number's value) are implemented independently and must agree
exactly; that equality is the package's central verifiable identity.

Two sign conventions exist for deletion over signed systems:

* DIGIT: every surviving digit keeps its own sign factor (membership is
  deleted along with the position);
* POSITION: signs are recomputed from the new positions; admissible only
  for alternating Cantor systems (members exactly at odd positions),
  where it matches the original alternating-series definition.
"""

from enum import Enum
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .errors import ExpansionError, VariantError
from .numbers import (
    _digit_pair,
    _digits,
    _prefix_ints,
    RepresentedNumber,
    cycle_tail,
    digit_at,
    evaluate,
    normalize_stream,
    same_number,
)
from .series import _removed, _shifted
from .systems import (
    CantorSystem,
    SignPattern,
    remove_index,
    shift_system,
    sign_factor,
)

__all__ = [
    "ShiftVariant",
    "PrefixSums",
    "shift",
    "iterate_shift",
    "generalized_shift",
    "closed_form_value",
    "prefix_sums",
    "compose_removals",
    "TheoremReport",
    "verify_theorem_identities",
]


class ShiftVariant(str, Enum):
    DIGIT = "digit"
    POSITION = "position"


def _is_alternating(system):
    return isinstance(system, CantorSystem) and system.signs == SignPattern.odd()


def _require_admissible(system, variant):
    if variant == ShiftVariant.POSITION and not _is_alternating(system):
        raise VariantError(
            "position-signed deletion is only defined for alternating "
            "Cantor systems (members exactly at odd positions)"
        )


def shift(num):
    """Drop the first digit and the first system position."""
    return iterate_shift(num, 1)


def iterate_shift(num, m):
    """Drop the first m digits and system positions: the digits are
    re-indexed by `series._shifted`, the rule `shift_system` applies to
    the system, and normalized over the shifted system.

    The value satisfies the exact decomposition
    x = (prefix digits, zero tail) + value(shifted) * prod_{j<=m} w_j.
    """
    if m < 0:
        raise ValueError("shift count must be >= 0")
    system2 = shift_system(num.system, m)
    prefix, cycle = _shifted(*_digit_pair(num), m)
    return RepresentedNumber(system2, normalize_stream(system2, prefix, cycle_tail(cycle)))


def generalized_shift(num, m, variant=ShiftVariant.DIGIT):
    """Delete digit and position m: the digits are re-indexed by
    `series._removed`, the rule `remove_index` applies to the system, and
    normalized over the new system."""
    if m < 1:
        raise ValueError("positions are 1-based")
    system = num.system
    _require_admissible(system, variant)
    if variant == ShiftVariant.POSITION:
        # base loses position m; signs stay attached to positions
        system2 = CantorSystem(system.base.removed(m), SignPattern.odd())
    else:
        system2 = remove_index(system, m)
    prefix, cycle = _removed(*_digit_pair(num), m)
    return RepresentedNumber(system2, normalize_stream(system2, prefix, cycle_tail(cycle)))


def _deletion_map(v, w, den, t, wd, c, s, variant):
    """The deletion of position m on one rank-m cylinder, as unreduced
    integers (slope_num, slope_den, intercept_num, intercept_den) with
    positive denominators: v/den and w/den are the signed value and weight
    product of the digits below m; t/c, wd/c and s the term, weight and
    sign of the digit at m.  The slope is 1/w_m = c/wd, negated for
    position-signed deletion; a Cantor digit d has t, wd, c = d, 1, q_m, so
    its slope is q_m or -q_m.  The intercept is
    value - slope*(value + s*term*weight), over wd*den."""
    sigma = -1 if variant == ShiftVariant.POSITION else 1
    return sigma * c, wd, v * wd - sigma * (v * c + s * t * w), wd * den


def _cylinder_map(system, digits, variant):
    """`_deletion_map` of position m on the rank-m cylinder of the given m
    digits: `_prefix_ints` of the digits below m, then the last digit's
    integers at m.  `closed_form_value` passes a number's first m digits
    and `analysis.affine_on_cylinder` its checked prefix; the tail digits
    are never read, so the work is O(m), as the surgery's is."""
    m = len(digits)
    return _deletion_map(*_prefix_ints(system, digits[:-1]), *system.digit_ints(m, digits[-1]),
                         sign_factor(system.signs, m), variant)


def closed_form_value(num, m, variant=ShiftVariant.DIGIT):
    """Value of the deletion image computed from x and the first m digits
    alone, without digit surgery: the `_cylinder_map` of those digits
    applied to x, slope*x + intercept as one Fraction."""
    if m < 1:
        raise ValueError("positions are 1-based")
    _require_admissible(num.system, variant)
    x = evaluate(num)
    sn, sd, tn, td = _cylinder_map(num.system, _digits(num, 1, m), variant)
    xn, xd = x.numerator, x.denominator
    return Fraction(sn * xn * td + tn * sd * xd, sd * xd * td)


class PrefixSums(NamedTuple):
    """Signed prefix sum below position m and the re-weighted tail whose
    denominators skip q_m; over Cantor systems
    x = g + sign_m * i_m / (q_1...q_m) + zeta / q_m holds exactly."""

    g: Fraction
    zeta: Fraction


def prefix_sums(num, m):
    if m < 1:
        raise ValueError("positions are 1-based")
    if not isinstance(num.system, CantorSystem):
        raise ExpansionError("prefix sums are defined for Cantor systems")
    x = evaluate(num)
    digits = _digits(num, 1, m)
    v, w, den = _prefix_ints(num.system, digits[:-1])
    g, inv = Fraction(v, den), Fraction(w, den)
    q_m = num.system.base_at(m)
    s_m = sign_factor(num.system.signs, m)
    zeta = q_m * (x - g - s_m * digits[-1] * inv / q_m)
    return PrefixSums(g, zeta)


def compose_removals(num, indices, variant=ShiftVariant.DIGIT):
    """Delete the digits with the given original labels.

    Removals are applied at the indices in decreasing order so that each
    deletion targets the intended original position.
    """
    indices = tuple(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("indices must be strictly increasing")
    out = num
    for m in reversed(indices):
        out = generalized_shift(out, m, variant)
    return out


class TheoremReport(NamedTuple):
    """Pass/fail record for the composition identities of the deletion
    operator over positive Cantor systems."""

    shift_compose: bool          # shift after m-fold deletion at 2 equals m+1 shifts
    subsequence: bool            # k_n - n shifts after deleting labels k_1..k_n equals k_n shifts
    consecutive_adjusted: bool   # consecutive run: k_1 - 1 shifts close the gap
    consecutive_printed: bool    # the k_1 + 1 exponent (recorded, expected to fail)
    residual: bool               # x - sigma_m(x) decomposition

    @property
    def expected_ok(self):
        return (
            self.shift_compose
            and self.subsequence
            and self.consecutive_adjusted
            and self.residual
        )


def _same_rep(a, b):
    return same_number(a, b) and evaluate(a) == evaluate(b)


def _shift_compose_sides(num, m):
    """(a) shift o (delete at 2)^m = iterate_shift(m + 1): both sides."""
    probe = num
    for _ in range(m):
        probe = generalized_shift(probe, 2)
    return shift(probe), iterate_shift(num, m + 1)


def _subsequence_sides(num, indices):
    """(b) iterate_shift(k_n - n) o compose_removals(k_1..k_n) = iterate_shift(k_n)."""
    k_n = indices[-1]
    return (iterate_shift(compose_removals(num, indices), k_n - len(indices)),
            iterate_shift(num, k_n))


def _consecutive_sides(num, run):
    """(c) for a consecutive run k_1..k_1+n-1: k_1 - 1 shifts after its
    removal, the printed k_1 + 1 shifts (expected to differ) and
    iterate_shift(k_1+n-1), which the first equals."""
    composed = compose_removals(num, run)
    return (iterate_shift(composed, run[0] - 1), iterate_shift(composed, run[0] + 1),
            iterate_shift(num, run[-1]))


def _residual_sides(num, m):
    """(d) x - sigma_m(x) = i_m w_m + iterate_shift(x, m)(1 - q_m) w_m with
    w_m = 1/(q_1...q_m): both sides."""
    system = num.system
    q_m = system.base_at(m)
    w_m = Fraction(1, prod(system.base_at(k) for k in range(1, m + 1)))
    return (evaluate(num) - closed_form_value(num, m),
            digit_at(num, m) * w_m + evaluate(iterate_shift(num, m)) * (1 - q_m) * w_m)


def verify_theorem_identities(num, m=2, indices=(2, 5)):
    """Check the composition identities by exact value and digit
    comparison.  `num` must live over a positive Cantor system."""
    system = num.system
    if not isinstance(system, CantorSystem) or system.signs.has_members():
        raise ExpansionError("the composition identities assume a positive Cantor system")
    indices = tuple(indices)
    shift_compose = _same_rep(*_shift_compose_sides(num, m))
    subsequence = _same_rep(*_subsequence_sides(num, indices))
    k1 = indices[0]
    adjusted, printed, target = _consecutive_sides(num, tuple(range(k1, k1 + len(indices))))
    consecutive_adjusted = _same_rep(adjusted, target)
    consecutive_printed = _same_rep(printed, target)

    lhs_d, rhs_d = _residual_sides(num, m)
    residual = lhs_d == rhs_d

    return TheoremReport(
        shift_compose, subsequence, consecutive_adjusted, consecutive_printed, residual
    )

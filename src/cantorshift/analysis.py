"""The deletion operator as a point function on the representable
interval: piecewise-affine structure, continuity classification, and
exact derivative checks.

On every rank-m cylinder the operator agrees with an affine map of
slope 1/w_m, the reciprocal of the weight of the digit at m, negated for
position-signed deletion.  A Cantor digit has weight 1/q_m, so the slope
is q_m (digit-signed) or -q_m (position-signed alternating).
Discontinuities occur exactly at the two-representation points whose dual
pair flips at position m.

Two independent formulas give the image.  `segment_table` and
`affine_on_cylinder` build each cylinder's affine map from its digit
prefix (`operators._deletion_map`), and `graph_samples` applies those
rows.  `point_image` reads the image of a single point off the residuals
of its canonical decode, without summing its digit prefix.  Its integer
core, `_images_ints`, decodes a list of points of one table together;
`point_image` passes a list of one.

Tables are built, sorted and sampled in integers (`_segment_ints`,
`_row_samples`): every rank-m cylinder's ends share one denominator per
end, so `Fraction` appears only in the public wrappers.
"""

from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import OutOfIntervalError
from .decoding import (
    _digit_steps,
    _representable_table,
    cylinder,
    dual_representation,
    position_table,
)
from .numbers import _check_digits, _digits, evaluate
from .operators import (
    ShiftVariant,
    _cylinder_map,
    _deletion_map,
    _require_admissible,
    closed_form_value,
)
from .systems import MAX_TABLE_ROWS, Interval

__all__ = [
    "AffineMap",
    "ContinuityReport",
    "affine_on_cylinder",
    "segment_table",
    "continuity_at",
    "numeric_derivative",
    "graph_samples",
    "point_image",
]


class AffineMap(NamedTuple):
    slope: Fraction
    intercept: Fraction

    def apply(self, x):
        return self.slope * x + self.intercept


class ContinuityReport(NamedTuple):
    kind: str  # "continuous" | "jump"
    left_limit: Fraction
    right_limit: Fraction
    jump: Fraction  # right - left; 0 when continuous


def point_image(system, x, m, variant=ShiftVariant.DIGIT):
    """Deletion image of the point x, read off its canonical decode.

    With y_k the decode residual after k digits and W the weight product
    of the digits below m, x = V + W*y_{m-1} and the image is
    V + sigma*W*y_m, that is x - W*(y_{m-1} - sigma*y_m), with sigma = +1
    for DIGIT and -1 for POSITION.  The digit prefix is never re-summed,
    and the residuals and W stay integer pairs until the one result: x is
    the one point of a batch of `_images_ints`."""
    _require_admissible(system, variant)
    if m < 1:
        raise ValueError("positions are 1-based")
    x = Fraction(x)
    sigma = -1 if variant == ShiftVariant.POSITION else 1
    return Fraction(*_images_ints(_representable_table(system, x), [x.numerator],
                                  x.denominator, m, sigma)[0])


def _images_ints(table, x_nums, x_den, m, sigma):
    """The integer core of `point_image`: the unreduced (num, den),
    den > 0, of the image at every point x_nums[k]/x_den, as a list of
    pairs, with sigma = +1 (DIGIT) or -1 (POSITION).  The points lie in
    the table's representable interval, over any positive denominator;
    `point_image` passes a list of one.  The points are decoded together,
    one `_digit_steps` call per position.  A position's digits share one
    denominator c_n, so the weight product W of the digits below m has
    one denominator for all points; a Cantor digit's weight numerator is
    1, and a column point's numerator is the product of the weights of
    the digits the steps returned."""
    y_nums, y_dens = x_nums, [x_den] * len(x_nums)
    w_nums = [1] * len(x_nums)
    w_den = 1
    bases, columns = table.bases, table.columns
    for n in range(1, m):
        i = table.slot(n)
        digits, y_nums, y_dens = _digit_steps(table, n, y_nums, y_dens)
        if bases:
            w_den *= bases[i]
        else:
            column = columns[i]
            w_den *= column[0][2]
            w_nums = [w_num * column[d][1] for w_num, d in zip(w_nums, digits)]
    _, z_nums, z_dens = _digit_steps(table, m, y_nums, y_dens)
    images = []
    for x_num, w_num, y_num, y_den, z_num, z_den in zip(x_nums, w_nums, y_nums, y_dens,
                                                        z_nums, z_dens):
        diff_num, diff_den = y_num * z_den - sigma * z_num * y_den, y_den * z_den
        images.append((x_num * w_den * diff_den - x_den * w_num * diff_num,
                       x_den * w_den * diff_den))
    return images


def affine_on_cylinder(system, prefix_digits, variant=ShiftVariant.DIGIT):
    """Affine map agreeing with the deletion image on the rank-m cylinder
    of the given m digits: their `operators._cylinder_map`, once they are
    checked against the system's alphabets."""
    digits = list(prefix_digits)
    if not digits:
        raise ValueError("prefix must contain at least one digit")
    _require_admissible(system, variant)
    _check_digits(system, 1, digits)
    sn, sd, tn, td = _cylinder_map(system, digits, variant)
    return AffineMap(Fraction(sn, sd), Fraction(tn, td))


def _check_table_size(system, m, per_cylinder=1):
    """Refuse, before any work, a table of more than MAX_TABLE_ROWS rows:
    the product of the first m alphabet sizes times `per_cylinder`."""
    rows = per_cylinder
    for n in range(1, m + 1):
        rows *= system.max_digit(n) + 1
        if rows > MAX_TABLE_ROWS:
            raise ValueError(f"table too large: more than {MAX_TABLE_ROWS} rows at rank {m}")


def _cylinder_rows(system, m, variant):
    """The rank-m rows in lexicographic digit order, in integers over
    shared denominators: (rows, d_lo, d_hi), one row
    (lo_num, hi_num, slope_num, slope_den, intercept_num, intercept_den)
    per digit prefix, its cylinder being [lo_num/d_lo, hi_num/d_hi].

    A position has one denominator c_n for all its digits, so every rank-m
    prefix has the denominator den_m = c_1...c_m, and every cylinder ends
    in the same residual interval tail(m) = [lo/lo_den, hi/hi_den]; hence
    d_lo = den_m*lo_den and d_hi = den_m*hi_den.  A row's ends are its
    prefix map v + w*x applied to the two ends of tail(m), with weight
    w > 0; the table's tail(m) is ordered, so every row is.  The map is
    `_deletion_map`'s, unreduced.  The prefixes are walked one level at a
    time: a node holds the signed value v and weight product w of its
    digit prefix over den, the product of its positions' denominators, and
    each level extends every node by every digit of the next position, in
    digit order, so the rows come out lexicographic."""
    table = position_table(system)
    lo_num, lo_den, hi_num, hi_den = table.tail(m)
    nodes, den = [(0, 1)], 1
    for n in range(1, m + 1):
        i = table.slot(n)
        s = table.signs[i]
        digits = [table.digit_ints(i, d) for d in range(table.max_digits[i] + 1)]
        if n < m:
            nodes = [(v * c + s * t * w, w * wd) for v, w in nodes for t, wd, c in digits]
            den *= digits[0][2]
    rows = []
    for v, w in nodes:
        for t, wd, c in digits:
            v_m, w_m = v * c + s * t * w, w * wd
            rows.append((v_m * lo_den + w_m * lo_num, v_m * hi_den + w_m * hi_num,
                         *_deletion_map(v, w, den, t, wd, c, s, variant)))
    den_m = den * digits[0][2]
    return rows, den_m * lo_den, den_m * hi_den


def _segment_ints(system, m, variant=ShiftVariant.DIGIT):
    """`_cylinder_rows` sorted by interval position: stably by
    (lo_num, hi_num), which orders the rows as (lo, hi) does, ties
    included, since d_lo and d_hi are shared and positive.  Tables over
    MAX_TABLE_ROWS rows are refused with ValueError."""
    _require_admissible(system, variant)
    if m < 1:
        raise ValueError("prefix must contain at least one digit")
    _check_table_size(system, m)
    rows, d_lo, d_hi = _cylinder_rows(system, m, variant)
    rows.sort(key=itemgetter(0, 1))
    return rows, d_lo, d_hi


def segment_table(system, m, variant=ShiftVariant.DIGIT):
    """One (cylinder interval, affine map) entry per rank-m digit prefix,
    sorted by interval position.  Tables over MAX_TABLE_ROWS rows are
    refused with ValueError."""
    rows, d_lo, d_hi = _segment_ints(system, m, variant)
    return [(Interval(Fraction(lo, d_lo), Fraction(hi, d_hi)),
             AffineMap(Fraction(sn, sd), Fraction(tn, td)))
            for lo, hi, sn, sd, tn, td in rows]


def continuity_at(system, m, num, variant=ShiftVariant.DIGIT):
    """One-sided limits of the deletion image at the point represented by
    `num`.  Points with a single representation are continuity points;
    at a dual pair the two representations supply the one-sided limits
    (the most-negative-tail side is the limit from above)."""
    if num.system != system:
        raise ValueError("number does not live over the given system")
    info = dual_representation(num)
    if info is None:
        v = closed_form_value(num, m, variant)
        return ContinuityReport("continuous", v, v, Fraction(0))
    beta_side = num if info.side == "beta" else info.partner
    gamma_side = info.partner if info.side == "beta" else num
    right = closed_form_value(beta_side, m, variant)
    left = closed_form_value(gamma_side, m, variant)
    jump = right - left
    return ContinuityReport("jump" if jump != 0 else "continuous", left, right, jump)


def numeric_derivative(system, m, num, step, variant=ShiftVariant.DIGIT):
    """Central difference (f(x+h) - f(x-h)) / 2h, exact.  Both sample
    points must stay strictly inside the rank-m cylinder of `num`, where
    the image is affine, so the result equals the cylinder slope."""
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    cyl = cylinder(system, _digits(num, 1, m))
    x = evaluate(num)
    if not (cyl.lo < x - step and x + step < cyl.hi):
        raise OutOfIntervalError(
            f"step {step} crosses the rank-{m} cylinder [{cyl.lo}, {cyl.hi}] around {x}"
        )
    upper = point_image(system, x + step, m, variant)
    lower = point_image(system, x - step, m, variant)
    return (upper - lower) / (2 * step)


def _row_samples(rows, d_lo, d_hi, samples):
    """(points, x_den), one point (x_num, y_num, y_den) per sample in row
    order: the j-th of S = samples in [lo/d_lo, hi/d_hi] is
    ((S+1-j)*lo*d_hi + j*hi*d_lo) / x_den over the shared
    x_den = (S+1)*d_lo*d_hi, and its image slope*x + intercept is over
    slope_den*x_den*intercept_den.  `graph` and the `segments` suite
    sample by it."""
    k = samples + 1
    x_den = k * d_lo * d_hi
    points = []
    for lo, hi, sn, sd, tn, td in rows:
        start, step = k * lo * d_hi, hi * d_lo - lo * d_hi
        y_den, y_off = sd * x_den * td, tn * sd * x_den
        for j in range(1, k):
            x = start + j * step
            points.append((x, sn * x * td + y_off, y_den))
    return points, x_den


def _graph_ints(system, m, samples_per_cylinder, variant=ShiftVariant.DIGIT):
    """`graph_samples` in integers: `_row_samples` sorted stably by x_num."""
    if samples_per_cylinder < 2:
        raise ValueError("need at least 2 samples per cylinder")
    _check_table_size(system, m, samples_per_cylinder)
    points, x_den = _row_samples(*_segment_ints(system, m, variant), samples_per_cylinder)
    points.sort(key=itemgetter(0))
    return points, x_den


def graph_samples(system, m, samples_per_cylinder, variant=ShiftVariant.DIGIT):
    """Exact (x, image) pairs: equally spaced interior samples of every
    rank-m cylinder, each mapped by its own row of `segment_table`, sorted
    by x.  Where rows overlap (sign-variable column systems), every row's
    samples carry that row's image, not the canonically decoded one."""
    points, x_den = _graph_ints(system, m, samples_per_cylinder, variant)
    return [(Fraction(x, x_den), Fraction(y, y_den)) for x, y, y_den in points]

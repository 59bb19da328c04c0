import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from cantorshift import (
    DigitRangeError,
    EventuallyPeriodicSeq,
    OutOfIntervalError,
    QTildeColumn,
    QTildeSystem,
    RepresentedNumber,
    ShiftVariant,
    affine_on_cylinder,
    base_interval,
    continuity_at,
    cycle_tail,
    closed_form_value,
    cylinder,
    evaluate,
    generalized_shift,
    graph_samples,
    numeric_derivative,
    partial_digits,
    point_image,
    segment_table,
)
from cantorshift import analysis, decoding, numbers, operators, verify
from cantorshift.analysis import AffineMap, _images_ints
from cantorshift.operators import _deletion_map
from cantorshift.decoding import position_table
from cantorshift.verify import _segments_ok
from cantorshift.sampling import (
    rand_cantor_system,
    rand_dual_case,
    rand_number,
    rand_qtilde_system,
    rand_segment_system,
)
from helpers import cantor
from helpers import ALT, DEC, NEG, QT, mk

POSITION = ShiftVariant.POSITION


class TestAffineOnCylinder:
    def test_decimal(self):
        affine = affine_on_cylinder(DEC, (1, 2))
        assert (affine.slope, affine.intercept) == (10, Fraction(-11, 10))
        assert affine.apply(Fraction(123, 1000)) == Fraction(13, 100)

    def test_alternating_position_signed(self):
        affine = affine_on_cylinder(ALT, (1,), POSITION)
        assert (affine.slope, affine.intercept) == (-2, -1)

    def test_column_system(self):
        affine = affine_on_cylinder(QT, (1,))
        assert (affine.slope, affine.intercept) == (Fraction(4, 3), Fraction(-1, 3))

    def test_seeded_maps(self):
        # slope, intercept and the image of the cylinder's left end on seeded
        # rank-2 cylinders of the four segment-system flavours
        rng = random.Random(2103)
        got = []
        for t in range(6):
            system = rand_segment_system(rng, t % 4)
            digits = [rng.randrange(0, system.max_digit(k) + 1) for k in (1, 2)]
            affine = affine_on_cylinder(system, digits)
            got.append(tuple(map(str, (affine.slope, affine.intercept,
                                       affine.apply(cylinder(system, digits).lo)))))
        assert got == [("5", "-2", "0"), ("5", "3/5", "-1/5"), ("5/3", "-5/12", "0"),
                       ("11", "25/4", "-5/8"), ("5", "-8/5", "2/5"), ("3", "-1", "7/16")]

    @pytest.mark.parametrize("system, digits", [
        (cantor((), (3,)), (7,)),
        (cantor((), (3,)), (-1,)),
        (cantor((2,), (3,)), (2, 1)),   # out of range below position m
        (cantor((2,), (3,)), (1, -2)),
        (QT, (2,)),
        (QT, (-1,)),
        (QT, (-1, 0)),
        (QT, (1, 5)),
    ])
    def test_digits_outside_the_alphabet_refused(self, system, digits):
        # the same refusal as the cylinder of those digits
        with pytest.raises(DigitRangeError):
            cylinder(system, digits)
        with pytest.raises(DigitRangeError):
            affine_on_cylinder(system, digits)


class TestSegmentTable:
    def test_decimal_rank_one(self):
        table = segment_table(DEC, 1)
        assert len(table) == 10
        assert all(affine.slope == 10 for _, affine in table)
        assert all(interval.width == Fraction(1, 10) for interval, _ in table)

    def test_alternating_reversed_digit_order(self):
        table = segment_table(ALT, 1, POSITION)
        assert len(table) == 2
        assert all(affine.slope == -2 for _, affine in table)
        # digit 1 owns the left segment under the negative leading sign
        left, right = table[0][0], table[1][0]
        assert left.hi == right.lo
        one = affine_on_cylinder(ALT, (1,), POSITION)
        assert table[0][1] == one

    def test_column_widths_and_slopes(self):
        table = segment_table(QT, 1)
        assert [interval.width for interval, _ in table] == [Fraction(1, 4), Fraction(3, 4)]
        assert [affine.slope for _, affine in table] == [4, Fraction(4, 3)]

    def test_tiling_and_collinearity_random_cantor(self):
        rng = random.Random(31)
        for _ in range(10):
            system = rand_cantor_system(rng, max_q=6, signs="any")
            m = rng.randrange(1, 4)
            table = segment_table(system, m)
            expected = 1
            for j in range(1, m + 1):
                expected *= system.base_at(j)
            assert len(table) == expected
            interval = base_interval(system)
            assert table[0][0].lo == interval.lo
            assert table[-1][0].hi == interval.hi
            for (a, _), (b, _) in zip(table, table[1:]):
                assert a.hi == b.lo
            for interval_m, affine in table[:: max(1, len(table) // 7)]:
                xs = [interval_m.lo + interval_m.width * Fraction(j, 4) for j in (1, 2, 3)]
                ys = [point_image(system, x, m) for x in xs]
                assert all(y == affine.apply(x) for x, y in zip(xs, ys))


def _product_table(system, m, variant):
    # the table built leaf by leaf from cylinder() and affine_on_cylinder()
    alphabets = [range(system.max_digit(n) + 1) for n in range(1, m + 1)]
    return sorted(((cylinder(system, digits), affine_on_cylinder(system, digits, variant))
                   for digits in product(*alphabets)),
                  key=lambda e: (e[0].lo, e[0].hi))


class TestSegmentTableWalk:
    def test_digit_variant_equals_leafwise_table(self):
        rng = random.Random(47)
        for t in range(24):
            signs = "none" if t % 2 == 0 else "any"
            system = (rand_cantor_system(rng, max_q=5, signs=signs) if t % 4 < 2
                      else rand_qtilde_system(rng, max_den=10, signs=signs))
            for m in (1, 2, 3):
                assert segment_table(system, m) == _product_table(system, m, ShiftVariant.DIGIT)

    def test_position_variant_equals_leafwise_table(self):
        rng = random.Random(53)
        for _ in range(8):
            system = rand_cantor_system(rng, max_q=5, signs="odd")
            for m in (1, 2, 3):
                assert segment_table(system, m, POSITION) == _product_table(system, m, POSITION)

    def test_oversized_tables_refused_before_the_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the table walk ran")

        monkeypatch.setattr(analysis, "_cylinder_rows", walk)
        with pytest.raises(ValueError, match="rows"):
            segment_table(cantor((), (10**12,)), 1)
        with pytest.raises(ValueError, match="rows"):
            segment_table(DEC, 7)
        with pytest.raises(ValueError, match="rows"):
            graph_samples(DEC, 1, analysis.MAX_TABLE_ROWS)

    def test_largest_allowed_table(self):
        # 2**20 rows of base 2 pass the check; only the count is computed here
        analysis._check_table_size(cantor((), (2,)), 20)
        with pytest.raises(ValueError):
            analysis._check_table_size(cantor((), (2,)), 21)


def _column_twin(system):
    # the Cantor base q becomes the uniform column (1/q, ..., 1/q)
    def column(q):
        return QTildeColumn((Fraction(1, q),) * q)

    return QTildeSystem(EventuallyPeriodicSeq(tuple(map(column, system.base.prefix)),
                                              tuple(map(column, system.base.cycle))),
                        system.signs)


class TestUniformColumnTwin:
    """A Cantor system and its uniform-column twin give the same value to
    every digit stream, so every route agrees on the two: the deletion map
    with slope 1/w_m, and the integer Cantor decode step against the
    column piece scan."""

    def test_every_route_agrees(self):
        rng = random.Random(61)
        for t in range(150):
            system = rand_cantor_system(rng, max_q=6, signs="none" if t % 3 == 0 else "any")
            twin = _column_twin(system)
            num = rand_number(rng, system, max_prefix=8)
            twin_num = RepresentedNumber(twin, num.digits)
            m = rng.randrange(1, 4)
            assert evaluate(twin_num) == evaluate(num)
            assert closed_form_value(twin_num, m) == closed_form_value(num, m)
            assert (evaluate(generalized_shift(twin_num, m))
                    == evaluate(generalized_shift(num, m)))
            assert segment_table(twin, m) == segment_table(system, m)
            # a cylinder endpoint (the half-open tie rule) and an interior point
            digits = [rng.randrange(system.max_digit(n) + 1) for n in range(1, m + 1)]
            cyl = cylinder(system, digits)
            for x in (cyl.lo, cyl.lo + cyl.width * Fraction(rng.randrange(1, 8), 8)):
                assert point_image(twin, x, m) == point_image(system, x, m)
                assert partial_digits(twin, x, m + 4) == partial_digits(system, x, m + 4)


def _old_route_image(system, x, m, variant):
    # the route point_image replaced: canonical digits, then the cylinder map
    return affine_on_cylinder(system, partial_digits(system, x, m), variant).apply(x)


class TestPointImage:
    """point_image reads the image off decode's residuals; the cylinder map
    of the canonically decoded prefix is the independent oracle."""

    @pytest.mark.parametrize("flavor", [0, 1, 2, 3, "alternating"], ids=[
        "positive-cantor", "signed-cantor", "positive-column", "signed-column",
        "alternating-position"])
    def test_equals_cylinder_map_of_decoded_prefix(self, flavor):
        rng = random.Random(67)
        for _ in range(10):
            if flavor == "alternating":
                system, variant = rand_cantor_system(rng, max_q=5, signs="odd"), POSITION
            else:
                system, variant = rand_segment_system(rng, flavor), ShiftVariant.DIGIT
            m = rng.randrange(1, 4)
            rows = segment_table(system, m, variant)
            for interval, _ in rng.sample(rows, min(len(rows), 12)):
                inner = interval.lo + interval.width * Fraction(rng.randrange(1, 16), 16)
                # cylinder endpoints exercise the half-open tie rule
                for x in (interval.lo, inner, interval.hi):
                    try:
                        expected = _old_route_image(system, x, m, variant)
                    except OutOfIntervalError:
                        # a sign-variable column system may leave x undecodable
                        with pytest.raises(OutOfIntervalError):
                            point_image(system, x, m, variant)
                        continue
                    assert point_image(system, x, m, variant) == expected

    def test_no_prefix_resummation(self, monkeypatch):
        expected = _old_route_image(ALT, Fraction(1, 5), 2, POSITION)
        _refuse_prefix_routes(monkeypatch)
        assert point_image(DEC, Fraction(123, 1000), 2) == Fraction(13, 100)
        assert point_image(ALT, Fraction(1, 5), 2, POSITION) == expected


def _refuse_prefix_routes(monkeypatch):
    # every route that decodes a prefix again or re-sums it fails if reached
    def refuse(*args):
        raise AssertionError("a digit prefix was decoded or summed again")

    for module, name in ((analysis, "_cylinder_map"), (operators, "_cylinder_map"),
                         (operators, "_prefix_ints"),
                         (numbers, "_prefix_ints"), (decoding, "_prefix_ints"),
                         (decoding, "partial_digits"), (analysis, "point_image")):
        monkeypatch.setattr(module, name, refuse)


class TestImageInts:
    """The integer core of point_image, and the segments suite built on it."""

    @pytest.mark.parametrize("flavor", [0, 1, 2, 3, "alternating"], ids=[
        "positive-cantor", "signed-cantor", "positive-column", "signed-column",
        "alternating-position"])
    def test_equals_point_image(self, flavor):
        rng = random.Random(73)
        for _ in range(10):
            if flavor == "alternating":
                system, variant = rand_cantor_system(rng, max_q=5, signs="odd"), POSITION
            else:
                system, variant = rand_segment_system(rng, flavor), ShiftVariant.DIGIT
            sigma = -1 if variant == POSITION else 1
            table = position_table(system)
            m = rng.randrange(1, 4)
            rows = segment_table(system, m, variant)
            points, undecodable = [], []
            for interval, _ in rng.sample(rows, min(len(rows), 8)):
                x = interval.lo + interval.width * Fraction(rng.randrange(1, 8), 8)
                try:
                    expected = point_image(system, x, m, variant)
                except OutOfIntervalError:
                    # a sign-variable column system may leave x outside its
                    # base interval, or undecodable
                    try:
                        _images_ints(table, [x.numerator], x.denominator, m, sigma)
                    except OutOfIntervalError:
                        undecodable.append(x)
                    continue
                points.append(x)
                # the point in lowest terms and unreduced, k/d as 2k/2d and 6k/6d
                for scale in (1, 2, 6):
                    [(num, den)] = _images_ints(table, [scale * x.numerator],
                                                scale * x.denominator, m, sigma)
                    assert den > 0 and Fraction(num, den) == expected
            # the batch over one shared denominator, unreduced by 1, 2 and 6,
            # gives each point the pair of the one-point case
            den = lcm(*(x.denominator for x in points + undecodable))
            for scale in (1, 2, 6):
                nums = [int(x * den) * scale for x in points]
                assert _images_ints(table, nums, scale * den, m, sigma) == [
                    _images_ints(table, [num], scale * den, m, sigma)[0] for num in nums]
                if undecodable:
                    with pytest.raises(OutOfIntervalError):
                        _images_ints(table, nums + [int(undecodable[0] * den) * scale],
                                     scale * den, m, sigma)

    def test_segments_suite_decodes_every_point(self, monkeypatch):
        """The suite steps the three points of every row, at position 1 and at m."""
        steps, stepped = analysis._digit_steps, {}

        def counting(table, n, y_nums, y_dens):
            stepped[n] = stepped.get(n, 0) + len(y_nums)
            return steps(table, n, y_nums, y_dens)

        monkeypatch.setattr(analysis, "_digit_steps", counting)
        for flavor, m in ((0, 3), (2, 2)):
            system, m, count = self._segments_case(flavor, m)
            stepped.clear()
            assert _segments_ok(system, m, count)
            assert stepped[1] == stepped[m] == 3 * count

    def _segments_case(self, flavor=0, m=2):
        system = rand_segment_system(random.Random(79), flavor)
        count = len(segment_table(system, m))
        assert _segments_ok(system, m, count)
        return system, m, count

    @pytest.mark.parametrize("flavor", [0, 2])
    def test_shifted_intercept_fails(self, flavor, monkeypatch):
        system, m, count = self._segments_case(flavor)

        def shifted(*args):
            rows, d_lo, d_hi = analysis._segment_ints(*args)
            lo, hi, sn, sd, tn, td = rows[len(rows) // 2]
            # intercept + 1/997
            rows[len(rows) // 2] = (lo, hi, sn, sd, 997 * tn + td, 997 * td)
            return rows, d_lo, d_hi

        monkeypatch.setattr(verify, "_segment_ints", shifted)
        assert _segments_ok(system, m, count) is False

    @pytest.mark.parametrize("flavor", [0, 2])
    def test_moved_lo_fails(self, flavor, monkeypatch):
        system, m, count = self._segments_case(flavor)

        def moved(*args):
            rows, d_lo, d_hi = analysis._segment_ints(*args)
            # lo + width/3 = (2*lo*d_hi + hi*d_lo) / (3*d_lo*d_hi): every lo
            # end goes over the denominator 3*d_lo*d_hi, one of them moved
            mid = len(rows) // 2
            lo, hi = rows[mid][:2]
            rows = [(row[0] * 3 * d_hi, *row[1:]) for row in rows]
            rows[mid] = (2 * lo * d_hi + hi * d_lo, *rows[mid][1:])
            return rows, 3 * d_lo * d_hi, d_hi

        monkeypatch.setattr(verify, "_segment_ints", moved)
        assert _segments_ok(system, m, count) is False

    @staticmethod
    def _failing_trials(monkeypatch, deletion_map):
        monkeypatch.setattr(analysis, "_deletion_map", deletion_map)
        result = verify.run_suite(verify.VerifyConfig("segments", trials=16, seed=1))
        assert all("error" not in f for f in result.failures)
        return [f["trial"] for f in result.failures]

    def test_kill_set_of_positive_digit_sign(self, monkeypatch):
        # every digit at m read as positively signed
        def unsigned(v, w, den, t, wd, c, s, variant):
            return _deletion_map(v, w, den, t, wd, c, 1, variant)

        assert self._failing_trials(monkeypatch, unsigned) == [1, 5, 9]

    def test_kill_set_of_inverted_slope(self, monkeypatch):
        # slope wd/c, the digit's weight, in place of its reciprocal c/wd
        def inverted(v, w, den, t, wd, c, s, variant):
            sn, sd, tn, td = _deletion_map(v, w, den, t, wd, c, s, variant)
            return wd if sn > 0 else -wd, c, tn, td

        assert self._failing_trials(monkeypatch, inverted) == [0, 1, 2, 4, 5, 6, 8, 9, 10,
                                                              12, 13, 14]


class TestContinuity:
    def test_jump_at_matching_rank(self):
        report = continuity_at(DEC, 2, mk(DEC, (2, 5)))
        assert report.kind == "jump"
        assert report.right_limit == Fraction(1, 5)
        assert report.left_limit == Fraction(3, 10)
        assert report.jump == Fraction(-1, 10)

    def test_continuous_at_other_ranks(self):
        report = continuity_at(DEC, 3, mk(DEC, (2, 5)))
        assert report.kind == "continuous"
        assert report.jump == 0
        assert report.left_limit == report.right_limit

    def test_continuous_at_single_representation_points(self):
        report = continuity_at(DEC, 2, mk(DEC, (1, 2, 3), cycle_tail((5,))))
        assert report.kind == "continuous"

    def test_seeded_reports(self):
        # one seeded dual case of each sign flavour, as first recorded
        rng = random.Random(2104)
        got = []
        for flavor in range(5):
            system, n, beta_side, _ = rand_dual_case(rng, 6, flavor)
            report = continuity_at(system, n, beta_side)
            got.append((report.kind, *map(str, (report.left_limit, report.right_limit,
                                                report.jump))))
        assert got == [("jump", "4/5", "3/5", "-1/5"), ("jump", "14/25", "9/25", "-1/5"),
                       ("jump", "41/80", "9/20", "-1/16"), ("jump", "4/5", "-1/5", "-1"),
                       ("jump", "1/5", "-4/5", "-1")]

    def test_signed_jump_magnitude(self):
        beta_side = mk(NEG, (6, 0), cycle_tail((9, 0)))
        report = continuity_at(NEG, 1, beta_side)
        assert report.kind == "jump"
        assert abs(report.jump) == 1  # 1/(empty product)


class TestNumericDerivative:
    def test_decimal_slope(self):
        got = numeric_derivative(DEC, 2, mk(DEC, (1, 2, 3)), Fraction(1, 10**4))
        assert got == 10

    def test_alternating_slope(self):
        num = mk(ALT, (1, 2))
        got = numeric_derivative(ALT, 1, num, Fraction(1, 10**4), POSITION)
        assert got == -2

    def test_column_slope(self):
        got = numeric_derivative(QT, 1, mk(QT, (1, 1)), Fraction(1, 2**10))
        assert got == Fraction(4, 3)

    def test_step_crossing_boundary_rejected(self):
        with pytest.raises(OutOfIntervalError):
            numeric_derivative(DEC, 2, mk(DEC, (1, 2, 3)), Fraction(1, 100))


class TestGraphSamples:
    def test_decimal_counts_and_lines(self):
        points = graph_samples(DEC, 1, 2)
        assert len(points) == 20
        xs = [x for x, _ in points]
        assert xs == sorted(xs)
        # each point sits on the affine piece of its own cylinder
        for interval, affine in segment_table(DEC, 1):
            for x, y in points:
                if interval.lo < x < interval.hi:
                    assert y == affine.apply(x)

    def test_alternating_sample_count(self):
        points = graph_samples(ALT, 1, 3, POSITION)
        assert len(points) == 6
        for interval, affine in segment_table(ALT, 1, POSITION):
            for x, y in points:
                if interval.lo < x < interval.hi:
                    assert y == affine.apply(x)

    def test_column_sample_count(self):
        points = graph_samples(QT, 1, 2)
        assert len(points) == 4

    def test_sign_variable_columns_sample_every_row(self, monkeypatch):
        # overlapping rows each contribute their own samples and map
        rng = random.Random(71)
        cases = [(rand_segment_system(rng, 3), rng.randrange(1, 4)) for _ in range(40)]
        expected = []
        for system, m in cases:
            pairs = []
            for interval, affine in segment_table(system, m):
                for j in (1, 2, 3):
                    x = interval.lo + interval.width * Fraction(j, 4)
                    pairs.append((x, affine.apply(x)))
            expected.append(sorted(pairs, key=lambda p: p[0]))
        _refuse_prefix_routes(monkeypatch)
        for (system, m), pairs in zip(cases, expected):
            assert graph_samples(system, m, 3) == pairs

    @pytest.mark.parametrize("samples", [2, 3, 4])
    def test_row_samples_against_fractions(self, samples):
        # sample j of a row is ((S+1-j)*lo + j*hi)/(S+1), in row order, with
        # its row's image; _graph_ints is the same points sorted stably by x
        rng = random.Random(83)
        for t in range(200):
            system, m = rand_segment_system(rng, t % 4), rng.randrange(1, 4)
            points, x_den = analysis._row_samples(*analysis._segment_ints(system, m), samples)
            expected = []
            for interval, affine in segment_table(system, m):
                for j in range(1, samples + 1):
                    x = ((samples + 1 - j) * interval.lo + j * interval.hi) / (samples + 1)
                    expected.append((x, affine.apply(x)))
            assert [(Fraction(x, x_den), Fraction(y, y_den)) for x, y, y_den in points] == expected
            assert analysis._graph_ints(system, m, samples) == (
                sorted(points, key=lambda point: point[0]), x_den)

    def test_agreement_with_digit_surgery(self):
        # the point function equals deletion surgery through decode
        from cantorshift import decode

        for x, y in graph_samples(DEC, 2, 2):
            assert y == evaluate(generalized_shift(decode(DEC, x, 24), 2))

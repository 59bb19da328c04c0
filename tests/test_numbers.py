import random
import sys
import threading
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from cantorshift import (
    AlignmentError,
    CantorSystem,
    DigitRangeError,
    DigitStream,
    InexactDecodeError,
    Interval,
    OutOfIntervalError,
    RepresentedNumber,
    SignPattern,
    TAIL_MAX,
    TAIL_ZEROS,
    affine_on_cylinder,
    base_interval,
    canonicalize,
    cycle_tail,
    cylinder,
    decode,
    digit_at,
    digits_equal,
    evaluate,
    is_quasi_rational,
    normalize_stream,
    partial_digits,
    quasi_partner,
    same_number,
)
from cantorshift import decoding, numbers
from cantorshift.decoding import PositionTable, _digit_steps, position_table
from cantorshift.numbers import (
    _digits,
    _prefix_ints,
    _tail_period,
)
from cantorshift.sampling import (
    dual_pair,
    rand_cantor_system,
    rand_number,
    rand_qtilde_system,
    rand_segment_system,
    rand_stream,
)
from cantorshift.systems import (
    _position_arrays,
    combined_cycle_len,
    combined_prefix_len,
    periodic_from,
    sign_factor,
)
from helpers import ALT, DEC, FACT, NEG, QT, cantor, digit_fractions, mk, qtilde


class TestDigitAt:
    def test_prefix(self):
        assert digit_at(mk(DEC, (1, 2, 3)), 2) == 2

    def test_max_tail(self):
        assert digit_at(mk(DEC, (2, 4), TAIL_MAX), 5) == 9

    def test_cycle_tail(self):
        assert digit_at(mk(NEG, (), cycle_tail((9, 0))), 3) == 9


class TestEvaluate:
    def test_decimal(self):
        assert evaluate(mk(DEC, (1, 2, 3))) == Fraction(123, 1000)

    def test_mixed_radix(self):
        assert evaluate(mk(FACT, (1, 2, 3))) == Fraction(23, 24)

    def test_alternating(self):
        assert evaluate(mk(ALT, (1, 2))) == Fraction(-1, 6)

    def test_column_system(self):
        assert evaluate(mk(QT, (1, 1))) == Fraction(7, 16)

    def test_nega_decimal_periodic_tail(self):
        assert evaluate(mk(NEG, (6, 0), cycle_tail((9, 0)))) == Fraction(-67, 110)

    def test_max_tail_attains_supremum(self):
        assert evaluate(mk(DEC, (), TAIL_MAX)) == 1
        assert evaluate(mk(QT, (), TAIL_MAX)) == 1

    def test_digit_out_of_range(self):
        with pytest.raises(DigitRangeError):
            evaluate(mk(DEC, (10,)))

    def test_misaligned_cycle_tail(self):
        # the sign pattern has period 2; a one-digit cycle cannot repeat it
        with pytest.raises(AlignmentError):
            evaluate(mk(NEG, (), cycle_tail((9,))))


# (system, prefix, tail, error): an out-of-alphabet prefix digit, an
# out-of-alphabet cycle digit and a cycle that does not share the system's
# period from its start, over Cantor and column systems.
INVALID_STREAMS = [
    (DEC, (3, 10), None, DigitRangeError),
    (DEC, (3,), cycle_tail((10,)), DigitRangeError),
    (NEG, (), cycle_tail((9,)), AlignmentError),
    (FACT, (1,), cycle_tail((1,)), AlignmentError),  # starts inside the base prefix
    (QT, (2,), None, DigitRangeError),
    (QT, (), cycle_tail((1, 2)), DigitRangeError),
    (qtilde([(Fraction(1, 2), Fraction(1, 2))], [(Fraction(1, 4), Fraction(3, 4))]),
     (), cycle_tail((1,)), AlignmentError),
    (qtilde((), [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]),
     (), cycle_tail((1, 0, 1)), AlignmentError),
]


class TestConstruction:
    @pytest.mark.parametrize("system, prefix, tail, error", INVALID_STREAMS)
    def test_invalid_stream_refused_when_built(self, system, prefix, tail, error):
        with pytest.raises(error):
            RepresentedNumber(system, DigitStream(prefix, tail or TAIL_ZEROS))

    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_tail_period_is_the_joint_period(self, make):
        # a valid tail starts at or after the system's combined prefix P and
        # repeats with a multiple of its combined cycle length L
        rng = random.Random(31)
        for _ in range(60):
            system = make(rng, signs="any")
            num = rand_number(rng, system, max_prefix=6)
            start, period = _tail_period(num)
            assert start >= max(len(num.digits.prefix), combined_prefix_len(system))
            assert period % combined_cycle_len(system) == 0
            assert periodic_from(system, start + 1, period)
            assert all(digit_at(num, n) == digit_at(num, n + period)
                       for n in range(start + 1, start + 2 * period + 1))


class TestPositionSlices:
    """Per-position data is read in slices; it must equal the per-position
    `digit_ints` and `sign_factor` route."""

    @pytest.mark.parametrize("flavor", range(4))
    def test_position_arrays_match_digit_ints(self, flavor):
        rng = random.Random(41 + flavor)
        for _ in range(40):
            system = rand_segment_system(rng, flavor)
            first = rng.randrange(1, 12)
            digits = [rng.randrange(system.max_digit(n) + 1)
                      for n in range(first, first + rng.randrange(0, 15))]
            t, w, c, s = _position_arrays(system, digits, first)
            expected = [(*system.digit_ints(n, d), sign_factor(system.signs, n))
                        for n, d in enumerate(digits, first)]
            assert list(zip(t, w, c, s)) == expected

    @pytest.mark.parametrize("system, prefix, tail, message", [
        (FACT, (1, 2, 4, 0), None, "digit 4 outside alphabet 0..3 at position 3"),
        (FACT, (1, -1, 9), None, "digit -1 outside alphabet 0..2 at position 2"),
        (FACT, (1, 1, 1, 3), cycle_tail((3, 4, 3)),
         "digit 4 outside alphabet 0..3 at position 6"),
        (FACT, (1, 2.0), None, "digit 2.0 outside alphabet 0..2 at position 2"),
        (QT, (1, 0, 2, 1), None, "digit 2 outside alphabet 0..1 at position 3"),
        (QT, (1,), cycle_tail((0, 1, 5)), "digit 5 outside alphabet 0..1 at position 4"),
    ])
    def test_first_bad_digit_is_named(self, system, prefix, tail, message):
        with pytest.raises(DigitRangeError) as info:
            RepresentedNumber(system, DigitStream(prefix, tail or TAIL_ZEROS))
        assert str(info.value) == message


class TestBoolDigits:
    """A bool is an int but not a digit.  A number with a bool digit would
    write a document its own parser refuses, so numbers, cylinders and
    cylinder maps refuse it when given it."""

    @pytest.mark.parametrize("system, prefix, tail, message", [
        (cantor((), (3,)), (True, 2), None, "digit True outside alphabet 0..2 at position 1"),
        (cantor((), (3,)), (1,), cycle_tail((2, False)),
         "digit False outside alphabet 0..2 at position 3"),
        (QT, (0, False), None, "digit False outside alphabet 0..1 at position 2"),
    ])
    def test_number_refuses_bool_digit(self, system, prefix, tail, message):
        with pytest.raises(DigitRangeError) as info:
            RepresentedNumber(system, DigitStream(prefix, tail or TAIL_ZEROS))
        assert str(info.value) == message

    @pytest.mark.parametrize("build", [cylinder, affine_on_cylinder])
    def test_cylinder_refuses_bool_digit(self, build):
        with pytest.raises(DigitRangeError) as info:
            build(FACT, (1, True))
        assert str(info.value) == "digit True outside alphabet 0..2 at position 2"


def _stream_digit(system, stream, n):
    """Digit at position n of a stream, read position by position: the
    reference for `_digits` and `normalize_stream`."""
    if n <= len(stream.prefix):
        return stream.prefix[n - 1]
    tail = stream.tail
    if tail.kind == "zeros":
        return 0
    if tail.kind == "max":
        return system.max_digit(n)
    return tail.cycle[(n - len(stream.prefix) - 1) % len(tail.cycle)]


class TestDigitSlices:
    """`_digits` reads a range of positions at once, and `digit_at` one;
    both must equal the position-by-position reference."""

    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_matches_digit_at(self, make):
        rng = random.Random(53)
        kinds = set()
        for _ in range(150):
            num = rand_number(rng, make(rng, signs="any"), max_prefix=6)
            kinds.add(num.digits.tail.kind)
            size = len(num.digits.prefix)
            # first at 1, inside the prefix, at its end and past it
            for first in (1, rng.randrange(1, size + 2), size + 1, size + rng.randrange(2, 20)):
                for count in (0, 1, rng.randrange(2, 30)):
                    expected = [_stream_digit(num.system, num.digits, n)
                                for n in range(first, first + count)]
                    assert _digits(num, first, count) == expected
                    assert [digit_at(num, n) for n in range(first, first + count)] == expected
        assert kinds == {"zeros", "max", "cycle"}

    @pytest.mark.parametrize("tail", [TAIL_ZEROS, TAIL_MAX, cycle_tail((3, 4))])
    def test_positions_are_one_based(self, tail):
        num = mk(DEC, (1, 2), tail)
        for first in (0, -3):
            with pytest.raises(ValueError, match="1-based"):
                _digits(num, first, 2)
        with pytest.raises(ValueError, match="1-based"):
            digit_at(num, 0)


class TestDecode:
    def test_terminating(self):
        assert decode(DEC, Fraction(1, 8), 8) == mk(DEC, (1, 2, 5))

    def test_boundary_prefers_zero_tail(self):
        assert decode(DEC, Fraction(1, 4), 8) == mk(DEC, (2, 5))

    def test_periodic_signed(self):
        assert decode(NEG, Fraction(-67, 110), 8) == mk(NEG, (6,), cycle_tail((0, 9)))

    def test_supremum_decodes_to_max_tail(self):
        assert decode(DEC, Fraction(1), 4) == mk(DEC, (), TAIL_MAX)
        assert decode(NEG, Fraction(1, 11), 6) == mk(NEG, (), cycle_tail((0, 9)))

    def test_repeating_cycle(self):
        assert decode(DEC, Fraction(1, 3), 4) == mk(DEC, (), cycle_tail((3,)))

    def test_out_of_interval(self):
        with pytest.raises(OutOfIntervalError):
            decode(DEC, Fraction(3, 2), 8)

    def test_depth_exhausted(self):
        with pytest.raises(InexactDecodeError):
            decode(DEC, Fraction(1, 7), 3)  # period 6 needs depth >= 6

    @pytest.mark.parametrize("p, q", [(7, 3), (23, 5), (101, 2), (701, 11)])
    def test_primitive_root_period(self, p, q):
        # q generates the units mod p, so a/p has period exactly p - 1; the
        # Cantor residuals keep the denominator p unreduced throughout, and
        # the stream closes when the residual numerator recurs
        system = cantor((), (q,))
        for a in (1, p // 2, p - 1):
            num = decode(system, Fraction(a, p), 2 * p)
            assert num.digits.prefix == ()
            assert len(num.digits.tail.cycle) == p - 1
            assert evaluate(num) == Fraction(a, p)
        with pytest.raises(InexactDecodeError):
            decode(system, Fraction(1, p), p - 2)


def _fraction_step(table, n, y):
    """The digit step on Fractions: the first (lo, hi, d) ordered piece
    s*a + w*[tail lo, tail hi] with lo <= y < hi, or the piece owning the
    upper end; then y2 = (y - s*a)/w, which must lie in the tail."""
    i = table.slot(n)
    s = table.signs[i]
    tail = table.interval(n)
    pieces = sorted((s * a + w * tail.lo, s * a + w * tail.hi, d, a, w)
                    for d in range(table.max_digits[i] + 1)
                    for a, w in [digit_fractions(table, i, d)])
    chosen = next((piece for piece in pieces if piece[0] <= y < piece[1]), None)
    if chosen is None:
        chosen = max(pieces, key=lambda piece: (piece[1], -piece[2]))
        if y != chosen[1]:
            raise OutOfIntervalError("no piece")
    _, _, d, a, w = chosen
    y2 = (y - s * a) / w
    if not tail.contains(y2):
        raise OutOfIntervalError("residual outside the tail")
    return d, y2


class TestDigitStep:
    """The integer digit step against the Fraction route."""

    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_matches_fraction_route(self, make):
        rng = random.Random(29)
        steps = 0
        for _ in range(80):
            system = make(rng, signs="any")
            table = position_table(system)
            interval = base_interval(system)
            y = interval.lo + interval.width * Fraction(rng.randrange(0, 241), 240)
            y_num, y_den = y.numerator, y.denominator
            for n in range(1, 7):
                try:
                    expected = _fraction_step(table, n, y)
                except OutOfIntervalError:
                    with pytest.raises(OutOfIntervalError):
                        _digit_steps(table, n, [y_num], [y_den])
                    break
                (d,), (next_num,), (next_den,) = _digit_steps(table, n, [y_num], [y_den])
                assert (d, Fraction(next_num, next_den)) == expected
                if table.bases:
                    assert next_den == y_den  # Cantor steps keep x's denominator
                else:
                    assert Fraction(next_num, next_den).denominator == next_den
                y, y_num, y_den = expected[1], next_num, next_den
                steps += 1
        assert steps > 300

    @pytest.mark.parametrize("flavor", [0, 1, 2, 3, "signed-cantor"], ids=[
        "positive-cantor", "signed-cantor-small", "positive-column", "signed-column",
        "signed-cantor"])
    def test_batch_matches_one_point_steps(self, flavor):
        """A batch gives each point the digit and residual pair of stepping it
        alone; a batch holding an undecodable point raises."""
        rng = random.Random(31)
        stepped = raised = 0
        for _ in range(40):
            if flavor == "signed-cantor":
                system = rand_cantor_system(rng, signs="any")
            else:
                system = rand_segment_system(rng, flavor)
            table = position_table(system)
            interval = base_interval(system)
            points = []
            for _ in range(rng.randrange(1, 9)):
                y = interval.lo + interval.width * Fraction(rng.randrange(0, 241), 240)
                scale = rng.randrange(1, 4)  # unreduced pairs too
                points.append((scale * y.numerator, scale * y.denominator))
            if rng.random() < 0.3:  # a point past the interval has no digit at 1
                y = interval.hi + interval.width / 7
                points.insert(rng.randrange(len(points) + 1), (y.numerator, y.denominator))
            for n in range(1, 7):
                alone, decodable = [], []
                for y_num, y_den in points:
                    try:
                        (d,), (next_num,), (next_den,) = _digit_steps(table, n, [y_num],
                                                                      [y_den])
                    except OutOfIntervalError:
                        continue
                    alone.append((d, next_num, next_den))
                    decodable.append((y_num, y_den))
                if len(decodable) < len(points):
                    with pytest.raises(OutOfIntervalError, match=f"at position {n}$"):
                        _digit_steps(table, n, *map(list, zip(*points)))
                    raised += 1
                    points = decodable
                if not points:
                    break
                digits, nums, dens = _digit_steps(table, n, *map(list, zip(*points)))
                assert list(zip(digits, nums, dens)) == alone
                stepped += len(points)
                points = [(y_num, y_den) for _, y_num, y_den in alone]
        assert stepped > 800 and raised >= 10


class TestCylinder:
    def test_decimal(self):
        assert cylinder(DEC, (1, 2)) == Interval(Fraction(12, 100), Fraction(13, 100))

    def test_nega_decimal(self):
        got = cylinder(NEG, (1,))
        assert got == Interval(Fraction(-6, 55), Fraction(-1, 110))
        assert got.width == Fraction(1, 10)

    def test_column_system(self):
        got = cylinder(QT, (1,))
        assert got == Interval(Fraction(1, 4), 1)
        assert got.width == Fraction(3, 4)

    def test_digit_range(self):
        with pytest.raises(DigitRangeError):
            cylinder(DEC, (10,))

    @pytest.mark.parametrize("system", [DEC, NEG, ALT, FACT, QT,
                                        qtilde((), [(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))])])
    def test_rank2_tiling(self, system):
        interval = base_interval(system)
        alphabets = [range(system.max_digit(n) + 1) for n in (1, 2)]
        cylinders = sorted(
            (cylinder(system, digits) for digits in product(*alphabets)),
            key=lambda c: c.lo,
        )
        assert cylinders[0].lo == interval.lo
        assert cylinders[-1].hi == interval.hi
        for a, b in zip(cylinders, cylinders[1:]):
            assert a.hi == b.lo
        assert sum((c.width for c in cylinders), Fraction(0)) == interval.width

    def test_cantor_width_law(self):
        rng = random.Random(3)
        for _ in range(20):
            system = cantor(
                tuple(rng.randrange(2, 9) for _ in range(rng.randrange(0, 3))),
                tuple(rng.randrange(2, 9) for _ in range(rng.randrange(1, 3))),
                SignPattern.explicit((), tuple(rng.random() < 0.5 for _ in range(2))),
            )
            n = rng.randrange(1, 5)
            digits = tuple(rng.randrange(0, system.max_digit(k) + 1) for k in range(1, n + 1))
            expected = Fraction(1)
            for k in range(1, n + 1):
                expected /= system.base_at(k)
            assert cylinder(system, digits).width == expected

    def test_positive_column_width_law(self):
        from cantorshift.sampling import rand_qtilde_system

        rng = random.Random(13)
        for _ in range(15):
            system = rand_qtilde_system(rng, signs="none")
            n = rng.randrange(1, 4)
            digits = tuple(rng.randrange(0, system.max_digit(k) + 1) for k in range(1, n + 1))
            expected = Fraction(1)
            for k in range(1, n + 1):
                expected *= system.digit_weight(k, digits[k - 1])
            assert cylinder(system, digits).width == expected


class TestLazyTails:
    """A reader rolls the residual intervals only as deep as it reads them:
    a table holds tail(0) and each interval rolled since.  Threads that
    share a table leave it as one thread would."""

    MAKERS = [lambda rng: rand_cantor_system(rng, signs="any"),
              lambda rng: rand_qtilde_system(rng, signs="none"),
              *(lambda rng, f=f: rand_segment_system(rng, f) for f in range(4))]

    def test_cylinder_and_partial_digits_roll_to_their_length(self):
        rng = random.Random(59)
        for case in range(120):
            system = self.MAKERS[case % len(self.MAKERS)](rng)
            k = rng.randrange(0, 9)
            digits = [rng.randrange(0, system.max_digit(n) + 1) for n in range(1, k + 1)]
            position_table.cache_clear()
            cylinder(system, digits)
            assert len(position_table(system)._tails) <= k + 1
            interval = base_interval(system)
            y = interval.lo + interval.width * Fraction(rng.randrange(0, 241), 240)
            position_table.cache_clear()
            try:
                partial_digits(system, y, k)
            except OutOfIntervalError:  # a sign-variable column system's gap
                pass
            assert len(position_table(system)._tails) <= k + 1

    def test_base_interval_rolls_none(self):
        rng = random.Random(61)
        for case in range(60):
            system = self.MAKERS[case % len(self.MAKERS)](rng)
            position_table.cache_clear()
            base_interval.cache_clear()
            base_interval(system)
            assert len(position_table(system)._tails) == 1

    @staticmethod
    def _in_threads(work, count=8):
        """Run work() in `count` threads released together at a tiny switch
        interval; the exceptions they raised."""
        barrier, errors = threading.Barrier(count), []

        def run():
            barrier.wait(10)
            try:
                work()
            except Exception as exc:  # returned to the caller
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return errors

    @staticmethod
    def _signed_cantor(rng, slots=400):
        return cantor((), [rng.randrange(2, 6) for _ in range(slots)],
                      SignPattern.explicit((), [rng.random() < 0.5 for _ in range(slots)]))

    def test_concurrent_rolls_of_one_table(self):
        # a roll appended twice by two threads would leave every later
        # interval one position off
        rng = random.Random(71)
        for _ in range(30):
            system = self._signed_cantor(rng)
            alone = PositionTable.build(system)
            expected = [alone.tail(n) for n in range(401)]
            table = PositionTable.build(system)
            assert self._in_threads(lambda: [table.tail(n) for n in range(0, 401, 8)]) == []
            assert table._tails == expected

    def test_concurrent_cylinders(self):
        rng = random.Random(73)
        for _ in range(10):
            system = self._signed_cantor(rng)
            depths = range(0, 400, 9)
            position_table.cache_clear()
            expected = [cylinder(system, (0,) * k) for k in depths]
            position_table.cache_clear()
            seen = []
            errors = self._in_threads(
                lambda: seen.append([cylinder(system, (0,) * k) for k in depths]))
            assert errors == [] and seen == [expected] * 8
            assert [cylinder(system, (0,) * k) for k in depths] == expected


class TestPrefixValue:
    """_prefix_ints against a plain-Fraction loop over the digits."""

    @staticmethod
    def _reference(system, digits):
        value, weight = Fraction(0), Fraction(1)
        for n, d in enumerate(digits, 1):
            sign = -1 if system.signs.member(n) else 1
            if isinstance(system, CantorSystem):
                term, w = Fraction(d, system.base_at(n)), Fraction(1, system.base_at(n))
            else:
                entries = system.column_at(n).entries
                term, w = sum(entries[:d], Fraction(0)), entries[d]
            value += sign * term * weight
            weight *= w
        return value, weight

    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_signed_prefixes_match_reference(self, make):
        rng = random.Random(17)
        for _ in range(60):
            system = make(rng, signs="explicit")
            n = rng.randrange(0, 16)
            digits = [rng.randrange(0, system.max_digit(k) + 1) for k in range(1, n + 1)]
            v, w, den = _prefix_ints(system, digits)
            assert (Fraction(v, den), Fraction(w, den)) == self._reference(system, digits)

    @pytest.mark.parametrize("tail_kind", ["zeros", "max", "cycle"])
    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_whole_periods_past_the_digit_prefix(self, make, tail_kind):
        # m runs 0-5 whole periods (and every remainder) past the position
        # where the digits and the system start to repeat
        rng = random.Random(23)
        for _ in range(12):
            system = make(rng, signs="any")
            num = rand_number(rng, system, max_prefix=5, tail_kinds=(tail_kind,))
            start, period = _tail_period(num)
            for m in range(start + 6 * period):
                v, w, den = _prefix_ints(system, _digits(num, 1, m))
                digits = [digit_at(num, n) for n in range(1, m + 1)]
                assert (Fraction(v, den), Fraction(w, den)) == self._reference(system, digits)

    @pytest.mark.parametrize("system", [ALT, QT])
    def test_empty_prefix(self, system):
        assert _prefix_ints(system, ()) == (0, 1, 1)


class TestDuality:
    def test_decimal_pair(self):
        partner = quasi_partner(mk(DEC, (2, 5)))
        assert partner == mk(DEC, (2, 4), TAIL_MAX)
        assert evaluate(partner) == Fraction(1, 4)

    def test_nega_decimal_pair(self):
        beta_side = mk(NEG, (6, 0), cycle_tail((9, 0)))
        partner = quasi_partner(beta_side)
        spec_form = mk(NEG, (7, 9), cycle_tail((0, 9)))
        assert same_number(partner, spec_form)
        assert evaluate(partner) == evaluate(beta_side) == Fraction(-67, 110)

    def test_partner_involution(self):
        num = mk(DEC, (2, 5))
        assert quasi_partner(quasi_partner(num)) == num

    def test_non_dual_cycle(self):
        assert quasi_partner(mk(DEC, (1, 2, 3), cycle_tail((5,)))) is None
        assert not is_quasi_rational(mk(DEC, (1, 2, 3), cycle_tail((5,))))

    def test_column_zero_tail_is_dual(self):
        num = mk(QT, (1,))
        assert is_quasi_rational(num)
        partner = quasi_partner(num)
        assert partner == mk(QT, (0,), TAIL_MAX)
        assert evaluate(partner) == evaluate(num) == Fraction(1, 4)

    def test_endpoints_have_single_representation(self):
        assert quasi_partner(mk(DEC, ())) is None
        assert quasi_partner(mk(DEC, (), TAIL_MAX)) is None

    def test_signed_column_systems_excluded(self):
        signed = qtilde((), [(Fraction(1, 4), Fraction(3, 4))], SignPattern.odd())
        assert quasi_partner(mk(signed, (1,))) is None

    def test_builds_no_position_table(self, monkeypatch):
        # duality reads the extreme digits straight from the system: a table
        # per fresh system would cost about a tenth of a duality trial
        def refuse(cls, system):
            raise AssertionError("dual_representation built a position table")

        monkeypatch.setattr(PositionTable, "build", classmethod(refuse))
        position_table.cache_clear()
        rng = random.Random(37)
        for flavor in (0, 1, 2):  # Cantor, signed Cantor, positive column
            for _ in range(20):
                beta, gamma = dual_pair(rng, rand_segment_system(rng, flavor),
                                        rng.randrange(1, 4))
                assert quasi_partner(beta) == gamma and quasi_partner(gamma) == beta

    def test_seeded_dual_info(self):
        # each side of a seeded pair names the other as its partner, with
        # the pair's flip position and its own side
        rng = random.Random(2105)
        positions = []
        for t in range(9):
            beta, gamma = dual_pair(rng, rand_segment_system(rng, t % 3), rng.randrange(1, 4))
            beta_info = decoding.dual_representation(beta)
            gamma_info = decoding.dual_representation(gamma)
            assert (beta_info.partner, beta_info.side) == (gamma, "beta")
            assert (gamma_info.partner, gamma_info.side) == (beta, "gamma")
            assert beta_info.position == gamma_info.position
            positions.append(beta_info.position)
        assert positions == [3, 1, 3, 1, 1, 3, 1, 1, 2]


class TestCanonicalize:
    def test_max_tail_rewrites_to_zero_tail(self):
        assert canonicalize(mk(DEC, (2, 4), TAIL_MAX)) == mk(DEC, (2, 5))

    def test_fixed_point(self):
        num = mk(DEC, (1, 2, 3))
        assert canonicalize(num) == num

    def test_signed_gamma_side_rewrites(self):
        assert canonicalize(mk(NEG, (7, 9), cycle_tail((0, 9)))) == mk(
            NEG, (6,), cycle_tail((0, 9))
        )

    def test_idempotent_and_partner_stable(self):
        rng = random.Random(5)
        for _ in range(40):
            system = cantor(
                tuple(rng.randrange(2, 7) for _ in range(rng.randrange(0, 3))),
                tuple(rng.randrange(2, 7) for _ in range(rng.randrange(1, 3))),
                SignPattern.explicit((), tuple(rng.random() < 0.5 for _ in range(2))),
            )
            prefix = tuple(rng.randrange(0, system.max_digit(n) + 1) for n in range(1, 6))
            num = mk(system, prefix)
            canon = canonicalize(num)
            assert evaluate(canon) == evaluate(num)
            assert canonicalize(canon) == canon
            partner = quasi_partner(num)
            if partner is not None:
                assert canonicalize(partner) == canon


class TestRoundTrip:
    def test_decimal_grid(self):
        for j in range(0, 101):
            v = Fraction(j, 100)
            assert evaluate(decode(DEC, v, 16)) == v

    def test_nega_decimal_grid(self):
        interval = base_interval(NEG)
        for j in range(0, 101):
            v = interval.lo + Fraction(j, 100)
            if v > interval.hi:
                break
            assert evaluate(decode(NEG, v, 24)) == v

    def test_digits_equal_across_forms(self):
        a = mk(NEG, (7,), cycle_tail((9, 0)))
        b = mk(NEG, (7, 9), cycle_tail((0, 9)))
        assert digits_equal(a, b)
        assert not digits_equal(a, mk(NEG, (7, 9), cycle_tail((0, 8))))


class TestDigitsEqualStaysLazy:
    """`digits_equal` reads each side's start plus period digits once, as a
    normalized sequence, however far max(start) + lcm(periods) lies: two
    long coprime cycles put that horizon at about 16.7M positions."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = []
        slice_digits = numbers._digits

        def counting(num, first, count):
            counts.append(count)
            return slice_digits(num, first, count)

        monkeypatch.setattr(numbers, "_digits", counting)
        return counts

    def test_coprime_cycles_read_one_period_each(self, counts):
        rng = random.Random(59)
        system = cantor((), (3,))
        a = mk(system, (), cycle_tail([0] + [rng.randrange(3) for _ in range(4092)]))
        b = mk(system, (), cycle_tail([1] + [rng.randrange(3) for _ in range(4090)]))
        # a cycle tail is its own (prefix, cycle) pair: no digit slice is read
        assert not digits_equal(a, b)
        assert counts == []
        assert digits_equal(a, mk(system, (), cycle_tail(a.digits.tail.cycle * 2)))
        assert counts == []

    def test_equal_coprime_written_cycles(self, counts):
        system = cantor((), (3,))
        assert digits_equal(mk(system, (), cycle_tail([1] * 4093)),
                            mk(system, (), cycle_tail([1] * 4091)))
        assert sum(counts) <= 8184

    def test_across_systems(self):
        binary = cantor((), (2,))
        halves = qtilde((), [(Fraction(1, 2), Fraction(1, 2))])
        assert digits_equal(mk(binary, (1, 0), cycle_tail((0, 1))),
                            mk(halves, (1, 0, 0), cycle_tail((1, 0))))
        assert digits_equal(mk(binary, (0,), TAIL_MAX), mk(halves, (0,), cycle_tail((1,))))
        assert not digits_equal(mk(binary, (1, 0), cycle_tail((0, 1))),
                                mk(halves, (1,), cycle_tail((1, 0))))


def _joint_period(system, stream):
    """(start, period): from position start + 1 on, the stream as written
    and the system repeat together with the given period."""
    period = combined_cycle_len(system)
    if stream.tail.kind == "cycle":
        period = lcm(len(stream.tail.cycle), period)
    return max(len(stream.prefix), combined_prefix_len(system)), period


def _rewritten(rng, system, stream):
    """The same digits written another way: the prefix extended by whole
    or partial periods of the tail, then the tail kept when it is named,
    or written as a cycle of one to three periods."""
    if stream.tail.kind == "max":
        start, period = _joint_period(system, stream)
    else:
        start, period = len(stream.prefix), len(stream.tail.cycle or (0,))
    split = start + rng.randrange(3 * period)
    prefix = [_stream_digit(system, stream, n) for n in range(1, split + 1)]
    if stream.tail.kind != "cycle" and rng.random() < 0.5:
        return DigitStream(prefix, stream.tail)
    size = period * rng.randrange(1, 4)
    return DigitStream(prefix, cycle_tail(
        _stream_digit(system, stream, n) for n in range(split + 1, split + size + 1)))


def _with_digit_changed(system, stream, n):
    """The stream with its digit at position n moved to the next one in
    the alphabet, cyclically."""
    split = max(n, len(stream.prefix))
    prefix = [_stream_digit(system, stream, k) for k in range(1, split + 1)]
    prefix[n - 1] = (prefix[n - 1] + 1) % (system.max_digit(n) + 1)
    tail = stream.tail
    if tail.kind == "cycle":
        tail = cycle_tail(_stream_digit(system, stream, k)
                          for k in range(split + 1, split + len(tail.cycle) + 1))
    return DigitStream(prefix, tail)


def _agree(system, a, b):
    """Digits of streams a and b agree up to max(start) + lcm(periods)."""
    (start_a, period_a), (start_b, period_b) = _joint_period(system, a), _joint_period(system, b)
    horizon = max(start_a, start_b) + lcm(period_a, period_b)
    return all(_stream_digit(system, a, n) == _stream_digit(system, b, n)
               for n in range(1, horizon + 1))


class TestNormalizeStream:
    """`normalize_stream` is a normal form: idempotent, valid over its
    system, and equal for two streams exactly when their digits agree up
    to max(start) + lcm(periods)."""

    MAKERS = [lambda rng: rand_cantor_system(rng, 6, signs="any"),
              lambda rng: rand_qtilde_system(rng, 12, signs="any"),
              *(lambda rng, f=f: rand_segment_system(rng, f) for f in range(4))]

    def test_forms_are_canonical(self):
        rng = random.Random(67)
        kinds, outcomes = set(), set()
        for case in range(3000):
            system = self.MAKERS[case % len(self.MAKERS)](rng)
            x = rand_stream(rng, system, max_prefix=6)
            if case % 3 == 0:
                y = _rewritten(rng, system, x)
            elif case % 3 == 1:
                y = rand_stream(rng, system, max_prefix=6)
            else:
                start, period = _joint_period(system, x)
                y = _with_digit_changed(system, _rewritten(rng, system, x),
                                        rng.randrange(1, start + 2 * period + 1))
            forms = [normalize_stream(system, s.prefix, s.tail) for s in (x, y)]
            for stream, form in zip((x, y), forms):
                kinds.add(stream.tail.kind)
                assert normalize_stream(system, form.prefix, form.tail) == form
                RepresentedNumber(system, form)
                assert _agree(system, stream, form)
            same = _agree(system, x, y)
            outcomes.add(same)
            assert (forms[0] == forms[1]) == same
        assert kinds == {"zeros", "max", "cycle"} and outcomes == {True, False}

    def test_max_tail_trim_equals_the_digit_by_digit_loop(self):
        # The prefix digits that a max tail repeats are trimmed off one slice
        # of max digits; the loop below pops them one lookup at a time.
        def popped(system, prefix):
            prefix = list(prefix)
            while prefix and prefix[-1] == system.max_digit(len(prefix)):
                prefix.pop()
            return tuple(prefix)

        rng = random.Random(71)
        trimmed = 0
        for case in range(600):
            system = self.MAKERS[case % len(self.MAKERS)](rng)
            x = rand_stream(rng, system, max_prefix=6, tail_kinds=("max",))
            prefix = list(x.prefix)
            prefix += [system.max_digit(n) for n in range(len(prefix) + 1,
                                                          len(prefix) + rng.randrange(0, 4) + 1)]
            expected = popped(system, prefix)
            trimmed += len(expected) < len(prefix)
            assert normalize_stream(system, prefix, TAIL_MAX) == DigitStream(expected, TAIL_MAX)
        assert trimmed > 200

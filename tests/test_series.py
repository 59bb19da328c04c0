import math
import random
from fractions import Fraction

import pytest

from cantorshift import (
    DivergentSeriesError,
    EventuallyPeriodicSeq,
    geometric_block_sum,
    periodic_tail_sum,
)
from cantorshift.series import _LEAF, _affine, _compose, _periodic_sum


class TestTermAt:
    def test_prefix_read(self):
        seq = EventuallyPeriodicSeq((2, 3, 4), (4,))
        assert seq.at(2) == 3

    def test_cycle_read(self):
        seq = EventuallyPeriodicSeq((2, 3, 4), (4,))
        assert seq.at(9) == 4

    def test_pure_cycle(self):
        seq = EventuallyPeriodicSeq((), (5, 7))
        assert seq.at(4) == 7

    def test_positions_are_one_based(self):
        seq = EventuallyPeriodicSeq((), (1,))
        with pytest.raises(ValueError):
            seq.at(0)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            EventuallyPeriodicSeq((1,), ())

    def test_agrees_with_unrolled_indexing(self):
        prefix, cycle = (9, 1, 1), (1, 2, 1)
        seq = EventuallyPeriodicSeq(prefix, cycle)
        for n in range(1, len(prefix) + 10 * len(cycle) + 1):
            if n <= len(prefix):
                expected = prefix[n - 1]
            else:
                expected = cycle[(n - len(prefix) - 1) % len(cycle)]
            assert seq.at(n) == expected


class TestNormalization:
    def test_primitive_cycle(self):
        assert EventuallyPeriodicSeq((), (4, 5, 4, 5)) == EventuallyPeriodicSeq((), (4, 5))

    def test_prefix_absorbed_into_cycle(self):
        a = EventuallyPeriodicSeq((10, 10, 10), (10,))
        b = EventuallyPeriodicSeq((), (10,))
        assert a == b

    def test_absorption_rotates_cycle(self):
        a = EventuallyPeriodicSeq((2, 5), (4, 5))
        b = EventuallyPeriodicSeq((2,), (5, 4))
        assert a == b
        for n in range(1, 12):
            assert a.at(n) == b.at(n)

    @pytest.mark.parametrize("periods", [0, 1, 7, 20000])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_long_absorbable_prefix(self, periods, r):
        # The long form repeats the cycle `periods` times more before the
        # cycle starts; both forms normalize to the same (prefix, cycle),
        # rotated back by the r cycle items they carry in their prefix.
        cycle = (4, 7, 9)
        rotated = cycle[r:] + cycle[:r]
        long = EventuallyPeriodicSeq((3, 5) + cycle * periods + cycle[:r], rotated)
        short = EventuallyPeriodicSeq((3, 5) + cycle[:r], rotated)
        assert (long.prefix, long.cycle) == (short.prefix, short.cycle) == ((3, 5), cycle)
        for n in range(1, 40):
            assert long.at(n) == short.at(n)

    def test_absorption_matches_one_item_at_a_time(self):
        rng = random.Random(11)
        for _ in range(300):
            cycle = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5)))
            prefix = tuple(rng.randrange(3) for _ in range(rng.randrange(0, 6)))
            prefix += (cycle * 3)[:rng.randrange(0, 3 * len(cycle) + 1)]
            seq = EventuallyPeriodicSeq(prefix, cycle)
            expected_prefix, expected_cycle = prefix, EventuallyPeriodicSeq((), cycle).cycle
            while expected_prefix and expected_prefix[-1] == expected_cycle[-1]:
                expected_prefix = expected_prefix[:-1]
                expected_cycle = expected_cycle[-1:] + expected_cycle[:-1]
            assert (seq.prefix, seq.cycle) == (expected_prefix, expected_cycle)


class TestItems:
    """`items` is the bulk reader: it must equal reading each position."""

    @staticmethod
    def _check(seq, first, count):
        assert seq.items(first, count) == [seq.at(n) for n in range(first, first + count)]

    def test_slices_match_positionwise_reads(self):
        seq = EventuallyPeriodicSeq((2, 3, 4, 5), (7, 8, 9))
        for first, count in [(1, 0), (9, 0), (2, 2), (1, 4),  # inside the prefix
                             (3, 5), (4, 2), (1, 11),         # across the seam
                             (5, 1), (6, 3), (40, 7),         # past the prefix
                             (2, 100), (1000, 31)]:           # many cycles
            self._check(seq, first, count)

    def test_random_sequences(self):
        rng = random.Random(71)
        for _ in range(200):
            seq = EventuallyPeriodicSeq(
                tuple(rng.randrange(5) for _ in range(rng.randrange(0, 6))),
                tuple(rng.randrange(5) for _ in range(rng.randrange(1, 6))))
            self._check(seq, rng.randrange(1, 20), rng.randrange(0, 30))

    def test_bad_arguments(self):
        seq = EventuallyPeriodicSeq((1,), (2,))
        with pytest.raises(ValueError):
            seq.items(0, 3)
        with pytest.raises(ValueError):
            seq.items(1, -1)


class TestSurgery:
    def test_shifted(self):
        seq = EventuallyPeriodicSeq((2, 3, 4), (7, 8))
        shifted = seq.shifted(2)
        for n in range(1, 15):
            assert shifted.at(n) == seq.at(n + 2)

    def test_removed(self):
        seq = EventuallyPeriodicSeq((2, 3, 4), (7, 8))
        for m in range(1, 8):
            removed = seq.removed(m)
            for n in range(1, seq.prefix_len + 3 * seq.cycle_len + 1):
                assert removed.at(n) == seq.at(n if n < m else n + 1)

    def test_random_surgery_matches_positionwise_reads(self):
        rng = random.Random(73)
        for _ in range(100):
            seq = EventuallyPeriodicSeq(
                tuple(rng.randrange(4) for _ in range(rng.randrange(0, 5))),
                tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4))))
            m = rng.randrange(1, 9)
            shifted, removed = seq.shifted(m), seq.removed(m)
            for n in range(1, 30):
                assert shifted.at(n) == seq.at(n + m)
                assert removed.at(n) == seq.at(n if n < m else n + 1)

    def test_removed_constant_sequence_unchanged(self):
        seq = EventuallyPeriodicSeq((), (10,))
        for m in (1, 5, 9):
            assert seq.removed(m) == seq


class TestGeometricBlockSum:
    def test_half(self):
        assert geometric_block_sum(Fraction(1, 2), Fraction(1, 2)) == 1

    def test_zero_block(self):
        assert geometric_block_sum(Fraction(0), Fraction(1, 4)) == 0

    def test_derived_value(self):
        assert geometric_block_sum(Fraction(3, 8), Fraction(1, 4)) == Fraction(1, 2)

    @pytest.mark.parametrize("ratio", [Fraction(1), Fraction(3, 2), Fraction(-1, 10)])
    def test_domain_errors(self, ratio):
        with pytest.raises(DivergentSeriesError):
            geometric_block_sum(Fraction(1), ratio)


class TestPeriodicTailSum:
    def test_repeating_nines_sum_to_one(self):
        assert periodic_tail_sum(lambda n: Fraction(9, 10**n), 1, 1) == 1

    def test_alternating_nega_decimal(self):
        assert periodic_tail_sum(lambda n: Fraction((-1) ** n * 9, 10**n), 1, 2) == Fraction(-9, 11)

    def test_odd_positions_only(self):
        term = lambda n: Fraction(9, 10**n) if n % 2 else Fraction(0)
        assert periodic_tail_sum(term, 1, 2) == Fraction(10, 11)

    def test_all_zero_block(self):
        assert periodic_tail_sum(lambda n: Fraction(0), 3, 4) == 0

    def test_divergent_ratio_rejected(self):
        with pytest.raises(DivergentSeriesError):
            periodic_tail_sum(lambda n: Fraction(2**n), 1, 1)

    def test_partial_sum_remainder_bound(self):
        # exact tail vs explicit partial sums: the remainder is bounded by
        # (first block magnitude) * r^K / (1 - r)
        block = [Fraction(5, 7), Fraction(-1, 3), Fraction(0)]
        ratio = Fraction(2, 5)
        term = lambda n: block[(n - 1) % 3] * ratio ** ((n - 1) // 3)
        exact = periodic_tail_sum(term, 1, 3)
        bound_scale = max(abs(b) for b in block) * 3
        for K in range(1, 8):
            partial = sum(term(n) for n in range(1, 3 * K + 1))
            assert abs(exact - partial) <= bound_scale * ratio**K / (1 - ratio)


def _random_workload(rng, n):
    t_num = [rng.randrange(-20, 21) for _ in range(n)]
    t_den = [rng.randrange(1, 20) for _ in range(n)]
    w_num = [rng.randrange(1, 10) for _ in range(n)]
    w_den = [rng.randrange(wn + 1, wn + 12) for wn in w_num]  # weights in (0, 1)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    terms = [Fraction(a, b) for a, b in zip(t_num, t_den)]
    weights = [Fraction(a, b) for a, b in zip(w_num, w_den)]
    return terms, weights, signs


def _reference_periodic(terms, weights, signs, split):
    total = Fraction(0)
    lead = Fraction(1)
    for k in range(split):
        total += signs[k] * terms[k] * lead
        lead *= weights[k]
    if split < len(terms):
        block = Fraction(0)
        w = Fraction(1)
        for k in range(split, len(terms)):
            block += signs[k] * terms[k] * w
            w *= weights[k]
        total += lead * block / (1 - w)
    return total


def _int_workload(terms, weights, signs):
    """Integer (t, w, c, s) arrays of Fraction terms and weights: each
    position's term and weight over the product of their denominators."""
    t, w, c = [], [], []
    for term, weight in zip(terms, weights):
        den = term.denominator * weight.denominator
        t.append(term.numerator * weight.denominator)
        w.append(weight.numerator * term.denominator)
        c.append(den)
    return t, w, c, list(signs)


class TestWeightedValue:
    """The integer kernel on Fraction workloads against a plain-Fraction
    reference."""

    @pytest.mark.parametrize("split_kind", ["finite", "tail", "pure_tail"])
    def test_matches_fraction_reference(self, split_kind):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(1, 12)
            work = _random_workload(rng, n)
            split = {"finite": n, "tail": rng.randrange(0, n), "pure_tail": 0}[split_kind]
            expected = _reference_periodic(*work, split)
            assert Fraction(*_periodic_sum(*_int_workload(*work), split)) == expected

    def test_divergent_tail_rejected(self):
        # weights >= 1 with a nonzero block must not be summed
        with pytest.raises(DivergentSeriesError):
            _periodic_sum(*_int_workload([Fraction(1)], [Fraction(3, 2)], [1]), 0)


def _random_int_workload(rng, n):
    """Integer (t, w, c, s) arrays: runs of zero terms, terms and weights
    whose reduced denominators differ, unreduced pairs and negative signs."""
    t, w, c, s = [], [], [], []
    for _ in range(n):
        den = rng.randrange(2, 13) * rng.choice((1, 1, 2, 6))  # often not in lowest terms
        t.append(0 if rng.random() < 0.4 else rng.randrange(-den, den + 1))
        w.append(rng.randrange(1, den))
        c.append(den)
        s.append(rng.choice((-1, 1)))
    return t, w, c, s


class TestIntegerKernel:
    """series' integer kernel against the plain-Fraction loop."""

    def test_every_split_matches_fraction_reference(self):
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randrange(0, 10)
            t, w, c, s = _random_int_workload(rng, n)
            terms = [Fraction(a, b) for a, b in zip(t, c)]
            weights = [Fraction(a, b) for a, b in zip(w, c)]
            for split in range(n + 1):
                num, den = _periodic_sum(t, w, c, s, split)
                assert den > 0
                assert Fraction(num, den) == _reference_periodic(terms, weights, s, split)


def _horner(t, w, c, s, lo, hi):
    """The plain Horner loop over positions hi-1 down to lo from 0, with
    no restart: the reference (a, d) of `_affine`."""
    a, d = 0, 1
    for k in range(hi - 1, lo - 1, -1):
        a = s[k] * t[k] * d + w[k] * a
        d *= c[k]
    return a, d


def _fraction_fold(t, w, c, s, lo, hi, acc):
    """The value of the fold over positions lo..hi-1 from acc, summed
    forward with Fractions."""
    total, lead = Fraction(0), Fraction(1)
    for k in range(lo, hi):
        total += lead * s[k] * Fraction(t[k], c[k])
        lead *= Fraction(w[k], c[k])
    return total + lead * acc


def _cantor_arrays(rng, n):
    """Integer arrays of Cantor digits: term d, weight 1, base q."""
    c = [rng.randrange(2, 13) for _ in range(n)]
    return ([rng.randrange(q) for q in c], [1] * n, c,
            [rng.choice((-1, 1)) for _ in range(n)])


def _column_arrays(rng, n):
    """Integer arrays of column digits: term and weight over a den that
    is often not their lowest common one."""
    c = [rng.choice((2, 6, 12, 30, 60)) for _ in range(n)]
    w = [rng.randrange(1, den) for den in c]
    return ([rng.randrange(den - wd + 1) for den, wd in zip(c, w)], w, c,
            [rng.choice((-1, 1)) for _ in range(n)])


class TestFold:
    """`_affine` against the Horner loop and the plain-Fraction sum, across
    the length where it switches from the loop to binary splitting.  The
    map is the loop's exactly at every length: (a, d) is the loop's pair,
    b the product of the weights and d the product of the denominators."""

    LENGTHS = sorted({*range(0, 9), _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF,
                      2 * _LEAF + 1, 3 * _LEAF + 5, 777, 1500, 2048, 3000})

    @staticmethod
    def _check(t, w, c, s, lo, hi, x=Fraction(0)):
        a, b, d = _affine(t, w, c, s, lo, hi)
        assert (a, d) == _horner(t, w, c, s, lo, hi)
        assert b == math.prod(w[lo:hi]) and d == math.prod(c[lo:hi])
        assert (a + b * x) / d == _fraction_fold(t, w, c, s, lo, hi, x)

    @pytest.mark.parametrize("arrays", [_cantor_arrays, _column_arrays])
    def test_lengths_up_to_3000(self, arrays):
        rng = random.Random(61)
        for n in self.LENGTHS:
            t, w, c, s = arrays(rng, n)
            x_d = rng.randrange(1, 50)
            self._check(t, w, c, s, 0, n)
            self._check(t, w, c, s, 0, n, Fraction(rng.randrange(-x_d, x_d + 1), x_d))
            self._check(t, w, c, s, 1, max(n - 1, 1))

    @pytest.mark.parametrize("arrays", [_cantor_arrays, _column_arrays])
    def test_compose_at_random_cut_points(self, arrays):
        rng = random.Random(79)
        for n in self.LENGTHS:
            t, w, c, s = arrays(rng, n)
            for _ in range(3):
                lo, mid, hi = sorted(rng.randrange(n + 1) for _ in range(3))
                assert _compose(_affine(t, w, c, s, lo, mid),
                                _affine(t, w, c, s, mid, hi)) == _affine(t, w, c, s, lo, hi)

    def test_zero_runs(self):
        rng = random.Random(67)
        for arrays in (_cantor_arrays, _column_arrays):
            for n in (_LEAF + 1, 2 * _LEAF + 1, 5 * _LEAF):
                for zeros in ((0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n),
                              (1, n - 1), (0, n), (n - _LEAF, n), (n - _LEAF - 1, n)):
                    t, w, c, s = arrays(rng, n)
                    t[slice(*zeros)] = [0] * (zeros[1] - zeros[0])
                    self._check(t, w, c, s, 0, n)
                    self._check(t, w, c, s, 0, n, Fraction(1, 7))

    def test_signs_of_one_sign(self):
        rng = random.Random(71)
        for sign in (1, -1):
            t, w, c, _ = _column_arrays(rng, 4 * _LEAF + 3)
            self._check(t, w, c, [sign] * len(t), 0, len(t))

    def test_sum_that_cancels_to_zero_midway(self):
        # Position k is set so that the sum from k on is 0: the map is
        # still the loop's, over the product of every c.
        rng = random.Random(73)
        for n, k in ((3 * _LEAF, _LEAF + 7), (3 * _LEAF, 3 * _LEAF - 2), (3 * _LEAF, 0),
                     (_LEAF, _LEAF // 2)):
            t, w, c, s = _column_arrays(rng, n)
            t[-1] = 1
            after = _fraction_fold(t, w, c, s, k + 1, n, Fraction(0))
            t[k], w[k], s[k] = abs(after.numerator), after.denominator, -1 if after > 0 else 1
            assert _fraction_fold(t, w, c, s, k, n, Fraction(0)) == 0
            self._check(t, w, c, s, 0, n)
            self._check(t, w, c, s, k, n)


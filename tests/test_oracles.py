"""Independent cross-checks: the series-backed evaluation path against a
plain-Fraction reimplementation built on the public series operations,
and decoding against brute-force cylinder search."""

import random
from fractions import Fraction

from cantorshift import (
    base_interval,
    cylinder,
    digit_at,
    evaluate,
    partial_digits,
    periodic_tail_sum,
    sign_factor,
)
from cantorshift.sampling import rand_cantor_system, rand_number, rand_qtilde_system
from cantorshift.systems import combined_cycle_len, combined_prefix_len
from helpers import mk


def _reference_value(num):
    """Prefix by direct Fraction accumulation, tail via periodic_tail_sum;
    the digit terms and weights come from `term_value` and `digit_weight`,
    which read the bases and column entries, so no code is shared with the
    integer kernel in series or with `QTildeColumn.ints`."""
    system = num.system
    split = max(len(num.digits.prefix), combined_prefix_len(system))
    period = combined_cycle_len(system)
    if num.digits.tail.kind == "cycle":
        period = len(num.digits.tail.cycle)

    lead = {}

    def weight_before(n):
        # product of the digit weights at positions < n
        if n not in lead:
            w = Fraction(1)
            for k in range(1, n):
                w *= system.digit_weight(k, digit_at(num, k))
            lead[n] = w
        return lead[n]

    total = Fraction(0)
    for n in range(1, split + 1):
        d = digit_at(num, n)
        total += sign_factor(system.signs, n) * system.term_value(n, d) * weight_before(n)

    def tail_term(n):
        d = digit_at(num, n)
        return sign_factor(system.signs, n) * system.term_value(n, d) * weight_before(n)

    return total + periodic_tail_sum(tail_term, split + 1, period)


def test_evaluate_matches_series_reference():
    rng = random.Random(101)
    for _ in range(150):
        system = (rand_cantor_system(rng, signs="any") if rng.random() < 0.5
                  else rand_qtilde_system(rng, signs="any"))
        num = rand_number(rng, system, max_prefix=8)
        assert evaluate(num) == _reference_value(num)


def _brute_force_digits(system, value, count):
    """Digit extraction by scanning every cylinder at each rank and picking
    the containing one under the half-open convention."""
    digits = []
    for n in range(1, count + 1):
        pieces = sorted(
            ((cylinder(system, tuple(digits) + (d,)), d)
             for d in range(system.max_digit(n) + 1)),
            key=lambda item: (item[0].lo, item[0].hi, item[1]),
        )
        chosen = None
        for interval, d in pieces:
            if interval.lo <= value < interval.hi:
                chosen = d
                break
        if chosen is None:
            top = max(pieces, key=lambda item: item[0].hi)
            assert value == top[0].hi
            chosen = top[1]
        digits.append(chosen)
    return tuple(digits)


def test_partial_digits_match_brute_force_cylinder_search():
    rng = random.Random(103)
    for _ in range(40):
        system = (rand_cantor_system(rng, max_q=6, signs="any") if rng.random() < 0.6
                  else rand_qtilde_system(rng, signs="none"))
        interval = base_interval(system)
        v = interval.lo + interval.width * Fraction(rng.randrange(0, 1201), 1200)
        assert partial_digits(system, v, 4) == _brute_force_digits(system, v, 4)


def test_evaluate_reference_anchor():
    from cantorshift import cycle_tail
    from helpers import NEG

    assert _reference_value(mk(NEG, (6, 0), cycle_tail((9, 0)))) == Fraction(-67, 110)

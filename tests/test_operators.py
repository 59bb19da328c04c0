import random
from fractions import Fraction

import pytest

from cantorshift import (
    CantorSystem,
    ExpansionError,
    RepresentedNumber,
    ShiftVariant,
    SignPattern,
    VariantError,
    closed_form_value,
    compose_removals,
    cycle_tail,
    digit_at,
    evaluate,
    generalized_shift,
    iterate_shift,
    normalize_stream,
    prefix_sums,
    remove_index,
    same_number,
    shift,
    shift_system,
    verify_theorem_identities,
)
from cantorshift import numbers, operators
from cantorshift.documents import doc_to_number
from cantorshift.sampling import (
    rand_cantor_system,
    rand_number,
    rand_positive_cantor_number,
    rand_qtilde_system,
    sign_case_pattern,
)
from helpers import ALT, DEC, FACT, NEG, QT, cantor, mk

DIGIT = ShiftVariant.DIGIT
POSITION = ShiftVariant.POSITION


class TestShift:
    def test_decimal(self):
        image = shift(mk(DEC, (1, 2, 3)))
        assert image == mk(DEC, (2, 3))
        assert evaluate(image) == Fraction(23, 100)

    def test_mixed_radix(self):
        image = shift(mk(FACT, (1, 2, 3)))
        assert image.system == cantor((3, 4), (4,))
        assert evaluate(image) == Fraction(11, 12)

    def test_alternating_signs_travel_with_positions(self):
        image = shift(mk(ALT, (1, 2)))
        assert image.system == cantor((3,), (3,), SignPattern.even())
        assert evaluate(image) == Fraction(2, 3)


def _iterate_shift_by_slicing(num, m):
    """Reference: slice the digit prefix and rotate a cycle tail by the
    number of cycle digits dropped, whatever the number's period."""
    system = shift_system(num.system, m)
    prefix, tail = num.digits.prefix, num.digits.tail
    if m > len(prefix) and tail.kind == "cycle":
        r = (m - len(prefix)) % len(tail.cycle)
        tail = cycle_tail(tail.cycle[r:] + tail.cycle[:r])
    return RepresentedNumber(system, normalize_stream(system, prefix[m:], tail))


class TestIterateShift:
    def test_decimal_tail(self):
        assert evaluate(iterate_shift(mk(DEC, (1, 2, 3, 4, 5)), 3)) == Fraction(45, 100)

    def test_identity_at_zero(self):
        # m = 0 keeps the digits and returns them in the normal form
        num = mk(FACT, (1, 2, 3))
        assert iterate_shift(num, 0) == num
        assert iterate_shift(mk(DEC, (0, 0, 1, 0, 0)), 0) == mk(DEC, (0, 0, 1))

    def test_column_decomposition(self):
        num = mk(QT, (1, 1))
        image = iterate_shift(num, 1)
        assert evaluate(image) == Fraction(1, 4)
        assert evaluate(num) == Fraction(1, 4) + evaluate(image) * Fraction(3, 4)

    def test_shift_into_cycle_tail(self):
        num = mk(NEG, (6, 0), cycle_tail((9, 0)))
        image = iterate_shift(num, 3)
        for n in range(1, 12):
            assert digit_at(image, n) == digit_at(num, n + 3)

    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_matches_slicing_reference(self, make):
        # the image is the one the stream's own slicing gives: prefix digits
        # past m, the same zeros or max tail, a cycle rotated by its phase
        rng = random.Random(53)
        for i in range(150):
            system = make(rng, signs="any")
            kind = ("zeros", "max", "cycle")[i % 3]
            num = rand_number(rng, system, max_prefix=8, tail_kinds=(kind,))
            for m in range(25):
                assert iterate_shift(num, m) == _iterate_shift_by_slicing(num, m)

    @pytest.mark.parametrize("seed", range(6))
    def test_decomposition_identity_all_flavors(self, seed):
        # x = (first m digits, zero tail) + image * prod of the m weights
        rng = random.Random(seed)
        system = rand_cantor_system(rng) if seed % 2 else rand_qtilde_system(rng)
        num = rand_number(rng, system, max_prefix=8)
        for m in range(0, 6):
            image = iterate_shift(num, m)
            head = mk(system, tuple(digit_at(num, n) for n in range(1, m + 1)))
            weight = Fraction(1)
            for n in range(1, m + 1):
                weight *= system.digit_weight(n, digit_at(num, n))
            assert evaluate(num) == evaluate(head) + evaluate(image) * weight

    def test_scaled_tail_relation(self):
        # dropping m positions scales the zero-padded tail by the inverse
        # of the first m weights
        num = mk(DEC, (1, 2, 3, 4, 5))
        padded = mk(DEC, (0, 0, 0, 4, 5))
        assert evaluate(iterate_shift(num, 3)) == 1000 * evaluate(padded)
        # column flavor: the zero-padded form is scaled by the zero-digit weights
        qnum = mk(QT, (1, 0, 1))
        qpadded = mk(QT, (0, 0, 1))
        assert evaluate(iterate_shift(qnum, 2)) == evaluate(qpadded) / (
            Fraction(1, 4) * Fraction(1, 4)
        )


class TestGeneralizedShift:
    @pytest.mark.parametrize("make", [rand_cantor_system, rand_qtilde_system])
    def test_matches_digit_function_reference(self, make):
        # digit n of the image is digit n of the number below m and digit
        # n + 1 from m on; the system is remove_index's, or the alternating
        # base with position m removed for POSITION
        rng = random.Random(67)
        for i in range(150):
            if make is rand_cantor_system and i % 5 == 0:
                system = cantor((), (rng.randrange(2, 7), rng.randrange(2, 7)), SignPattern.odd())
            else:
                system = make(rng, signs="any")
            kind = ("zeros", "max", "cycle")[i % 3]
            num = rand_number(rng, system, max_prefix=8, tail_kinds=(kind,))
            start, period = numbers._tail_period(num)
            variants = [DIGIT, POSITION] if operators._is_alternating(system) else [DIGIT]
            for variant in variants:
                for m in range(1, 25):
                    image = generalized_shift(num, m, variant)
                    if variant == POSITION:
                        assert image.system == CantorSystem(system.base.removed(m),
                                                            SignPattern.odd())
                    else:
                        assert image.system == remove_index(system, m)
                    # past the horizon both digit functions have repeated
                    image_start, image_period = numbers._tail_period(image)
                    horizon = max(start + 2 * period + m, image_start + image_period)
                    for n in range(1, horizon + 1):
                        assert digit_at(image, n) == digit_at(num, n if n < m else n + 1)

    def test_constant_alphabet_keeps_system(self):
        image = generalized_shift(mk(DEC, (1, 2, 3)), 2)
        assert image == mk(DEC, (1, 3))
        assert evaluate(image) == Fraction(13, 100)

    def test_variable_alphabet_changes_system(self):
        image = generalized_shift(mk(FACT, (1, 2, 3)), 2)
        assert image.system == cantor((2, 4), (4,))
        assert evaluate(image) == Fraction(7, 8)

    def test_alternating_two_variants(self):
        num = mk(ALT, (1, 2))
        pos = generalized_shift(num, 1, POSITION)
        dig = generalized_shift(num, 1, DIGIT)
        assert evaluate(pos) == Fraction(-2, 3)
        assert evaluate(dig) == Fraction(2, 3)
        assert pos.system.signs == SignPattern.odd()
        assert dig.system.signs == SignPattern.even()

    def test_position_variant_requires_alternating(self):
        with pytest.raises(VariantError):
            generalized_shift(mk(DEC, (1, 2, 3)), 1, POSITION)
        with pytest.raises(VariantError):
            generalized_shift(mk(QT, (1, 1)), 1, POSITION)

    def test_deletion_inside_cycle_tail(self):
        num = mk(NEG, (6, 0), cycle_tail((9, 0)))
        image = generalized_shift(num, 4)
        assert image.system == remove_index(NEG, 4)
        for n in range(1, 12):
            assert digit_at(image, n) == digit_at(num, n if n < 4 else n + 1)

    def test_variable_columns_change_the_system(self):
        from fractions import Fraction as F

        from helpers import qtilde

        system = qtilde([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]], [[F(1, 4), F(3, 4)]])
        image = generalized_shift(mk(system, (1, 0, 1)), 1)
        assert image.system != system
        # constant columns stay closed under deletion
        image_const = generalized_shift(mk(QT, (1, 0, 1)), 2)
        assert image_const.system == QT


class TestClosedForm:
    def test_positive_cantor(self):
        assert closed_form_value(mk(DEC, (1, 2, 3)), 2) == Fraction(13, 100)

    def test_alternating_position_signed(self):
        assert closed_form_value(mk(ALT, (1, 2)), 1, POSITION) == Fraction(-2, 3)

    def test_general_signed(self):
        system = cantor((), (2, 3), SignPattern.odd())
        assert closed_form_value(mk(system, (1, 2)), 1) == Fraction(2, 3)

    def test_column_system(self):
        assert closed_form_value(mk(QT, (1, 1)), 1) == Fraction(1, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_equivalence_small(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            kind = rng.randrange(3)
            if kind == 0:
                system = rand_cantor_system(rng, signs="any")
                variants = [DIGIT]
            elif kind == 1:
                system = rand_cantor_system(rng, signs="odd")
                variants = [DIGIT, POSITION]
            else:
                system = rand_qtilde_system(rng, signs="any")
                variants = [DIGIT]
            num = rand_number(rng, system, max_prefix=10)
            m = rng.randrange(1, len(num.digits.prefix) + 3)
            for variant in variants:
                surgery = evaluate(generalized_shift(num, m, variant))
                assert surgery == closed_form_value(num, m, variant)

    @pytest.mark.parametrize("tail_kind", ["zeros", "max", "cycle"])
    @pytest.mark.parametrize("flavor", ["cantor", "column", "alternating"])
    def test_every_position_past_the_tail(self, flavor, tail_kind):
        # m runs through six whole periods past the position where digits
        # and system repeat, then far past it; over alternating systems
        # position-signed deletion too, and over Cantor and column systems
        # explicit sign patterns too, drawn after the others
        rng = random.Random(41)
        if flavor == "alternating":
            draws = [(rand_cantor_system, "odd", (DIGIT, POSITION))] * 6
        else:
            make = rand_cantor_system if flavor == "cantor" else rand_qtilde_system
            draws = [(make, "any", (DIGIT,))] * 6 + [(make, "explicit", (DIGIT,))] * 6
        for make, signs, variants in draws:
            system = make(rng, signs=signs)
            num = rand_number(rng, system, max_prefix=5, tail_kinds=(tail_kind,))
            start, period = numbers._tail_period(num)
            for m in (*range(1, start + 6 * period + 1), 257, 1000, 4099):
                for variant in variants:
                    assert (closed_form_value(num, m, variant)
                            == evaluate(generalized_shift(num, m, variant)))

    def test_sign_case_coverage(self):
        rng = random.Random(99)
        for case in ((False, False), (False, True), (True, False), (True, True)):
            for _ in range(25):
                m = rng.randrange(1, 6)
                system = rand_cantor_system(rng, sign_pattern=sign_case_pattern(rng, m, case))
                num = rand_number(rng, system, max_prefix=8)
                assert evaluate(generalized_shift(num, m)) == closed_form_value(num, m)


class TestPrefixSums:
    def test_decimal(self):
        ps = prefix_sums(mk(DEC, (1, 2, 3)), 2)
        assert ps.g == Fraction(1, 10)
        assert ps.zeta == Fraction(3, 100)

    def test_first_position_has_empty_sum(self):
        assert prefix_sums(mk(DEC, (1, 2, 3)), 1).g == 0

    def test_mixed_radix(self):
        ps = prefix_sums(mk(FACT, (1, 2, 3)), 2)
        assert ps.g == Fraction(1, 2)
        assert ps.zeta == Fraction(3, 8)

    def test_reconstruction_identity(self):
        rng = random.Random(17)
        for _ in range(30):
            system = rand_cantor_system(rng, signs="any")
            num = rand_number(rng, system, max_prefix=8)
            m = rng.randrange(1, 8)
            ps = prefix_sums(num, m)
            weight = Fraction(1)
            for k in range(1, m + 1):
                weight /= system.base_at(k)
            s_m = -1 if system.signs.member(m) else 1
            assert evaluate(num) == ps.g + s_m * digit_at(num, m) * weight + ps.zeta / system.base_at(m)

    def test_rejected_for_column_systems(self):
        with pytest.raises(ExpansionError):
            prefix_sums(mk(QT, (1, 1)), 1)


class TestComposeRemovals:
    def test_label_deletion(self):
        out = compose_removals(mk(DEC, (1, 2, 3, 4, 5, 6)), (2, 5))
        assert out == mk(DEC, (1, 3, 4, 6))

    def test_single_index(self):
        num = mk(DEC, (1, 2, 3))
        assert compose_removals(num, (1,)) == generalized_shift(num, 1)

    def test_consecutive_run(self):
        out = compose_removals(mk(DEC, (1, 2, 3, 4, 5)), (1, 2, 3))
        assert out == mk(DEC, (4, 5))

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            compose_removals(mk(DEC, (1, 2, 3)), (2, 2))


class TestTheoremIdentities:
    def test_report_on_reference_case(self):
        report = verify_theorem_identities(mk(DEC, (1, 2, 3, 4, 5, 6)), m=2, indices=(2, 5))
        assert report.shift_compose
        assert report.subsequence
        assert report.consecutive_adjusted
        assert report.residual
        assert report.expected_ok

    def test_printed_exponent_fails_concretely(self):
        # a consecutive run (2, 3): two extra shifts overshoot the target
        report = verify_theorem_identities(mk(DEC, (1, 2, 3, 4, 5, 6)), m=1, indices=(2, 3))
        assert report.consecutive_adjusted
        assert not report.consecutive_printed

    def test_shift_compose_unrolled(self):
        num = mk(DEC, (1, 2, 3, 4, 5))
        probe = generalized_shift(generalized_shift(num, 2), 2)
        image = shift(probe)
        assert image == mk(DEC, (4, 5))
        assert evaluate(image) == Fraction(45, 100)
        assert same_number(image, iterate_shift(num, 3))

    def test_subsequence_unrolled(self):
        num = mk(DEC, (1, 2, 3, 4, 5, 6))
        composed = compose_removals(num, (2, 5))
        image = iterate_shift(composed, 3)
        assert image == mk(DEC, (6,))
        assert evaluate(image) == Fraction(6, 10)

    def test_residual_unrolled(self):
        num = mk(DEC, (1, 2, 3))
        lhs = evaluate(num) - closed_form_value(num, 2)
        assert lhs == Fraction(-7, 1000)
        rhs = Fraction(2, 100) + evaluate(iterate_shift(num, 2)) * (1 - 10) / 100
        assert rhs == Fraction(-7, 1000)

    def test_requires_positive_cantor(self):
        with pytest.raises(ExpansionError):
            verify_theorem_identities(mk(NEG, (1,)), m=1, indices=(1,))

    def test_seeded_reports(self):
        # the fields of seeded theorem reports and prefix sums, as first
        # recorded; only the printed exponent ever fails
        rng = random.Random(2102)
        got = []
        for _ in range(6):
            num = rand_positive_cantor_number(rng, 5, 6)
            m = rng.randrange(1, 4)
            report = verify_theorem_identities(num, m, tuple(sorted(rng.sample(range(1, 7), 2))))
            assert (report.shift_compose, report.subsequence, report.consecutive_adjusted,
                    report.residual, report.expected_ok) == (True,) * 5
            sums = prefix_sums(num, m)
            got.append((report.consecutive_printed, str(sums.g), str(sums.zeta)))
        assert got == [(False, "0", "0"), (False, "0", "1706/3125"), (True, "3/10", "0"),
                       (True, "1/3", "4/15"), (False, "0", "8/45"), (False, "1/10", "1/20")]


class TestSemanticEquivalences:
    def test_iterate_equals_repeated_shift(self):
        rng = random.Random(37)
        for _ in range(20):
            system = (rand_cantor_system(rng, signs="any") if rng.random() < 0.5
                      else rand_qtilde_system(rng))
            num = rand_number(rng, system, max_prefix=6)
            m = rng.randrange(0, 5)
            stepwise = num
            for _ in range(m):
                stepwise = shift(stepwise)
            assert same_number(iterate_shift(num, m), stepwise)

    def test_deletion_digit_function(self):
        rng = random.Random(43)
        for _ in range(25):
            system = (rand_cantor_system(rng, signs="any") if rng.random() < 0.5
                      else rand_qtilde_system(rng))
            num = rand_number(rng, system, max_prefix=6)
            m = rng.randrange(1, 10)
            image = generalized_shift(num, m)
            for n in range(1, 14):
                assert digit_at(image, n) == digit_at(num, n if n < m else n + 1)


class TestSystemClosure:
    def test_shift_system_consistency(self):
        rng = random.Random(23)
        for _ in range(20):
            system = rand_cantor_system(rng, signs="any")
            num = rand_number(rng, system, max_prefix=6)
            m = rng.randrange(0, 5)
            assert iterate_shift(num, m).system == shift_system(system, m)

    def test_remove_consistency(self):
        rng = random.Random(29)
        for _ in range(20):
            system = rand_qtilde_system(rng, signs="any")
            num = rand_number(rng, system, max_prefix=6)
            m = rng.randrange(1, 6)
            assert generalized_shift(num, m).system == remove_index(system, m)


def _deep_number(rng, kind, tail):
    """An 800-position number document over a Cantor or column system."""
    if kind == "cantor":
        bases = [rng.randrange(2, 13) for _ in range(800)]
        system = {"kind": "cantor", "base": {"prefix": bases, "cycle": [3]},
                  "signs": {"prefix": [rng.random() < 0.5 for _ in bases], "cycle": [False]}}
        sizes = bases
    else:
        columns = [["1/4", "3/4"], ["1/2", "1/3", "1/6"]]
        prefix = [rng.choice(columns) for _ in range(800)]
        system = {"kind": "qtilde", "columns": {"prefix": prefix, "cycle": [columns[1]]},
                  "signs": "none"}
        sizes = [len(c) for c in prefix]
    digits = [rng.randrange(size) for size in sizes]
    return doc_to_number({"system": system, "digits": {"prefix": digits, "tail": tail}})


class TestBulkDigitReads:
    """Images, values and closed forms read a number's digits in slices:
    none of them calls `digit_at` once per position.  The closed form
    reads its m digits as one slice, so it calls `digit_at` not at all."""

    @pytest.mark.parametrize("kind", ["cantor", "column"])
    @pytest.mark.parametrize("tail", [{"type": "zeros"}, {"type": "max"},
                                      {"type": "cycle", "cycle": [1, 0]}])
    def test_no_digit_at_per_position(self, kind, tail, monkeypatch):
        num = _deep_number(random.Random(73), kind, tail)
        calls = []

        def counting(num, n):
            calls.append(n)
            return digit_at(num, n)

        monkeypatch.setattr(numbers, "digit_at", counting)
        monkeypatch.setattr(operators, "digit_at", counting)
        counts = {}
        for name, call in [("generalized_shift", lambda: generalized_shift(num, 400)),
                           ("iterate_shift", lambda: iterate_shift(num, 400)),
                           ("evaluate", lambda: evaluate(num)),
                           ("closed_form_value", lambda: closed_form_value(num, 400))]:
            calls.clear()
            call()
            counts[name] = len(calls)
        assert counts == {"generalized_shift": 0, "iterate_shift": 0, "evaluate": 0,
                          "closed_form_value": 0}

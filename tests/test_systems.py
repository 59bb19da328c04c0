import math
import random
from fractions import Fraction

import pytest

from cantorshift import (
    CantorSystem,
    EventuallyPeriodicSeq,
    Interval,
    PositionTable,
    QTildeColumn,
    QTildeSystem,
    RepresentedNumber,
    SignPattern,
    base_interval,
    evaluate,
    make_stream,
    position_table,
    remove_index,
    rho,
    shift_system,
    sign_factor,
    validate,
)
from cantorshift import series
from cantorshift.documents import doc_to_system, system_to_doc
from cantorshift.sampling import rand_cantor_system, rand_qtilde_system, rand_segment_system
from cantorshift.systems import combined_cycle_len, combined_prefix_len, periodic_from
from helpers import ALT, DEC, FACT, NEG, QT, cantor, digit_fractions, qtilde


class TestSignPattern:
    def test_rho_on_odd_pattern(self):
        odd = SignPattern.odd()
        assert rho(odd, 3) == 1
        assert rho(odd, 4) == 2

    def test_rho_on_empty_pattern(self):
        none = SignPattern.none()
        assert all(rho(none, n) == 2 for n in range(1, 20))

    def test_sign_factor_matches_membership(self):
        pattern = SignPattern.explicit((True, False), (False, True, True))
        for n in range(1, 25):
            member = pattern.member(n)
            assert (sign_factor(pattern, n) == -1) == member
            assert (rho(pattern, n) == 1) == member

    def test_items_held_as_bools(self):
        # 2 and True are the same membership, so the patterns are equal and
        # the system is 1-periodic from position 1
        pattern = SignPattern(EventuallyPeriodicSeq((2,), (True,)))
        assert pattern == SignPattern.explicit((), (True,))
        assert pattern.membership.prefix == () and pattern.membership.cycle == (True,)
        assert periodic_from(cantor((), (10,), pattern), 1, 1)


class TestStoredLengths:
    """Each system stores its combined prefix length P and cycle length L
    when it is built; they must equal the lengths recomputed from its base
    or column sequence and its sign membership, however it was built."""

    @staticmethod
    def _recomputed(system):
        seq = system.base if isinstance(system, CantorSystem) else system.columns
        membership = system.signs.membership
        return (max(len(seq.prefix), len(membership.prefix)),
                math.lcm(len(seq.cycle), len(membership.cycle)))

    def test_every_way_of_building_a_system(self):
        rng = random.Random(71)
        for i in range(300):
            system = rand_segment_system(rng, i % 4)
            m = rng.randrange(1, 8)
            built = [system, shift_system(system, m), remove_index(system, m),
                     type(system)(system.base if isinstance(system, CantorSystem)
                                  else system.columns, _explicit_signs(rng)),
                     doc_to_system(system_to_doc(system))]
            for other in built:
                assert ((combined_prefix_len(other), combined_cycle_len(other))
                        == self._recomputed(other))

    def test_bool_membership_kept_as_given(self):
        membership = EventuallyPeriodicSeq((True,), (False, True))
        pattern = SignPattern(membership)
        assert pattern.membership is membership
        assert pattern == SignPattern.explicit((1,), (0, 1))


def _periodic_from_itemwise(system, start, period):
    """Reference: compare the items at n and n + period one position at a
    time, from start to one combined cycle past the combined prefix."""
    if start < 1 or period < 1:
        return False
    seq = system.base if isinstance(system, CantorSystem) else system.columns
    end = max(combined_prefix_len(system), start - 1) + combined_cycle_len(system)
    return all(seq.at(n) == seq.at(n + period)
               and system.signs.member(n) == system.signs.member(n + period)
               for n in range(start, end + 1))


def _explicit_signs(rng):
    prefix = [rng.random() < 0.5 for _ in range(rng.randrange(0, 5))]
    cycle = [rng.random() < 0.5 for _ in range(rng.randrange(1, 5))]
    return SignPattern.explicit(prefix, cycle)


class TestPeriodicFrom:
    def test_matches_itemwise_reference(self):
        rng = random.Random(61)
        makers = (lambda: rand_cantor_system(rng, sign_pattern=_explicit_signs(rng)),
                  lambda: rand_qtilde_system(rng, sign_pattern=_explicit_signs(rng)),
                  lambda: rand_segment_system(rng, rng.randrange(4)))
        for i in range(1200):
            system = makers[i % 3]()
            p, l = combined_prefix_len(system), combined_cycle_len(system)
            for start in range(0, p + 3 * l + 3):
                for period in range(0, 3 * l + 3):
                    assert (periodic_from(system, start, period)
                            == _periodic_from_itemwise(system, start, period))


class TestValidate:
    def test_valid_column_system(self):
        assert validate(QT).ok

    def test_column_sum_violation(self):
        bad = qtilde((), [(Fraction(1, 2), Fraction(1, 3))])
        report = validate(bad)
        assert not report.ok
        assert any("column sum != 1" in p.message for p in report.problems)
        assert any(p.path == "columns.cycle[0]" for p in report.problems)

    def test_base_below_two_violation(self):
        bad = cantor((3, 1), (10,))
        report = validate(bad)
        assert not report.ok
        assert ">= 2" in report.problems[0].message

    def test_entry_outside_unit_interval(self):
        # the constructor checks no ranges; validate does
        bad = qtilde((), [(Fraction(3, 2), Fraction(-1, 2))])
        report = validate(bad)
        assert any("not in (0, 1)" in p.message for p in report.problems)


def _fraction_column_problems(system):
    """(path, message) of each column violation, by the plain-Fraction rule:
    every entry in (0, 1), every column summing to 1, and the cycle's
    max-entry product below 1."""
    problems = []
    for region, items in (("columns.prefix", system.columns.prefix),
                          ("columns.cycle", system.columns.cycle)):
        for i, col in enumerate(items):
            for j, v in enumerate(col.entries):
                if not 0 < v < 1:
                    problems.append((f"{region}[{i}][{j}]", f"column entry not in (0, 1): {v}"))
            if sum(col.entries, Fraction(0)) != 1:
                problems.append((f"{region}[{i}]", "column sum != 1"))
    product = Fraction(1)
    for col in system.columns.cycle:
        product *= max(col.entries)
    if product >= 1:
        problems.append(("columns.cycle", "cycle max-entry product must be < 1"))
    return problems


def _rand_damaged_column(rng):
    """A random column, often with an entry moved to 0, below 0, to 1 or
    past 1, or nudged so that the column no longer sums to 1."""
    from cantorshift.sampling import rand_column

    entries = list(rand_column(rng).entries)
    for _ in range(rng.choice((0, 0, 1, 2))):
        j = rng.randrange(len(entries))
        entries[j] = rng.choice((Fraction(0), Fraction(-1, 3), Fraction(1), Fraction(7, 5),
                                 entries[j] + Fraction(1, rng.randrange(2, 40))))
    if rng.random() < 0.2:
        entries = entries[:1]
    return QTildeColumn(tuple(entries))


class TestValidateColumns:
    def test_random_columns_match_fraction_rule(self):
        import random

        rng = random.Random(83)
        verdicts = set()
        for _ in range(400):
            system = QTildeSystem(EventuallyPeriodicSeq(
                tuple(_rand_damaged_column(rng) for _ in range(rng.randrange(0, 3))),
                tuple(_rand_damaged_column(rng) for _ in range(rng.randrange(1, 3)))),
                SignPattern.none())
            report = validate(system)
            expected = _fraction_column_problems(system)
            assert [(p.path, p.message) for p in report.problems] == expected
            assert report.ok == (not expected)
            verdicts.add(report.ok)
        assert verdicts == {True, False}

    def test_seeded_reports(self):
        # the verdict, text and fields of seeded reports, as first recorded
        rng = random.Random(2101)
        reports = [validate(QTildeSystem(EventuallyPeriodicSeq(
            tuple(_rand_damaged_column(rng) for _ in range(rng.randrange(0, 2))),
            (_rand_damaged_column(rng),)), SignPattern.none())) for _ in range(6)]
        assert [report.ok for report in reports] == [True, False, False, False, True, False]
        assert [str(report) for report in reports] == [
            "OK",
            "column entry not in (0, 1): 0 at $.columns.cycle[0][0]; "
            "column entry not in (0, 1): -1/3 at $.columns.cycle[0][1]; "
            "column sum != 1 at $.columns.cycle[0]",
            "column entry not in (0, 1): -1/3 at $.columns.prefix[0][1]; "
            "column entry not in (0, 1): 1 at $.columns.prefix[0][2]; "
            "column sum != 1 at $.columns.prefix[0]; column sum != 1 at $.columns.cycle[0]",
            "column entry not in (0, 1): 12/11 at $.columns.prefix[0][1]; "
            "column sum != 1 at $.columns.prefix[0]",
            "OK",
            "column entry not in (0, 1): 0 at $.columns.prefix[0][0]; "
            "column sum != 1 at $.columns.prefix[0]; "
            "column entry not in (0, 1): 1 at $.columns.cycle[0][0]; "
            "column entry not in (0, 1): 1 at $.columns.cycle[0][1]; "
            "column sum != 1 at $.columns.cycle[0]; "
            "cycle max-entry product must be < 1 at $.columns.cycle",
        ]
        assert reports[0].problems == ()
        assert [(p.path, p.message) for p in reports[3].problems] == [
            ("columns.prefix[0][1]", "column entry not in (0, 1): 12/11"),
            ("columns.prefix[0]", "column sum != 1")]


class TestColumnInts:
    def test_equal_entries_make_equal_columns(self):
        built = [QTildeColumn((Fraction(1, 4), Fraction(3, 4))),
                 QTildeColumn([Fraction(2, 8), Fraction(6, 8)]),
                 QTildeColumn(("1/4", Fraction(3, 4))),
                 QTildeColumn((0.25, 0.75))]
        for col in built:
            assert col == built[0]
            assert hash(col) == hash(built[0])
            assert col.ints == ((0, 1, 4), (1, 3, 4))
            assert repr(col) == repr(built[0])
        assert len(set(built)) == 1

    def test_entries_are_exact_fractions(self):
        class Ratio(Fraction):
            pass

        col = QTildeColumn((Fraction(1, 4), Ratio(1, 4), "1/2"))
        assert col.entries == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert [type(e) for e in col.entries] == [Fraction, Fraction, Fraction]

    def test_ints_computed_once(self):
        col = QTildeColumn((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
        assert col.ints is col.ints
        assert QTildeColumn.ints.__get__(col) == ((0, 1, 6), (1, 3, 6), (4, 2, 6))
        assert not isinstance(getattr(QTildeColumn, "ints", None), property)
        assert "ints" not in repr(col)


class TestColumnCumulative:
    def test_zero_digit(self):
        col = QTildeColumn((Fraction(1, 4), Fraction(3, 4)))
        assert col.cumulative(0) == 0

    def test_partial_sums(self):
        col = QTildeColumn((Fraction(1, 4), Fraction(3, 4)))
        assert col.cumulative(1) == Fraction(1, 4)
        thirds = QTildeColumn((Fraction(1, 3),) * 3)
        assert thirds.cumulative(2) == Fraction(2, 3)

    def test_out_of_alphabet(self):
        from cantorshift import DigitRangeError

        col = QTildeColumn((Fraction(1, 4), Fraction(3, 4)))
        with pytest.raises(DigitRangeError):
            col.cumulative(2)


class TestBaseInterval:
    def test_decimal(self):
        assert base_interval(DEC) == Interval(0, 1)

    def test_nega_decimal(self):
        assert base_interval(NEG) == Interval(Fraction(-10, 11), Fraction(1, 11))

    def test_positive_column_system(self):
        assert base_interval(QT) == Interval(0, 1)

    def test_positive_systems_span_unit_interval(self):
        F = Fraction
        for system in (FACT, cantor((5,), (2, 3)),
                       qtilde([[F(1, 2), F(1, 2)]], [[F(1, 8), F(7, 8)]])):
            assert base_interval(system) == Interval(0, 1)

    def test_random_positive_systems_span_unit_interval(self):
        import random

        from cantorshift.sampling import rand_cantor_system, rand_qtilde_system

        rng = random.Random(61)
        for _ in range(25):
            system = (rand_cantor_system(rng, signs="none") if rng.random() < 0.5
                      else rand_qtilde_system(rng, signs="none"))
            assert base_interval(system) == Interval(0, 1)


class TestRemoveIndex:
    def test_prefix_deletion(self):
        assert remove_index(FACT, 2) == cantor((2, 4), (4,))

    def test_constant_system_unchanged(self):
        assert remove_index(DEC, 5) == DEC

    def test_nega_decimal_parity_flip(self):
        assert remove_index(NEG, 1) == cantor((), (10,), SignPattern.even())

    def test_positionwise_agreement(self):
        system = cantor((2, 3, 4), (5, 6), SignPattern.explicit((True,), (False, True)))
        horizon = 3 + 3 * 2
        for m in range(1, horizon + 1):
            out = remove_index(system, m)
            for n in range(1, horizon + 1):
                src = n if n < m else n + 1
                assert out.base_at(n) == system.base_at(src)
                assert out.signs.member(n) == system.signs.member(src)

    def test_constant_alphabet_invariance(self):
        const = cantor((), (7,), SignPattern.explicit((), (True,)))
        for m in range(1, 9):
            assert remove_index(const, m) == const


class TestShiftSystem:
    def test_prefix_drop(self):
        assert shift_system(FACT, 1) == cantor((3, 4), (4,))

    def test_constant_invariance(self):
        assert shift_system(DEC, 7) == DEC

    def test_sign_parity(self):
        assert shift_system(NEG, 1) == cantor((), (10,), SignPattern.even())

    def test_shift_zero_is_identity(self):
        assert shift_system(ALT, 0) == ALT


F = Fraction
FLAVOURS = {
    "cantor": cantor((2, 3, 4), (5, 6)),
    "signed cantor": cantor((2, 3, 4), (5, 6), SignPattern.explicit((True,), (False, True))),
    "column": qtilde([[F(1, 2), F(1, 2)]], [[F(1, 8), F(7, 8)], [F(1, 3), F(1, 6), F(1, 2)]]),
    "signed column": qtilde([[F(1, 2), F(1, 2)]], [[F(1, 8), F(7, 8)], [F(1, 3), F(2, 3)]],
                            SignPattern.explicit((), (True, False, False))),
}


# the rand_segment_system flavour of each fixed system
FLAVOUR_INDEX = {"cantor": 0, "signed cantor": 1, "column": 2, "signed column": 3}


def _extreme_value(system, low):
    # the most negative (low) or most positive stream, evaluated as a number;
    # it spells the greedy rule out again, apart from systems._extreme_digits,
    # so that it stays an independent oracle for the position table
    def digit(n):
        return system.max_digit(n) if system.signs.member(n) == low else 0

    stream = make_stream(system, digit, combined_prefix_len(system), combined_cycle_len(system))
    return evaluate(RepresentedNumber(system, stream))


class TestPositionTable:
    @pytest.mark.parametrize("name", sorted(FLAVOURS))
    def test_tails_equal_extreme_streams_of_shifted_systems(self, name):
        rng = random.Random(FLAVOUR_INDEX[name])
        systems = [FLAVOURS[name]] + [rand_segment_system(rng, FLAVOUR_INDEX[name])
                                      for _ in range(25)]
        fixed = position_table(systems[0])
        assert fixed.prefix_len + 2 * fixed.cycle_len > 3
        for system in systems:
            table = position_table(system)
            for n in range(table.prefix_len + 2 * table.cycle_len + 1):
                shifted = shift_system(system, n)
                assert table.interval(n) == Interval(_extreme_value(shifted, True),
                                                     _extreme_value(shifted, False))

    @pytest.mark.parametrize("name", sorted(FLAVOURS))
    def test_slots_repeat_the_cycle(self, name):
        system = FLAVOURS[name]
        table = position_table(system)
        for n in range(1, table.prefix_len + 3 * table.cycle_len + 1):
            i = table.slot(n)
            assert i < table.prefix_len + table.cycle_len
            assert table.max_digits[i] == system.max_digit(n)
            assert table.signs[i] == sign_factor(system.signs, n)
            for d in range(system.max_digit(n) + 1):
                assert digit_fractions(table, i, d) == (system.term_value(n, d),
                                                        system.digit_weight(n, d))

    def test_base_interval_is_tail_at_zero(self):
        for system in FLAVOURS.values():
            assert base_interval(system) == position_table(system).interval(0)

    @pytest.mark.parametrize("make", [
        *(lambda rng, flavour=flavour: rand_segment_system(rng, flavour) for flavour in range(4)),
        rand_cantor_system, rand_qtilde_system],
        ids=[*sorted(FLAVOURS, key=FLAVOUR_INDEX.get), "rand_cantor", "rand_qtilde"])
    def test_build_reads_two_slices(self, monkeypatch, make):
        # the base or column sequence once and the sign membership once
        reads = []
        read = series._slice
        monkeypatch.setattr(series, "_slice", lambda *args: reads.append(args) or read(*args))
        rng = random.Random(5)
        for _ in range(20):
            system = make(rng)
            reads.clear()
            PositionTable.build(system)
            assert len(reads) == 2

    def test_cached_per_system(self):
        assert position_table(cantor((), (7,))) is position_table(cantor((), (7,)))

    def test_huge_base_builds_in_constant_size(self):
        table = position_table(cantor((), (10**12,)))
        assert table.bases == (10**12,)
        assert table.interval(0) == Interval(0, 1)

"""The contract of the nine immutable value types: equality and hashing
over their fields, only between instances of one class, no attribute
assignment or deletion, a pinned repr, and pickle and deepcopy
round-trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from cantorshift import (
    TAIL_MAX,
    CantorSystem,
    DigitStream,
    EventuallyPeriodicSeq,
    Interval,
    QTildeColumn,
    QTildeSystem,
    RepresentedNumber,
    SignPattern,
    cycle_tail,
)
from cantorshift.systems import combined_cycle_len, combined_prefix_len


def _cantor():
    return CantorSystem(EventuallyPeriodicSeq((2,), (3, 3)), SignPattern.explicit((True,), (0, 1)))


def _qtilde():
    return QTildeSystem(EventuallyPeriodicSeq((), (QTildeColumn(("2/8", "6/8")),)),
                        SignPattern.none())


# name: (make one value, make an equal value another way, the fields in
# declaration order, the value's repr)
CASES = {
    "EventuallyPeriodicSeq": (
        lambda: EventuallyPeriodicSeq((1, 2), (3,)),
        lambda: EventuallyPeriodicSeq([1, 2, 3], [3, 3]),
        ("prefix", "cycle"),
        "EventuallyPeriodicSeq(prefix=(1, 2), cycle=(3,))",
    ),
    "SignPattern": (
        SignPattern.odd,
        lambda: SignPattern.explicit((1,), (0, 1)),
        ("membership",),
        "SignPattern(membership=EventuallyPeriodicSeq(prefix=(), cycle=(True, False)))",
    ),
    "CantorSystem": (
        _cantor,
        lambda: CantorSystem(EventuallyPeriodicSeq((2, 3), (3,)), SignPattern.odd()),
        ("base", "signs"),
        "CantorSystem(base=EventuallyPeriodicSeq(prefix=(2,), cycle=(3,)), "
        "signs=SignPattern(membership=EventuallyPeriodicSeq(prefix=(), cycle=(True, False))))",
    ),
    "QTildeColumn": (
        lambda: QTildeColumn(("2/8", "6/8")),
        lambda: QTildeColumn((Fraction(1, 4), Fraction(3, 4))),
        ("ints",),
        "QTildeColumn(entries=(Fraction(1, 4), Fraction(3, 4)))",
    ),
    "QTildeSystem": (
        _qtilde,
        lambda: QTildeSystem(EventuallyPeriodicSeq(
            (QTildeColumn((0.25, 0.75)),), (QTildeColumn((Fraction(1, 4), Fraction(3, 4))),)),
            SignPattern.explicit((), (False, False))),
        ("columns", "signs"),
        "QTildeSystem(columns=EventuallyPeriodicSeq(prefix=(), "
        "cycle=(QTildeColumn(entries=(Fraction(1, 4), Fraction(3, 4))),)), "
        "signs=SignPattern(membership=EventuallyPeriodicSeq(prefix=(), cycle=(False,))))",
    ),
    "Interval": (
        lambda: Interval(Fraction(-1, 2), Fraction(1, 3)),
        lambda: Interval(Fraction(-2, 4), Fraction(2, 6)),
        ("lo", "hi"),
        "Interval(lo=Fraction(-1, 2), hi=Fraction(1, 3))",
    ),
    "Tail": (
        lambda: cycle_tail((1, 2)),
        lambda: cycle_tail([1, 2]),
        ("kind", "cycle"),
        "Tail(kind='cycle', cycle=(1, 2))",
    ),
    "DigitStream": (
        lambda: DigitStream((1, 0), TAIL_MAX),
        lambda: DigitStream([1, 0], TAIL_MAX),
        ("prefix", "tail"),
        "DigitStream(prefix=(1, 0), tail=Tail(kind='max', cycle=()))",
    ),
    "RepresentedNumber": (
        lambda: RepresentedNumber(_qtilde(), DigitStream((1,), cycle_tail((0, 1)))),
        lambda: RepresentedNumber(_qtilde(), DigitStream([1], cycle_tail([0, 1]))),
        ("system", "digits"),
        "RepresentedNumber(system=QTildeSystem(columns=EventuallyPeriodicSeq(prefix=(), "
        "cycle=(QTildeColumn(entries=(Fraction(1, 4), Fraction(3, 4))),)), "
        "signs=SignPattern(membership=EventuallyPeriodicSeq(prefix=(), cycle=(False,)))), "
        "digits=DigitStream(prefix=(1,), tail=Tail(kind='cycle', cycle=(0, 1))))",
    ),
}

NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equal(name):
    make, make_other, _, _ = CASES[name]
    value, other = make(), make_other()
    assert type(value).__name__ == name
    assert value is not other
    assert value == other and not value != other
    assert hash(value) == hash(other)
    assert len({value, other}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_unequal_to_a_tuple_of_its_fields(name):
    make, _, fields, _ = CASES[name]
    value = make()
    items = tuple(getattr(value, field) for field in fields)
    assert value != items and items != value
    assert not value == items


@pytest.mark.parametrize("name", NAMES)
def test_unequal_to_another_type(name):
    value = CASES[name][0]()
    others = [CASES[other][0]() for other in NAMES if other != name]
    assert all(value != other for other in others)


@pytest.mark.parametrize("name", NAMES)
def test_no_assignment_or_deletion(name):
    make, _, fields, _ = CASES[name]
    value = make()
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_pinned_repr(name):
    make, _, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    value = CASES[name][0]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)


@pytest.mark.parametrize("name", NAMES)
def test_deepcopy_round_trip(name):
    value = CASES[name][0]()
    back = copy.deepcopy(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)


@pytest.mark.parametrize("make", [_cantor, _qtilde])
def test_copies_keep_the_stored_lengths(make):
    system = make()
    lengths = (combined_prefix_len(system), combined_cycle_len(system))
    for back in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system)):
        assert (combined_prefix_len(back), combined_cycle_len(back)) == lengths


def test_columns_from_strings_and_fractions_agree():
    strings = QTildeColumn(("2/8", "6/8"))
    fractions = QTildeColumn((1 / 4, 3 / 4))
    assert strings == fractions
    assert hash(strings) == hash(fractions)
    assert strings.ints == fractions.ints == ((0, 1, 4), (1, 3, 4))

"""Shared reference systems and construction helpers for the tests."""

from fractions import Fraction

from cantorshift import (
    CantorSystem,
    DigitStream,
    EventuallyPeriodicSeq,
    QTildeColumn,
    QTildeSystem,
    RepresentedNumber,
    SignPattern,
    TAIL_ZEROS,
)


def cantor(prefix, cycle, signs=None):
    return CantorSystem(EventuallyPeriodicSeq(tuple(prefix), tuple(cycle)),
                        signs or SignPattern.none())


def qtilde(prefix_cols, cycle_cols, signs=None):
    return QTildeSystem(
        EventuallyPeriodicSeq(
            tuple(QTildeColumn(tuple(Fraction(e) for e in col)) for col in prefix_cols),
            tuple(QTildeColumn(tuple(Fraction(e) for e in col)) for col in cycle_cols),
        ),
        signs or SignPattern.none(),
    )


DEC = cantor((), (10,))
NEG = cantor((), (10,), SignPattern.odd())
FACT = cantor((2, 3, 4), (4,))
ALT = cantor((2, 3), (3,), SignPattern.odd())
QT = qtilde((), [(Fraction(1, 4), Fraction(3, 4))])


def digit_fractions(table, i, d):
    """(term value, weight) of digit d at slot i of a position table, as
    Fractions."""
    term, weight, den = table.digit_ints(i, d)
    return Fraction(term, den), Fraction(weight, den)


def mk(system, prefix, tail=TAIL_ZEROS):
    return RepresentedNumber(system, DigitStream(tuple(prefix), tail))


def parse_long_int(text):
    """int() of a decimal string of any length, read 1000 digits at a time
    (Python refuses by default to convert more than 4300 at once)."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        piece = digits[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


_DEC_DOC = {"kind": "cantor", "base": {"prefix": [], "cycle": [10]}, "signs": "none"}

# (id, "system" or "number", document, exact DocumentError message) of
# refusals the parser names by their JSON path
DOCUMENT_ERRORS = [
    ("unknown-sign-pattern", "system", {**_DEC_DOC, "signs": "sometimes"},
     "unknown sign pattern 'sometimes' at $.signs"),
    ("non-boolean-sign", "system", {**_DEC_DOC, "signs": {"prefix": [True, 1], "cycle": [False]}},
     "expected a boolean at $.signs.prefix[1]"),
    ("empty-sign-cycle", "system", {**_DEC_DOC, "signs": {"prefix": [True], "cycle": []}},
     "sign cycle must be nonempty at $.signs.cycle"),
    ("empty-columns-cycle", "system",
     {"kind": "qtilde", "columns": {"prefix": [["1/2", "1/2"]], "cycle": []}, "signs": "none"},
     "columns cycle must be nonempty at $.columns.cycle"),
    ("unknown-kind", "system", {**_DEC_DOC, "kind": "dyadic"},
     "unknown system kind 'dyadic' at $.kind"),
    ("empty-digit-cycle", "number",
     {"system": _DEC_DOC, "digits": {"prefix": [1], "tail": {"type": "cycle", "cycle": []}}},
     "cycle must be nonempty at $.digits.tail.cycle"),
    ("nested-unknown-kind", "number",
     {"system": {**_DEC_DOC, "kind": "dyadic"},
      "digits": {"prefix": [1], "tail": {"type": "zeros"}}},
     "unknown system kind 'dyadic' at $.system.kind"),
]

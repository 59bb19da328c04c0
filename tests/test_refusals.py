"""The library's refusals of arguments out of range: each call raises its
exception type with its exact message, before any work."""

from fractions import Fraction

import pytest

import cantorshift as cs
from cantorshift import EventuallyPeriodicSeq, Interval, QTildeColumn, Tail, validate
from cantorshift.rationals import decimal_str
from cantorshift.verify import VerifyConfig, _segments_ok, run_suite
from cantorshift.writers import graph_tsv, segments_tsv
from helpers import DEC, NEG, mk

HALF = Fraction(1, 2)
SEQ = EventuallyPeriodicSeq((2,), (3,))

# id: (call, exception type, exact message)
REFUSALS = {
    "point_image-m0": (lambda: cs.point_image(DEC, HALF, 0), ValueError,
                       "positions are 1-based"),
    "affine_on_cylinder-empty": (lambda: cs.affine_on_cylinder(DEC, []), ValueError,
                                 "prefix must contain at least one digit"),
    "segment_table-m0": (lambda: cs.segment_table(DEC, 0), ValueError,
                         "prefix must contain at least one digit"),
    "graph_samples-1-sample": (lambda: cs.graph_samples(DEC, 1, 1), ValueError,
                               "need at least 2 samples per cylinder"),
    "continuity_at-other-system": (lambda: cs.continuity_at(DEC, 1, mk(NEG, (5,))), ValueError,
                                   "number does not live over the given system"),
    "numeric_derivative-step0": (lambda: cs.numeric_derivative(DEC, 1, mk(DEC, (5,)), 0),
                                 ValueError, "step must be positive"),
    "decode-depth0": (lambda: cs.decode(DEC, HALF, 0), ValueError, "depth must be >= 1"),
    "run_suite-0-trials": (lambda: run_suite(VerifyConfig("eq4", trials=0)), ValueError,
                           "trials must be >= 1"),
    "tail-unknown-kind": (lambda: Tail("ones"), ValueError, "unknown tail kind 'ones'"),
    "tail-empty-cycle": (lambda: Tail("cycle"), ValueError,
                         "cycle tail needs at least one digit"),
    "tail-max-with-digits": (lambda: Tail("max", (1,)), ValueError,
                             "max tail carries no cycle digits"),
    "iterate_shift-m-1": (lambda: cs.iterate_shift(mk(DEC, (5,)), -1), ValueError,
                          "shift count must be >= 0"),
    "generalized_shift-m0": (lambda: cs.generalized_shift(mk(DEC, (5,)), 0), ValueError,
                             "positions are 1-based"),
    "closed_form_value-m0": (lambda: cs.closed_form_value(mk(DEC, (5,)), 0), ValueError,
                             "positions are 1-based"),
    "prefix_sums-m0": (lambda: cs.prefix_sums(mk(DEC, (5,)), 0), ValueError,
                       "positions are 1-based"),
    "decimal_str-precision-1": (lambda: decimal_str(HALF, -1), ValueError,
                                "precision must be >= 0"),
    "segments_tsv-precision-1": (lambda: segments_tsv([], 1, 1, -1), ValueError,
                                 "precision must be >= 0"),
    "graph_tsv-precision-1": (lambda: graph_tsv([], 1, -1), ValueError,
                              "precision must be >= 0"),
    "seq-shifted-1": (lambda: SEQ.shifted(-1), ValueError, "shift must be >= 0"),
    "seq-removed-0": (lambda: SEQ.removed(0), ValueError, "positions are 1-based"),
    "periodic_tail_sum-start0": (lambda: cs.periodic_tail_sum(lambda n: 0, 0, 1), ValueError,
                                 "start must be >= 1"),
    "periodic_tail_sum-period0": (lambda: cs.periodic_tail_sum(lambda n: 0, 1, 0), ValueError,
                                  "period must be >= 1"),
    "column-empty": (lambda: QTildeColumn([]), ValueError,
                     "column must have at least one entry"),
    "interval-reversed": (lambda: Interval(1, 0), ValueError,
                          "interval endpoints out of order: 1 > 0"),
    "shift_system-1": (lambda: cs.shift_system(DEC, -1), ValueError, "shift must be >= 0"),
    "remove_index-0": (lambda: cs.remove_index(DEC, 0), ValueError, "positions are 1-based"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_validate_reports_an_unknown_system_type():
    report = validate(object())
    assert not report.ok
    assert str(report) == "unknown system type object at $."


def test_segments_check_refuses_a_wrong_row_count():
    # the decimal system's rank-1 table has 10 rows
    assert _segments_ok(DEC, 1, 10)
    assert not _segments_ok(DEC, 1, 11)

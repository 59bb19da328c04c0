"""Failure path of the verify suites: every suite's failure records,
minimised cases and notes, with one package function made to lie.

The golden file holds what each suite reports when a single function is
patched so that some trials fail.  Only names looked up at call time inside
`numbers`, `operators` and `analysis` are patched, so the golden pins the
suites' own case generation, checks, shrinking and record layout.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cantorshift import DigitRangeError, analysis, numbers, operators, verify
from cantorshift.documents import doc_to_number, doc_to_system
from cantorshift.numbers import TAIL_ZEROS, DigitStream, RepresentedNumber
from cantorshift.writers import number_to_doc, system_to_doc
from helpers import DEC

GOLDEN = Path(__file__).parent / "data" / "verify_failures_16_5.json"
TRIALS, SEED = 16, 5

_evaluate = numbers._evaluate
_deletion_map = analysis._deletion_map
_digits_equal = numbers.digits_equal
_generalized_shift = operators.generalized_shift


def _evaluate_without_tail(num):
    """A non-zero tail after an odd-length prefix is ignored."""
    if num.digits.tail.kind != "zeros" and len(num.digits.prefix) % 2 == 1:
        num = RepresentedNumber(num.system, DigitStream(num.digits.prefix, TAIL_ZEROS))
    return _evaluate(num)


def _deletion_map_off_by_weight(v, w, den, t, wd, c, s, variant):
    """The intercept is off by the digit weight times the prefix weight,
    wd/c * w/den, when the digit term t/c has a denominator divisible by 3."""
    sn, sd, tn, td = _deletion_map(v, w, den, t, wd, c, s, variant)
    if Fraction(t, c).denominator % 3 == 0:
        return sn, sd, tn * c * den + wd * w * td, td * c * den
    return sn, sd, tn, td


def _digits_equal_unless(a, b):
    """Streams whose prefix length is 1 mod 3 never compare equal."""
    return _digits_equal(a, b) and len(a.digits.prefix) % 3 != 1


def _generalized_shift_past_one(num, m, variant=operators.ShiftVariant.DIGIT):
    """Position m + 1 is deleted in place of m when the digit at m is 1."""
    return _generalized_shift(num, m + (numbers.digit_at(num, m) == 1), variant)


PATCHES = {
    "evaluate": (numbers, "_evaluate", _evaluate_without_tail),
    "deletion_map": (analysis, "_deletion_map", _deletion_map_off_by_weight),
    "digits_equal": (numbers, "digits_equal", _digits_equal_unless),
    "generalized_shift": (operators, "generalized_shift", _generalized_shift_past_one),
}
# The patch that makes some, but not all, trials of each suite fail.
SUITE_PATCH = {name: "evaluate" for name in verify.SUITE_NAMES}
SUITE_PATCH["segments"] = "deletion_map"
SUITE_PATCH["constant_alphabet"] = "digits_equal"
# Both sides of the composition identities are built the same way, so a
# fault keyed on how a stream is written hits both; these key on a digit.
SUITE_PATCH["theorem_a"] = SUITE_PATCH["theorem_b"] = "generalized_shift"


def failing_report(suite, monkeypatch):
    module, attr, fn = PATCHES[SUITE_PATCH[suite]]
    with monkeypatch.context() as patch:
        patch.setattr(module, attr, fn)
        result = verify.run_suite(verify.VerifyConfig(suite, trials=TRIALS, seed=SEED))
    return {"passed": result.passed, "failures": result.failures, "notes": result.notes}


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_failure_records_match_golden(suite, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[suite]
    report = json.loads(json.dumps(failing_report(suite, monkeypatch)))
    assert 0 < report["passed"] < TRIALS
    assert report == golden


def test_golden_covers_every_suite():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(verify.SUITE_NAMES)


def test_raising_trial_records_its_case(monkeypatch):
    """A trial that raises names the number and m it drew, as documents from
    which the error is raised again."""

    remove_index = operators.remove_index
    # deletion that drops position m+1 builds numbers that do not fit their system
    monkeypatch.setattr(operators, "remove_index",
                        lambda system, m: remove_index(system, m + 1))
    failures = verify.run_suite(verify.VerifyConfig("eq4", trials=16, seed=1)).failures
    record = next(f for f in failures if f["trial"] == 2)
    assert list(record) == ["trial", "number", "m", "error"]
    assert record["error"] == "DigitRangeError: digit 5 outside alphabet 0..2 at position 6"
    num = doc_to_number(record["number"])
    with pytest.raises(DigitRangeError, match="^digit 5 outside alphabet 0..2 at position 6$"):
        operators.generalized_shift(num, record["m"])
    assert all(set(f) == {"trial", "number", "m", "error"} for f in failures if "error" in f)


def test_run_trials_writes_every_record():
    """A record is the trial number, then the case in draw order (numbers,
    systems and rationals as documents), then what the trial found; a
    raising trial's finding is its error, and a trial that found nothing
    beyond its case adds no key."""
    num = RepresentedNumber(DEC, DigitStream((1,), TAIL_ZEROS))

    def trial(rng, t, case):
        case["m"] = t
        case["number"] = num
        if t == 0:
            return None
        case["value"] = Fraction(1, 3)
        case["system"] = DEC
        if t == 1:
            return {"lhs": "1", "rhs": "2"}
        if t == 2:
            return {}
        raise ValueError("no digit")

    cfg = verify.VerifyConfig("synthetic", trials=4)
    result = verify._run_trials("synthetic", cfg, trial)
    assert (result.passed, result.total) == (1, 4)
    case = {"number": number_to_doc(num), "value": "1/3", "system": system_to_doc(DEC)}
    assert [list(record.items()) for record in result.failures] == [
        [("trial", 1), ("m", 1), *case.items(), ("lhs", "1"), ("rhs", "2")],
        [("trial", 2), ("m", 2), *case.items()],
        [("trial", 3), ("m", 3), *case.items(), ("error", "ValueError: no digit")],
    ]


def test_constant_alphabet_records_name_their_number(monkeypatch):
    """Each failure record of a suite that draws a system and numbers holds
    the system and every number it drew, and each number rebuilds over the
    record's system, so the trial can be replayed."""
    number_keys = {"constant_alphabet": ("number",), "general_signed": ("number",),
                   "duality": ("beta_side", "gamma_side"), "roundtrip": ("number",)}
    for suite, keys in number_keys.items():
        failures = failing_report(suite, monkeypatch)["failures"]
        assert failures, suite
        for record in failures:
            system = doc_to_system(record["system"])
            for key in keys:
                assert doc_to_number(record[key]).system == system, (suite, key)


if __name__ == "__main__":
    # Rewrite the golden from the current code:
    #   PYTHONPATH=src python tests/test_verify.py
    with pytest.MonkeyPatch.context() as monkeypatch:
        reports = {suite: failing_report(suite, monkeypatch) for suite in verify.SUITE_NAMES}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")

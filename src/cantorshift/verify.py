"""Seeded property-verification suites.

Each suite draws `trials` cases from a deterministic per-trial RNG and
checks one family of exact identities.  Identical (suite, trials, seed,
bounds) configurations produce identical reports.
"""

import random
from fractions import Fraction
from math import prod

from .analysis import _images_ints, _row_samples, _segment_ints, continuity_at
from .decoding import canonicalize, decode, is_quasi_rational, position_table, quasi_partner
from .errors import ExpansionError
from .numbers import (
    RepresentedNumber,
    TAIL_ZEROS,
    DigitStream,
    digit_at,
    evaluate,
    make_stream,
    same_number,
)
from .operators import (
    ShiftVariant,
    _consecutive_sides,
    _residual_sides,
    _same_rep,
    _shift_compose_sides,
    _subsequence_sides,
    closed_form_value,
    generalized_shift,
)
from .sampling import (
    SIGN_CASES,
    dual_pair,
    rand_cantor_system,
    rand_dual_case,
    rand_number,
    rand_positive_cantor_number,
    rand_qtilde_system,
    rand_segment_system,
    sign_case_pattern,
)
from .series import EventuallyPeriodicSeq
from .systems import (
    CantorSystem,
    QTildeSystem,
    SignPattern,
    _sign_variable_columns,
    base_interval,
    combined_cycle_len,
    combined_prefix_len,
)
from .writers import number_to_doc, system_to_doc

__all__ = ["VerifyConfig", "SuiteResult", "SUITE_NAMES", "run_suite", "format_report"]

_M64 = (1 << 64) - 1


def trial_rng(seed, index):
    sub = ((seed & _M64) * 6364136223846793005 + index * 1442695040888963407 + 1) & _M64
    return random.Random(sub)


class VerifyConfig:
    def __init__(self, suite, trials=1000, seed=0, max_q=12, max_prefix=12, max_m=8):
        self.suite = suite
        self.trials = trials
        self.seed = seed
        self.max_q = max_q
        self.max_prefix = max_prefix
        self.max_m = max_m


class SuiteResult:
    def __init__(self, name, passed, total, failures=None, notes=None):
        self.name = name
        self.passed = passed
        self.total = total
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    @property
    def ok(self):
        return self.passed == self.total


def _case_doc(case):
    """A trial's drawn objects as JSON values: numbers and systems as
    documents, rationals as strings."""
    doc = {}
    for key, value in case.items():
        if isinstance(value, RepresentedNumber):
            value = number_to_doc(value)
        elif isinstance(value, (CantorSystem, QTildeSystem)):
            value = system_to_doc(value)
        elif isinstance(value, Fraction):
            value = str(value)
        doc[key] = value
    return doc


def _run_trials(name, cfg, trial):
    """The one trial loop of every suite and the one writer of failure
    records.  trial(rng, t, case) draws case t from its own RNG, stores
    each drawn object in the dict `case` as soon as it is drawn, and
    returns None on a pass; on a failure it returns a dict of what it
    found, {} when it found nothing beyond the case.  A trial that raises
    a domain or arithmetic error fails, and its finding is the error;
    MemoryError propagates.  A record is the trial number, then the case
    drawn so far as documents (made only then), in draw order, then the
    finding."""
    result = SuiteResult(name, 0, cfg.trials)
    for t in range(cfg.trials):
        case = {}
        try:
            found = trial(trial_rng(cfg.seed, t), t, case)
        except (ExpansionError, ValueError, ArithmeticError) as exc:
            found = {"error": f"{type(exc).__name__}: {exc}"}
        if found is None:
            result.passed += 1
        else:
            result.failures.append({"trial": t, **_case_doc(case), **found})
    return result


def _closed_form_ok(num, m, variant):
    return evaluate(generalized_shift(num, m, variant)) == closed_form_value(num, m, variant)


def _shrink_closed_form(num, m, variant):
    """Greedy minimization: drop trailing digits, simplify the tail, and
    lower m while the mismatch persists."""
    while True:
        for candidate, cm in _closed_form_shrink_steps(num, m):
            if not _closed_form_ok(candidate, cm, variant):
                num, m = candidate, cm
                break
        else:
            return num, m


def _closed_form_shrink_steps(num, m):
    stream = num.digits
    if stream.tail.kind != "zeros":
        yield RepresentedNumber(num.system, DigitStream(stream.prefix, TAIL_ZEROS)), m
    if stream.prefix:
        try:  # a cycle tail that starts one position earlier may not fit the system
            yield RepresentedNumber(num.system, DigitStream(stream.prefix[:-1], stream.tail)), m
        except ExpansionError:
            pass
    if m > 1:
        yield num, m - 1


def _closed_form_trial(case, variant):
    """None when surgery and closed form agree on the case's number and m.
    Else the minimized pair replaces them in the case, and the finding is
    the variant and the two values at that pair."""
    num, m = case["number"], case["m"]
    if _closed_form_ok(num, m, variant):
        return None
    case["number"], case["m"] = num, m = _shrink_closed_form(num, m, variant)
    return {"variant": variant.value,
            "surgery": str(evaluate(generalized_shift(num, m, variant))),
            "closed_form": str(closed_form_value(num, m, variant))}


def _closed_form_suite(name, cfg, draw_number, variant):
    """Closed-form suite whose trial draws a number (system first), then m."""
    def trial(rng, t, case):
        case["number"] = draw_number(rng)
        case["m"] = rng.randrange(1, cfg.max_m + 1)
        return _closed_form_trial(case, variant)

    return _run_trials(name, cfg, trial)


def _suite_eq4(cfg):
    return _closed_form_suite(
        "eq4", cfg, lambda rng: rand_positive_cantor_number(rng, cfg.max_q, cfg.max_prefix),
        ShiftVariant.DIGIT)


def _suite_alternating(cfg):
    return _closed_form_suite(
        "alternating", cfg,
        lambda rng: rand_number(rng, rand_cantor_system(rng, cfg.max_q, signs="odd"),
                                cfg.max_prefix),
        ShiftVariant.POSITION)


def _suite_qtilde(cfg):
    return _closed_form_suite(
        "qtilde", cfg,
        lambda rng: rand_number(rng, rand_qtilde_system(rng, signs="any"), cfg.max_prefix),
        ShiftVariant.DIGIT)


def _suite_general_signed(cfg):
    def trial(rng, t, case):
        case["m"] = m = rng.randrange(1, cfg.max_m + 1)
        pattern = sign_case_pattern(rng, m, SIGN_CASES[t % 4])
        case["system"] = system = rand_cantor_system(rng, cfg.max_q, sign_pattern=pattern)
        case["number"] = rand_number(rng, system, cfg.max_prefix)
        return _closed_form_trial(case, ShiftVariant.DIGIT)

    return _run_trials("general_signed", cfg, trial)


def _suite_theorem_a(cfg):
    def trial(rng, t, case):
        case["number"] = num = rand_positive_cantor_number(rng, cfg.max_q, cfg.max_prefix)
        case["m"] = m = t % 9  # 0..8 applications of the deletion at position 2
        lhs, rhs = _shift_compose_sides(num, m)
        if _same_rep(lhs, rhs):
            return None
        return {"lhs": str(evaluate(lhs)), "rhs": str(evaluate(rhs))}

    return _run_trials("theorem_a", cfg, trial)


def _suite_theorem_b(cfg):
    printed_holds = 0

    def trial(rng, t, case):
        nonlocal printed_holds
        case["number"] = num = rand_positive_cantor_number(rng, cfg.max_q, cfg.max_prefix)
        n = rng.randrange(1, 5)
        indices = tuple(sorted(rng.sample(range(1, 13), n)))
        case["indices"] = list(indices)
        ok = _same_rep(*_subsequence_sides(num, indices))

        # consecutive run corollary: k1-1 closes the gap exactly
        k1 = rng.randrange(1, 7)
        run = tuple(range(k1, k1 + rng.randrange(1, 5)))
        case["run_start"], case["run_len"] = k1, len(run)
        adjusted, printed, target = _consecutive_sides(num, run)
        ok = ok and _same_rep(adjusted, target)
        printed_holds += _same_rep(printed, target)
        return None if ok else {}

    result = _run_trials("theorem_b", cfg, trial)
    result.notes.append(
        "consecutive-run exponent: k1-1 verified in every trial; the k1+1 variant "
        f"held only degenerately in {printed_holds}/{cfg.trials} trials "
        "(periodic tails), so it is recorded as failing"
    )
    return result


def _leading_weight(system, m):
    return Fraction(1, prod(system.base_at(k) for k in range(1, m)))


def _suite_jump(cfg):
    signs_seen = set()

    def trial(rng, t, case):
        flavor = t % 5
        system, n, beta_side, gamma_side = rand_dual_case(rng, cfg.max_q, flavor)
        case["number"], case["n"] = beta_side, n
        report = continuity_at(system, n, beta_side)
        expected = _leading_weight(system, n)
        signs_seen.add(1 if report.jump > 0 else -1 if report.jump < 0 else 0)
        ok = (
            evaluate(beta_side) == evaluate(gamma_side)
            and report.kind == "jump"
            and abs(report.jump) == expected
        )
        if flavor == 0:
            ok = ok and report.jump == -expected
        if ok:
            return None
        return {"jump": str(report.jump), "expected_magnitude": str(expected)}

    result = _run_trials("jump", cfg, trial)
    observed = ", ".join(str(s) for s in sorted(signs_seen)) or "none"
    result.notes.append(
        "jump signs observed (beta-side limit minus gamma-side limit), "
        f"digit-signed deletion: {{{observed}}}"
    )
    return result


def _suite_continuity(cfg):
    def trial(rng, t, case):
        system, n, beta_side, gamma_side = rand_dual_case(rng, cfg.max_q, t % 5)
        case["number"], case["n"] = beta_side, n
        if n > 1 and rng.random() < 0.5:
            m = rng.randrange(1, n)
        else:
            m = n + rng.randrange(1, 4)
        case["m"] = m
        left = closed_form_value(gamma_side, m)
        right = closed_form_value(beta_side, m)
        report = continuity_at(system, m, beta_side)
        if left == right and report.kind == "continuous" and report.jump == 0:
            return None
        return {"left": str(left), "right": str(right)}

    return _run_trials("continuity", cfg, trial)


def _suite_duality(cfg):
    def trial(rng, t, case):
        flavor = t % 5
        case["n"] = n = rng.randrange(1, 5)
        if flavor < 4:
            pattern = sign_case_pattern(rng, n, SIGN_CASES[flavor])
            system = rand_cantor_system(rng, cfg.max_q, sign_pattern=pattern)
        else:
            system = rand_qtilde_system(rng, signs="none")
        case["system"] = system
        beta_side, gamma_side = dual_pair(rng, system, n)
        case["beta_side"], case["gamma_side"] = beta_side, gamma_side
        partner = quasi_partner(beta_side)
        ok = (
            evaluate(beta_side) == evaluate(gamma_side)
            and partner is not None
            and same_number(partner, gamma_side)
            and is_quasi_rational(gamma_side)
        )
        return None if ok else {}

    return _run_trials("duality", cfg, trial)


def _suite_residual(cfg):
    def trial(rng, t, case):
        case["number"] = num = rand_positive_cantor_number(rng, cfg.max_q, cfg.max_prefix)
        case["m"] = m = rng.randrange(1, min(cfg.max_m, 10) + 1)
        lhs, rhs = _residual_sides(num, m)
        if lhs == rhs:
            return None
        return {"lhs": str(lhs), "rhs": str(rhs)}

    return _run_trials("residual", cfg, trial)


def _decode_depth(system, extra):
    return extra + combined_prefix_len(system) + 4 * combined_cycle_len(system) + 16


def _suite_roundtrip(cfg):
    def trial(rng, t, case):
        flavor = t % 3
        if flavor == 0:
            system = rand_cantor_system(rng, cfg.max_q, signs="none")
        elif flavor == 1:
            system = rand_cantor_system(rng, cfg.max_q, signs="any")
        else:
            system = rand_qtilde_system(rng, signs="none")
        case["system"] = system
        # value -> digits -> value
        if isinstance(system, CantorSystem):
            k = rng.randrange(1, 9)
            den = prod(system.base_at(j) for j in range(1, k + 1))
            v = base_interval(system).lo + Fraction(rng.randrange(0, den + 1), den)
        else:
            probe = rand_number(rng, system, max_prefix=8, tail_kinds=("zeros",))
            k = len(probe.digits.prefix)
            v = evaluate(probe)
        case["value"] = v
        ok = evaluate(decode(system, v, _decode_depth(system, k))) == v
        # digits -> value -> canonical digits
        case["number"] = num = rand_number(rng, system, cfg.max_prefix)
        canon = canonicalize(num)
        ok = ok and evaluate(canon) == evaluate(num) and canonicalize(canon) == canon
        partner = quasi_partner(num)
        if partner is not None:
            ok = ok and canonicalize(partner) == canon
        return None if ok else {}

    return _run_trials("roundtrip", cfg, trial)


def _segments_ok(system, m, expected_count):
    """The rank-m segment table has expected_count rows.  Unless the
    system is a sign-variable column system, whose cylinders can overlap
    and which gets the count check only, the rows also tile the
    representable interval, each row's map agrees with point_image (the
    decode-residual formula) at three interior points, and Cantor rows
    have slope q_m.  Every check runs on integers: the table's lo ends
    share the denominator d_lo and its hi ends d_hi.  The tiling is
    checked by its ends alone: the first row starts at the interval's lo,
    the last ends at its hi, and each row ends where the next starts.
    Every row has lo <= hi, since every residual interval of the position
    table is ordered, so the widths then sum to the interval's and every
    point lies inside it.  After the slopes, `graph`'s `_row_samples`
    points are decoded in one batch by the integer core of point_image,
    and each row image is cross-multiplied with the decoded one."""
    rows, d_lo, d_hi = _segment_ints(system, m)
    if len(rows) != expected_count:
        return False
    if _sign_variable_columns(system):
        return True
    positions = position_table(system)
    lo_num, lo_den, hi_num, hi_den = positions.tail(0)
    if (
        rows[0][0] * lo_den != lo_num * d_lo
        or rows[-1][1] * hi_den != hi_num * d_hi
        or any(a[1] * d_lo != b[0] * d_hi for a, b in zip(rows, rows[1:]))
    ):
        return False
    # a column system's slope depends on the cylinder's digit at m
    if isinstance(system, CantorSystem):
        q_m = system.base_at(m)
        if any(sn != q_m * sd for _, _, sn, sd, _, _ in rows):
            return False
    points, den = _row_samples(rows, d_lo, d_hi, 3)
    images = _images_ints(positions, [x for x, _, _ in points], den, m, 1)
    return all(y_num * img_den == img_num * y_den
               for (_, y_num, y_den), (img_num, img_den) in zip(points, images))


def _suite_segments(cfg):
    def trial(rng, t, case):
        case["system"] = system = rand_segment_system(rng, t % 4)
        m = rng.randrange(1, 5)
        expected_count = prod(system.max_digit(j) + 1 for j in range(1, m + 1))
        while m > 1 and expected_count > 512:
            expected_count //= system.max_digit(m) + 1
            m -= 1
        case["m"] = m
        return None if _segments_ok(system, m, expected_count) else {}

    result = _run_trials("segments", cfg, trial)
    result.notes.append(
        "sign-variable column systems are checked for segment count only; their "
        "cylinders can overlap, so exact tiling is asserted for Cantor and "
        "positive column systems"
    )
    return result


def _suite_constant_alphabet(cfg):
    def trial(rng, t, case):
        case["m"] = m = rng.randrange(1, cfg.max_m + 1)
        if t % 2 == 0:
            q = rng.randrange(2, cfg.max_q + 1)
            signs = (SignPattern.none() if rng.random() < 0.5
                     else SignPattern.explicit((), (True,)))
            case["system"] = system = CantorSystem(EventuallyPeriodicSeq((), (q,)), signs)
            case["number"] = num = rand_number(rng, system, cfg.max_prefix)
            out = generalized_shift(num, m)
            deletion = RepresentedNumber(
                system,
                make_stream(
                    system,
                    lambda n: digit_at(num, n) if n < m else digit_at(num, n + 1),
                    max(m, len(num.digits.prefix)) + 1,
                    combined_cycle_len(system)
                    * (len(num.digits.tail.cycle) if num.digits.tail.kind == "cycle" else 1),
                ),
            )
            ok = out.system == system and same_number(out, deletion)
        else:
            qs = rng.sample(range(2, cfg.max_q + 1), 2)
            prefix = [rng.randrange(2, cfg.max_q + 1) for _ in range(m + 1)]
            prefix[m - 1], prefix[m] = qs[0], qs[1]
            case["system"] = system = CantorSystem(
                EventuallyPeriodicSeq(tuple(prefix), (qs[0],)), SignPattern.none()
            )
            case["number"] = num = rand_number(rng, system, cfg.max_prefix)
            out = generalized_shift(num, m)
            ok = out.system != system
        return None if ok else {}

    return _run_trials("constant_alphabet", cfg, trial)


SUITES = {
    "eq4": _suite_eq4,
    "alternating": _suite_alternating,
    "general_signed": _suite_general_signed,
    "qtilde": _suite_qtilde,
    "theorem_a": _suite_theorem_a,
    "theorem_b": _suite_theorem_b,
    "jump": _suite_jump,
    "continuity": _suite_continuity,
    "duality": _suite_duality,
    "residual": _suite_residual,
    "roundtrip": _suite_roundtrip,
    "segments": _suite_segments,
    "constant_alphabet": _suite_constant_alphabet,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(cfg):
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    return SUITES[cfg.suite](cfg)


def format_report(results):
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"{r.name}: {r.passed}/{r.total} {status}")
        for note in r.notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines)

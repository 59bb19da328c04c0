"""Seeded property-verification suites.

Each suite draws `trials` cases from a deterministic per-trial RNG and
checks one family of exact identities.  Identical (suite, trials, seed,
bounds) configurations produce identical reports.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from . import documents
from .analysis import continuity_at, point_image, segment_table
from .errors import ExpansionError
from .numbers import (
    RepresentedNumber,
    TAIL_ZEROS,
    DigitStream,
    canonicalize,
    decode,
    digit_at,
    evaluate,
    is_quasi_rational,
    make_stream,
    quasi_partner,
    same_number,
)
from .operators import (
    ShiftVariant,
    _consecutive_sides,
    _same_rep,
    _shift_compose_sides,
    _subsequence_sides,
    closed_form_value,
    generalized_shift,
    iterate_shift,
)
from .sampling import (
    SIGN_CASES,
    dual_pair,
    rand_cantor_system,
    rand_number,
    rand_qtilde_system,
    sign_case_pattern,
)
from .series import EventuallyPeriodicSeq
from .systems import (
    CantorSystem,
    SignPattern,
    base_interval,
    combined_cycle_len,
    combined_prefix_len,
)

__all__ = ["VerifyConfig", "SuiteResult", "SUITE_NAMES", "run_suite", "format_report"]

_M64 = (1 << 64) - 1


def trial_rng(seed, index):
    sub = ((seed & _M64) * 6364136223846793005 + index * 1442695040888963407 + 1) & _M64
    return random.Random(sub)


@dataclass
class VerifyConfig:
    suite: str
    trials: int = 1000
    seed: int = 0
    max_q: int = 12
    max_prefix: int = 12
    max_m: int = 8


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return self.passed == self.total


def _num_doc(num):
    return documents.number_to_doc(num)


def _closed_form_case(num, m, variant):
    return {
        "number": _num_doc(num),
        "m": m,
        "variant": variant.value,
        "surgery": str(evaluate(generalized_shift(num, m, variant))),
        "closed_form": str(closed_form_value(num, m, variant)),
    }


def _closed_form_ok(num, m, variant):
    return evaluate(generalized_shift(num, m, variant)) == closed_form_value(num, m, variant)


def _shrink_closed_form(num, m, variant):
    """Greedy minimization: drop trailing digits, simplify the tail, and
    lower m while the mismatch persists."""
    while True:
        for candidate, cm in _closed_form_shrink_steps(num, m):
            try:
                if not _closed_form_ok(candidate, cm, variant):
                    num, m = candidate, cm
                    break
            except ExpansionError:
                continue
        else:
            return num, m


def _closed_form_shrink_steps(num, m):
    stream = num.digits
    if stream.tail.kind != "zeros":
        yield RepresentedNumber(num.system, DigitStream(stream.prefix, TAIL_ZEROS)), m
    if stream.prefix:
        yield RepresentedNumber(num.system, DigitStream(stream.prefix[:-1], stream.tail)), m
    if m > 1:
        yield num, m - 1


def _run_closed_form_suite(name, cfg, case_fn):
    result = SuiteResult(name, 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        num, m, variant = case_fn(rng, t)
        if _closed_form_ok(num, m, variant):
            result.passed += 1
        else:
            snum, sm = _shrink_closed_form(num, m, variant)
            result.failures.append({"trial": t, **_closed_form_case(snum, sm, variant)})
    return result


def _suite_eq4(cfg):
    def case(rng, t):
        system = rand_cantor_system(rng, cfg.max_q, signs="none")
        num = rand_number(rng, system, cfg.max_prefix)
        m = rng.randrange(1, cfg.max_m + 1)
        return num, m, ShiftVariant.DIGIT

    return _run_closed_form_suite("eq4", cfg, case)


def _suite_alternating(cfg):
    def case(rng, t):
        system = rand_cantor_system(rng, cfg.max_q, signs="odd")
        num = rand_number(rng, system, cfg.max_prefix)
        m = rng.randrange(1, cfg.max_m + 1)
        return num, m, ShiftVariant.POSITION

    return _run_closed_form_suite("alternating", cfg, case)


def _suite_general_signed(cfg):
    def case(rng, t):
        m = rng.randrange(1, cfg.max_m + 1)
        pattern = sign_case_pattern(rng, m, SIGN_CASES[t % 4])
        system = rand_cantor_system(rng, cfg.max_q, sign_pattern=pattern)
        num = rand_number(rng, system, cfg.max_prefix)
        return num, m, ShiftVariant.DIGIT

    return _run_closed_form_suite("general_signed", cfg, case)


def _suite_qtilde(cfg):
    def case(rng, t):
        system = rand_qtilde_system(rng, signs="any")
        num = rand_number(rng, system, cfg.max_prefix)
        m = rng.randrange(1, cfg.max_m + 1)
        return num, m, ShiftVariant.DIGIT

    return _run_closed_form_suite("qtilde", cfg, case)


def _suite_theorem_a(cfg):
    result = SuiteResult("theorem_a", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        system = rand_cantor_system(rng, cfg.max_q, signs="none")
        num = rand_number(rng, system, cfg.max_prefix)
        m = t % 9  # 0..8 applications of the deletion at position 2
        lhs, rhs = _shift_compose_sides(num, m)
        if _same_rep(lhs, rhs):
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "number": _num_doc(num), "m": m,
                 "lhs": str(evaluate(lhs)), "rhs": str(evaluate(rhs))}
            )
    return result


def _suite_theorem_b(cfg):
    result = SuiteResult("theorem_b", 0, cfg.trials)
    printed_holds = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        system = rand_cantor_system(rng, cfg.max_q, signs="none")
        num = rand_number(rng, system, cfg.max_prefix)
        n = rng.randrange(1, 5)
        indices = tuple(sorted(rng.sample(range(1, 13), n)))
        ok = _same_rep(*_subsequence_sides(num, indices))

        # consecutive run corollary: k1-1 closes the gap exactly
        k1 = rng.randrange(1, 7)
        run = tuple(range(k1, k1 + rng.randrange(1, 5)))
        adjusted, printed, target = _consecutive_sides(num, run)
        ok = ok and _same_rep(adjusted, target)
        if _same_rep(printed, target):
            printed_holds += 1

        if ok:
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "number": _num_doc(num), "indices": list(indices),
                 "run_start": k1, "run_len": len(run)}
            )
    result.notes.append(
        "consecutive-run exponent: k1-1 verified in every trial; the k1+1 variant "
        f"held only degenerately in {printed_holds}/{cfg.trials} trials "
        "(periodic tails), so it is recorded as failing"
    )
    return result


def _leading_weight(system, m):
    w = Fraction(1)
    for k in range(1, m):
        w /= system.base_at(k)
    return w


def _suite_jump(cfg):
    result = SuiteResult("jump", 0, cfg.trials)
    signs_seen = set()
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        flavor = t % 5
        n = rng.randrange(1, 5)
        if flavor == 0:
            system = rand_cantor_system(rng, cfg.max_q, signs="none")
        else:
            pattern = sign_case_pattern(rng, n, SIGN_CASES[flavor - 1])
            system = rand_cantor_system(rng, cfg.max_q, sign_pattern=pattern)
        beta_side, gamma_side = dual_pair(rng, system, n)
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
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "number": _num_doc(beta_side), "n": n,
                 "jump": str(report.jump), "expected_magnitude": str(expected)}
            )
    observed = ", ".join(str(s) for s in sorted(signs_seen)) or "none"
    result.notes.append(
        "jump signs observed (beta-side limit minus gamma-side limit), "
        f"digit-signed deletion: {{{observed}}}"
    )
    return result


def _suite_continuity(cfg):
    result = SuiteResult("continuity", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        flavor = t % 5
        n = rng.randrange(1, 5)
        if flavor == 0:
            system = rand_cantor_system(rng, cfg.max_q, signs="none")
        else:
            pattern = sign_case_pattern(rng, n, SIGN_CASES[flavor - 1])
            system = rand_cantor_system(rng, cfg.max_q, sign_pattern=pattern)
        beta_side, gamma_side = dual_pair(rng, system, n)
        if n > 1 and rng.random() < 0.5:
            m = rng.randrange(1, n)
        else:
            m = n + rng.randrange(1, 4)
        left = closed_form_value(gamma_side, m)
        right = closed_form_value(beta_side, m)
        report = continuity_at(system, m, beta_side)
        if left == right and report.kind == "continuous" and report.jump == 0:
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "number": _num_doc(beta_side), "n": n, "m": m,
                 "left": str(left), "right": str(right)}
            )
    return result


def _suite_duality(cfg):
    result = SuiteResult("duality", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        flavor = t % 5
        n = rng.randrange(1, 5)
        if flavor < 4:
            pattern = sign_case_pattern(rng, n, SIGN_CASES[flavor])
            system = rand_cantor_system(rng, cfg.max_q, sign_pattern=pattern)
        else:
            system = rand_qtilde_system(rng, signs="none")
        beta_side, gamma_side = dual_pair(rng, system, n)
        partner = quasi_partner(beta_side)
        ok = (
            evaluate(beta_side) == evaluate(gamma_side)
            and partner is not None
            and same_number(partner, gamma_side)
            and is_quasi_rational(gamma_side)
        )
        if ok:
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "beta_side": _num_doc(beta_side),
                 "gamma_side": _num_doc(gamma_side), "n": n}
            )
    return result


def _suite_residual(cfg):
    result = SuiteResult("residual", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        system = rand_cantor_system(rng, cfg.max_q, signs="none")
        num = rand_number(rng, system, cfg.max_prefix)
        m = rng.randrange(1, min(cfg.max_m, 10) + 1)
        x = evaluate(num)
        q_m = system.base_at(m)
        w_m = _leading_weight(system, m) / q_m
        lhs = x - closed_form_value(num, m)
        rhs = digit_at(num, m) * w_m + evaluate(iterate_shift(num, m)) * (1 - q_m) * w_m
        if lhs == rhs:
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "number": _num_doc(num), "m": m,
                 "lhs": str(lhs), "rhs": str(rhs)}
            )
    return result


def _decode_depth(system, extra):
    return extra + combined_prefix_len(system) + 4 * combined_cycle_len(system) + 16


def _suite_roundtrip(cfg):
    result = SuiteResult("roundtrip", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        flavor = t % 3
        if flavor == 0:
            system = rand_cantor_system(rng, cfg.max_q, signs="none")
        elif flavor == 1:
            system = rand_cantor_system(rng, cfg.max_q, signs="any")
        else:
            system = rand_qtilde_system(rng, signs="none")
        ok = True
        # value -> digits -> value
        if isinstance(system, CantorSystem):
            k = rng.randrange(1, 9)
            den = 1
            for j in range(1, k + 1):
                den *= system.base_at(j)
            iv = base_interval(system)
            v = iv.lo + Fraction(rng.randrange(0, den + 1), den)
        else:
            probe = rand_number(rng, system, max_prefix=8, tail_kinds=("zeros",))
            k = len(probe.digits.prefix)
            v = evaluate(probe)
        rep = decode(system, v, _decode_depth(system, k))
        ok = ok and evaluate(rep) == v
        # digits -> value -> canonical digits
        num = rand_number(rng, system, cfg.max_prefix)
        canon = canonicalize(num)
        ok = ok and evaluate(canon) == evaluate(num)
        ok = ok and canonicalize(canon) == canon
        partner = quasi_partner(num)
        if partner is not None:
            ok = ok and canonicalize(partner) == canon
        if ok:
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "system": documents.system_to_doc(system),
                 "value": str(v), "number": _num_doc(num)}
            )
    return result


def _small_segment_system(rng, flavor):
    if flavor in (0, 1):
        prefix = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(0, 3)))
        cycle = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(1, 3)))
        signs = SignPattern.none() if flavor == 0 else rand_sign_pattern_for_segments(rng)
        return CantorSystem(EventuallyPeriodicSeq(prefix, cycle), signs)
    from .sampling import rand_column

    prefix = tuple(rand_column(rng, 12) for _ in range(rng.randrange(0, 2)))
    cycle = tuple(rand_column(rng, 12) for _ in range(rng.randrange(1, 3)))
    signs = SignPattern.none() if flavor == 2 else rand_sign_pattern_for_segments(rng)
    from .systems import QTildeSystem

    return QTildeSystem(EventuallyPeriodicSeq(prefix, cycle), signs)


def rand_sign_pattern_for_segments(rng):
    pattern = SignPattern.none()
    while not pattern.has_members():
        prefix = [rng.random() < 0.5 for _ in range(rng.randrange(0, 3))]
        cycle = [rng.random() < 0.5 for _ in range(rng.randrange(1, 3))]
        pattern = SignPattern.explicit(prefix, cycle)
    return pattern


def _suite_segments(cfg):
    result = SuiteResult("segments", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        flavor = t % 4  # signed column systems get the count check only
        system = _small_segment_system(rng, flavor)
        m = rng.randrange(1, 5)
        expected_count = prod(system.max_digit(j) + 1 for j in range(1, m + 1))
        while m > 1 and expected_count > 512:
            expected_count //= system.max_digit(m) + 1
            m -= 1
        table = segment_table(system, m)
        ok = len(table) == expected_count
        if flavor != 3 and ok:
            iv = base_interval(system)
            total = sum((interval.width for interval, _ in table), Fraction(0))
            ok = ok and total == iv.width
            ok = ok and table[0][0].lo == iv.lo and table[-1][0].hi == iv.hi
            ok = ok and all(
                table[i][0].hi == table[i + 1][0].lo for i in range(len(table) - 1)
            )
            if isinstance(system, CantorSystem):
                expected_slope = Fraction(system.base_at(m))
            else:
                expected_slope = None  # depends on the cylinder's digit at m
            for interval, affine in table:
                if expected_slope is not None and affine.slope != expected_slope:
                    ok = False
                    break
                xs = [interval.lo + interval.width * Fraction(j, 4) for j in (1, 2, 3)]
                ys = [point_image(system, x, m) for x in xs]
                if any(y != affine.apply(x) for x, y in zip(xs, ys)):
                    ok = False
                    break
                if (ys[1] - ys[0]) * (xs[2] - xs[1]) != (ys[2] - ys[1]) * (xs[1] - xs[0]):
                    ok = False
                    break
        if ok:
            result.passed += 1
        else:
            result.failures.append(
                {"trial": t, "system": documents.system_to_doc(system), "m": m}
            )
    result.notes.append(
        "sign-variable column systems are checked for segment count only; their "
        "cylinders can overlap, so exact tiling is asserted for Cantor and "
        "positive column systems"
    )
    return result


def _suite_constant_alphabet(cfg):
    result = SuiteResult("constant_alphabet", 0, cfg.trials)
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        m = rng.randrange(1, cfg.max_m + 1)
        if t % 2 == 0:
            q = rng.randrange(2, cfg.max_q + 1)
            signs = SignPattern.none() if rng.random() < 0.5 else SignPattern.explicit((), (True,))
            system = CantorSystem(EventuallyPeriodicSeq((), (q,)), signs)
            num = rand_number(rng, system, cfg.max_prefix)
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
            system = CantorSystem(
                EventuallyPeriodicSeq(tuple(prefix), (qs[0],)), SignPattern.none()
            )
            num = rand_number(rng, system, cfg.max_prefix)
            out = generalized_shift(num, m)
            ok = out.system != system
        if ok:
            result.passed += 1
        else:
            result.failures.append({"trial": t, "m": m,
                                    "system": documents.system_to_doc(system)})
    return result


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

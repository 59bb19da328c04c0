"""Seeded random generation of systems, digit streams, and paired
two-representation points for the property suites.

Every generator takes an explicit random.Random so that a (seed, trial)
pair determines the case exactly.
"""

from .numbers import _TAIL_KINDS, DigitStream, RepresentedNumber, Tail, make_stream
from .series import EventuallyPeriodicSeq
from .systems import (
    _NAMED_SIGNS,
    CantorSystem,
    QTildeColumn,
    QTildeSystem,
    SignPattern,
    combined_cycle_len,
    combined_prefix_len,
)

__all__ = [
    "rand_sign_pattern",
    "sign_case_pattern",
    "rand_cantor_system",
    "rand_qtilde_system",
    "rand_stream",
    "rand_number",
    "rand_positive_cantor_number",
    "dual_pair",
    "rand_dual_case",
    "rand_segment_system",
]

SIGN_CASES = ((False, False), (False, True), (True, False), (True, True))


def rand_sign_pattern(rng, mode="any"):
    if mode == "any":
        mode = rng.choice(("none", "none", "odd", "even", "explicit"))
    if mode in _NAMED_SIGNS:
        return _NAMED_SIGNS[mode]
    prefix = [rng.random() < 0.5 for _ in range(rng.randrange(0, 3))]
    cycle = [rng.random() < 0.5 for _ in range(rng.randrange(1, 5))]
    return SignPattern.explicit(prefix, cycle)


def sign_case_pattern(rng, n, case):
    """Sign pattern whose membership at positions (n, n+1) equals `case`,
    random elsewhere."""
    member_n, member_next = case
    prefix = [rng.random() < 0.5 for _ in range(n + 1)]
    prefix[n - 1] = member_n
    prefix[n] = member_next
    cycle = [rng.random() < 0.5 for _ in range(rng.randrange(1, 3))]
    return SignPattern.explicit(prefix, cycle)


def rand_cantor_system(rng, max_q=12, signs="any", sign_pattern=None):
    prefix = tuple(rng.randrange(2, max_q + 1) for _ in range(rng.randrange(0, 4)))
    cycle = tuple(rng.randrange(2, max_q + 1) for _ in range(rng.randrange(1, 5)))
    pattern = sign_pattern if sign_pattern is not None else rand_sign_pattern(rng, signs)
    return CantorSystem(EventuallyPeriodicSeq(prefix, cycle), pattern)


def rand_column(rng, max_den=16):
    k = rng.randrange(2, 4)
    den = rng.randrange(max(k, 4), max_den + 1)
    cuts = sorted(rng.sample(range(1, den), k - 1))
    bounds = [0] + cuts + [den]
    return QTildeColumn._from_pairs([(b - a, den) for a, b in zip(bounds, bounds[1:])])


def rand_qtilde_system(rng, max_den=16, signs="any", sign_pattern=None):
    prefix = tuple(rand_column(rng, max_den) for _ in range(rng.randrange(0, 3)))
    cycle = tuple(rand_column(rng, max_den) for _ in range(rng.randrange(1, 3)))
    pattern = sign_pattern if sign_pattern is not None else rand_sign_pattern(rng, signs)
    return QTildeSystem(EventuallyPeriodicSeq(prefix, cycle), pattern)


def rand_stream(rng, system, max_prefix=12, tail_kinds=_TAIL_KINDS):
    kind = rng.choice(tail_kinds)
    dpl = rng.randrange(0, max_prefix + 1)
    cyc = ()
    if kind == "cycle":
        # the cycle must start past the system prefix and repeat with the
        # system's combined period
        dpl = max(dpl, combined_prefix_len(system))
        period = combined_cycle_len(system) * rng.randrange(1, 3)
        cyc = tuple(
            rng.randrange(0, system.max_digit(dpl + 1 + j) + 1) for j in range(period)
        )
    prefix = tuple(rng.randrange(0, system.max_digit(n) + 1) for n in range(1, dpl + 1))
    return DigitStream(prefix, Tail(kind, cyc))


def rand_number(rng, system, max_prefix=12, tail_kinds=_TAIL_KINDS):
    return RepresentedNumber(system, rand_stream(rng, system, max_prefix, tail_kinds))


def rand_positive_cantor_number(rng, max_q, max_prefix):
    """A number over a random positive Cantor system, system drawn first."""
    return rand_number(rng, rand_cantor_system(rng, max_q, signs="none"), max_prefix)


def dual_pair(rng, system, n):
    """Construct both representations of a two-representation point whose
    dual flip sits at position n, directly from the adjacent-cylinder
    rule (digit step toward the neighbor; extreme tails swapped).

    Returns (most-negative-tail side, most-positive-tail side).
    """
    # The extreme tails below spell the greedy rule out again, apart from
    # decoding._extreme_digits, so that the pairs stay an independent
    # oracle for dual_representation.
    member = system.signs.member(n)
    lead = [rng.randrange(0, system.max_digit(k) + 1) for k in range(1, n)]
    if member:
        low = rng.randrange(0, system.max_digit(n))  # partner digit is low+1
        beta_digit, gamma_digit = low, low + 1
    else:
        high = rng.randrange(1, system.max_digit(n) + 1)  # partner digit is high-1
        beta_digit, gamma_digit = high, high - 1

    def beta_fn(k):
        if k < n:
            return lead[k - 1]
        if k == n:
            return beta_digit
        return system.max_digit(k) if system.signs.member(k) else 0

    def gamma_fn(k):
        if k < n:
            return lead[k - 1]
        if k == n:
            return gamma_digit
        return 0 if system.signs.member(k) else system.max_digit(k)

    pre = max(n, combined_prefix_len(system))
    period = combined_cycle_len(system)
    beta_side = RepresentedNumber(system, make_stream(system, beta_fn, pre, period))
    gamma_side = RepresentedNumber(system, make_stream(system, gamma_fn, pre, period))
    return beta_side, gamma_side


def rand_dual_case(rng, max_q, flavor):
    """A dual pair over a random Cantor system, flipping at n in 1..4:
    flavour 0 has no signs, flavours 1-4 have memberships
    SIGN_CASES[flavor - 1] at (n, n+1).  Returns (system, n, beta_side,
    gamma_side)."""
    n = rng.randrange(1, 5)
    if flavor == 0:
        system = rand_cantor_system(rng, max_q, signs="none")
    else:
        pattern = sign_case_pattern(rng, n, SIGN_CASES[flavor - 1])
        system = rand_cantor_system(rng, max_q, sign_pattern=pattern)
    return (system, n, *dual_pair(rng, system, n))


def rand_member_sign_pattern(rng):
    """A random explicit sign pattern with at least one member."""
    pattern = SignPattern.none()
    while not pattern.has_members():
        prefix = [rng.random() < 0.5 for _ in range(rng.randrange(0, 3))]
        cycle = [rng.random() < 0.5 for _ in range(rng.randrange(1, 3))]
        pattern = SignPattern.explicit(prefix, cycle)
    return pattern


def rand_segment_system(rng, flavor):
    """A system small enough for exhaustive segment tables: flavours 0 and
    1 are positive and signed Cantor systems with bases 2..5, flavours 2
    and 3 positive and signed column systems."""
    if flavor in (0, 1):
        prefix = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(0, 3)))
        cycle = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(1, 3)))
        signs = SignPattern.none() if flavor == 0 else rand_member_sign_pattern(rng)
        return CantorSystem(EventuallyPeriodicSeq(prefix, cycle), signs)
    prefix = tuple(rand_column(rng, 12) for _ in range(rng.randrange(0, 2)))
    cycle = tuple(rand_column(rng, 12) for _ in range(rng.randrange(1, 3)))
    signs = SignPattern.none() if flavor == 2 else rand_member_sign_pattern(rng)
    return QTildeSystem(EventuallyPeriodicSeq(prefix, cycle), signs)

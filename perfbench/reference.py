"""Independent plain-`Fraction` arithmetic on system and number documents.

The benchmark checks the program's outputs against these routines.  They
read the JSON documents directly and share no code with the package: a
value is the sum of sign * term * (product of earlier weights), with one
periodic block closed by the geometric series.
"""

from fractions import Fraction
from math import lcm


def _at(seq, n):
    prefix, cycle = seq["prefix"], seq["cycle"]
    if n <= len(prefix):
        return prefix[n - 1]
    return cycle[(n - len(prefix) - 1) % len(cycle)]


def _signs_shape(signs):
    if signs == "none":
        return 0, 1
    if signs in ("odd", "even"):
        return 0, 2
    return len(signs["prefix"]), len(signs["cycle"])


def negative_at(system, n):
    signs = system["signs"]
    if signs == "none":
        return False
    if signs == "odd":
        return n % 2 == 1
    if signs == "even":
        return n % 2 == 0
    return bool(_at(signs, n))


def _positions(system):
    return system["base"] if system["kind"] == "cantor" else system["columns"]


def alphabet_size(system, n):
    item = _at(_positions(system), n)
    return item if system["kind"] == "cantor" else len(item)


def tiles(system):
    """Cantor systems with any signs and positive column systems tile their
    base interval with their cylinders."""
    return system["kind"] == "cantor" or system["signs"] == "none"


def _term_weight(system, n, d):
    if system["kind"] == "cantor":
        q = _at(system["base"], n)
        return Fraction(d, q), Fraction(1, q)
    entries = [Fraction(e) for e in _at(system["columns"], n)]
    return sum(entries[:d], Fraction(0)), entries[d]


def _system_shape(system):
    seq = _positions(system)
    sign_pre, sign_cyc = _signs_shape(system["signs"])
    return max(len(seq["prefix"]), sign_pre), lcm(len(seq["cycle"]), sign_cyc)


def series_value(system, digit, split, period):
    """Value of the digit function `digit(n)` that is `period`-periodic
    beyond position `split`; period 0 means all digits past `split` are 0."""
    value = Fraction(0)
    weight = Fraction(1)
    for n in range(1, split + 1):
        term, w = _term_weight(system, n, digit(n))
        value += (-term if negative_at(system, n) else term) * weight
        weight *= w
    if period == 0:
        return value
    block = Fraction(0)
    ratio = Fraction(1)
    for n in range(split + 1, split + period + 1):
        term, w = _term_weight(system, n, digit(n))
        block += (-term if negative_at(system, n) else term) * ratio
        ratio *= w
    return value + weight * block / (1 - ratio)


def number_value(doc):
    """Exact value of a number document whose system is inline."""
    system = doc["system"]
    prefix = doc["digits"]["prefix"]
    tail = doc["digits"]["tail"]
    if tail["type"] == "zeros":
        return series_value(system, lambda n: prefix[n - 1], len(prefix), 0)
    sys_pre, sys_per = _system_shape(system)
    split = max(len(prefix), sys_pre)
    if tail["type"] == "max":
        period = sys_per

        def tail_digit(n):
            return alphabet_size(system, n) - 1
    else:
        cycle = tail["cycle"]
        period = lcm(sys_per, len(cycle))

        def tail_digit(n):
            return cycle[(n - len(prefix) - 1) % len(cycle)]

    return series_value(
        system, lambda n: prefix[n - 1] if n <= len(prefix) else tail_digit(n), split, period
    )


def base_interval(system):
    """(inf, sup) of the system's values: the most negative stream takes the
    top digit at negative positions and 0 elsewhere, the most positive
    stream the reverse."""
    split, period = _system_shape(system)

    def low(n):
        return alphabet_size(system, n) - 1 if negative_at(system, n) else 0

    def high(n):
        return 0 if negative_at(system, n) else alphabet_size(system, n) - 1

    return series_value(system, low, split, period), series_value(system, high, split, period)


def parse_rational(text):
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def rational_str(value):
    return f"{value.numerator}/{value.denominator}"

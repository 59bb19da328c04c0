"""Parsing and rendering of exact rationals at the I/O boundary.

Rationals cross every external interface as "p/q" strings; decimal
renderings are labeled approximations and never feed back into the core.
"""

import re
from fractions import Fraction

from .errors import DocumentError

__all__ = ["MAX_PRECISION", "parse_rational", "rational_str", "decimal_str"]

# Most fraction digits the command line renders; larger requests are
# refused up front, before any output.
MAX_PRECISION = 4000

# str() and int() may refuse an int past 640 digits (by default past 4300,
# Python 3.11+); _int_str renders pieces below 2**1993 < 10**600 and
# _parse_digits reads pieces of at most 600 digits.
_PIECE_BITS = 1993
_PIECE_DIGITS = 600
# An integer below this in magnitude is one piece: str() renders it.
_PIECE_BOUND = 1 << _PIECE_BITS
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_rational(text, where="value"):
    """Parse "p/q" (or a bare integer string) into a Fraction.

    The denominator must be positive; anything else is a DocumentError.
    """
    return Fraction(*_parse_pair(text, where))


def _parse_pair(text, where):
    """The integer pair (p, q), q > 0, of a "p/q" literal as written, not
    reduced: "2/8" gives (2, 8).  A bare integer string or a JSON integer
    n gives (n, 1); surrounding whitespace is ignored.  A JSON boolean, or
    anything else that is not such a literal, is a DocumentError naming
    `where`."""
    if type(text) is int:
        return text, 1
    if not isinstance(text, str):
        raise DocumentError(f"bad rational literal {_quote(text)} at {where}")
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return _parse_int(parts[0]), 1
        if len(parts) == 2:
            p, q = _parse_int(parts[0]), _parse_int(parts[1])
            if q <= 0:
                raise DocumentError(f"bad rational literal {_quote(text)} at {where}: "
                                    "denominator must be positive")
            return p, q
    except ValueError:
        pass
    raise DocumentError(f"bad rational literal {_quote(text)} at {where}")


def _quote(text):
    """repr() of a literal, cut to 60 characters."""
    return _clip(repr(text))


def _shown(value):
    """A rational as an error message quotes it: at most 60 characters of
    its "p/q" form, so a value of any length can be named."""
    return _clip(rational_str(value))


def _clip(text):
    """The first 60 characters of a message fragment, marked when cut."""
    return text if len(text) <= 60 else text[:60] + "..."


def _parse_int(text):
    """int() of a literal; a sign and decimal digits past int()'s digit
    limit are read by splitting the digits in halves until every piece is
    short enough for int()."""
    try:
        return int(text)
    except ValueError:
        if not _DECIMAL.fullmatch(text):
            raise
    value = _parse_digits(text.lstrip("+-"))
    return -value if text.startswith("-") else value


def _parse_digits(digits):
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _parse_digits(digits[:-k]) * 10**k + _parse_digits(digits[-k:])


def _int_str(n):
    """Decimal digits of an integer of any size, rendered by splitting it
    at a power of 10 until every piece is short enough for str()."""
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits (log10 2 > 0.3)
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def rational_str(value):
    """Render a Fraction as "p/q" with an explicit positive denominator."""
    return _pair_str(value.numerator, value.denominator)


def decimal_str(value, precision=12, fixed=False):
    """Exact decimal rendering of a rational to `precision` fraction digits.

    Rounds half away from zero.  With fixed=False trailing zeros are
    trimmed ("0.123"); with fixed=True the fractional part is padded to
    exactly `precision` digits, as used in TSV output.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    return _pair_decimal(value.numerator, value.denominator, precision, 10**precision, fixed)


def _pair_str(num, den):
    """"p/q" of the integer pair num/den, den > 0, as given: the caller
    reduces it.  A pair of one-piece integers is formatted directly."""
    if -_PIECE_BOUND < num < _PIECE_BOUND and den < _PIECE_BOUND:
        return f"{num}/{den}"
    return f"{_int_str(num)}/{_int_str(den)}"


def _pair_decimal(num, den, precision, scale, fixed):
    """`decimal_str` of the integer pair num/den, den > 0 and not
    necessarily reduced, with scale = 10**precision computed by the
    caller, so that a table computes it once.  |num/den| * scale rounded
    half away from zero is floor(|num|*scale/den + 1/2), one floor
    division; a result of one piece is rendered by one str()."""
    neg = num < 0
    scaled = (2 * (-num if neg else num) * scale + den) // (2 * den)
    digits = str(scaled) if scaled < _PIECE_BOUND else _int_str(scaled)
    if precision:
        if len(digits) <= precision:
            digits = digits.zfill(precision + 1)
        whole, frac = digits[:-precision], digits[-precision:]
        if not fixed:
            frac = frac.rstrip("0")
        digits = f"{whole}.{frac}" if frac else whole
    return "-" + digits if neg and scaled else digits

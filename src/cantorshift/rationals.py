"""Parsing and rendering of exact rationals at the I/O boundary.

Rationals cross every external interface as "p/q" strings; decimal
renderings are labeled approximations and never feed back into the core.
"""

from fractions import Fraction

from .errors import DocumentError

__all__ = ["MAX_PRECISION", "parse_rational", "rational_str", "decimal_str"]

# Most fraction digits the command line renders.  Larger requests are
# refused up front: Python 3.11+ refuses by default to turn an integer of
# more than 4300 digits into a string, so a longer rendering would fail
# after earlier output was already written.
MAX_PRECISION = 4000


def parse_rational(text, where="value"):
    """Parse "p/q" (or a bare integer string) into a Fraction.

    The denominator must be positive; anything else is a DocumentError.
    """
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise DocumentError(f"bad rational literal {text!r} at {where}")
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            p, q = int(parts[0]), int(parts[1])
            if q <= 0:
                raise DocumentError(
                    f"bad rational literal {text!r} at {where}: denominator must be positive"
                )
            return Fraction(p, q)
    except ValueError:
        pass
    raise DocumentError(f"bad rational literal {text!r} at {where}")


def rational_str(value):
    """Render a Fraction as "p/q" with an explicit positive denominator."""
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value, precision=12, fixed=False):
    """Exact decimal rendering of a rational to `precision` fraction digits.

    Rounds half away from zero.  With fixed=False trailing zeros are
    trimmed ("0.123"); with fixed=True the fractional part is padded to
    exactly `precision` digits, as used in TSV output.
    """
    if precision < 0:
        raise ValueError("precision must be >= 0")
    num, den = value.numerator, value.denominator
    neg = num < 0
    num = abs(num)
    scaled, rem = divmod(num * 10**precision, den)
    if 2 * rem >= den:
        scaled += 1
    digits = str(scaled).rjust(precision + 1, "0")
    whole, frac = digits[: len(digits) - precision], digits[len(digits) - precision:]
    if not fixed:
        frac = frac.rstrip("0")
    text = whole if not frac else f"{whole}.{frac}"
    if neg and scaled != 0:
        text = "-" + text
    return text

"""Exact rational arithmetic for variable-alphabet numeral systems.

Cantor-series and column-weight ("qtilde") expansions with arbitrary sign
patterns, their shift and position-deletion operators in both
digit-surgery and closed-form realizations, cylinder/continuity analysis,
and a JSON/TSV command line.  All core arithmetic is exact.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    AlignmentError,
    DigitRangeError,
    DivergentSeriesError,
    DocumentError,
    ExpansionError,
    InexactDecodeError,
    OutOfIntervalError,
    VariantError,
)
from .numbers import (
    TAIL_MAX,
    TAIL_ZEROS,
    DigitStream,
    RepresentedNumber,
    Tail,
    cycle_tail,
    digit_at,
    digits_equal,
    evaluate,
    make_stream,
    normalize_stream,
    same_number,
    validate_number,
)
from .series import (
    EventuallyPeriodicSeq,
    geometric_block_sum,
    periodic_tail_sum,
)
from .systems import (
    MAX_TABLE_ROWS,
    CantorSystem,
    Interval,
    QTildeColumn,
    QTildeSystem,
    SignPattern,
    ValidationReport,
    base_interval,
    remove_index,
    rho,
    shift_system,
    sign_factor,
    validate,
)

__version__ = "0.1.0"

# Names of `analysis`, `decoding` and `operators`, resolved on first use
# (PEP 562): a process that never touches them, such as the CLI's `eval`,
# does not compile those modules.  Each name is written once, here, with
# its module.  The position table is `decoding`'s; `base_interval`, which
# reads it, stays in `systems`.
_LAZY = {
    **dict.fromkeys(("AffineMap", "ContinuityReport", "affine_on_cylinder", "continuity_at",
                     "graph_samples", "numeric_derivative", "point_image", "segment_table"),
                    "analysis"),
    **dict.fromkeys(("PositionTable", "canonicalize", "cylinder", "decode",
                     "dual_representation", "is_quasi_rational", "partial_digits",
                     "position_table", "quasi_partner"),
                    "decoding"),
    **dict.fromkeys(("PrefixSums", "ShiftVariant", "TheoremReport", "closed_form_value",
                     "compose_removals", "generalized_shift", "iterate_shift", "prefix_sums",
                     "shift", "verify_theorem_identities"),
                    "operators"),
}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())

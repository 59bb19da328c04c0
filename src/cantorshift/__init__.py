"""Exact rational arithmetic for variable-alphabet numeral systems.

Cantor-series and column-weight ("qtilde") expansions with arbitrary sign
patterns, their shift and position-deletion operators in both
digit-surgery and closed-form realizations, cylinder/continuity analysis,
and a JSON/TSV command line.  All core arithmetic is exact.
"""

from .analysis import (
    MAX_TABLE_ROWS,
    AffineMap,
    ContinuityReport,
    affine_on_cylinder,
    continuity_at,
    graph_samples,
    numeric_derivative,
    point_image,
    segment_table,
)
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
    canonicalize,
    cycle_tail,
    cylinder,
    decode,
    digit_at,
    digits_equal,
    dual_representation,
    evaluate,
    is_quasi_rational,
    make_stream,
    normalize_stream,
    partial_digits,
    quasi_partner,
    same_number,
    validate_number,
)
from .operators import (
    PrefixSums,
    ShiftVariant,
    TheoremReport,
    closed_form_value,
    compose_removals,
    generalized_shift,
    iterate_shift,
    prefix_sums,
    shift,
    verify_theorem_identities,
)
from .series import (
    EventuallyPeriodicSeq,
    geometric_block_sum,
    periodic_tail_sum,
)
from .systems import (
    CantorSystem,
    Interval,
    PositionTable,
    QTildeColumn,
    QTildeSystem,
    SignPattern,
    ValidationReport,
    base_interval,
    position_table,
    remove_index,
    rho,
    shift_system,
    sign_factor,
    validate,
)

__version__ = "0.1.0"

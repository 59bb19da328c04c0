"""JSON documents for systems and numbers, and TSV emission.

Rationals cross this boundary as "p/q" strings with positive
denominators.  Parse errors and validation failures name the first
violated invariant together with its JSON path.
"""

import json
from math import gcd

from .errors import DocumentError, ExpansionError
from .numbers import (
    RepresentedNumber,
    TAIL_MAX,
    TAIL_ZEROS,
    DigitStream,
    cycle_tail,
)
from .rationals import _pair_decimal, _pair_str, _parse_pair
from .series import EventuallyPeriodicSeq
from .systems import (
    CantorSystem,
    QTildeColumn,
    QTildeSystem,
    SignPattern,
    combined_cycle_len,
    validate,
)

__all__ = [
    "system_to_doc",
    "doc_to_system",
    "number_to_doc",
    "doc_to_number",
    "parse_system",
    "parse_number",
    "emit_tsv",
]

# Largest combined cycle length L (the lcm of the position and sign cycle
# lengths).  Position tables cover P + L positions at a cost superlinear in
# L: `segments -m 1` took 0.25 s at L = 2070, 1.2 s at 4032 and 9.9 s
# (131 MB) at 10100 on a 2-vCPU Xeon virtual machine.
MAX_CYCLE_LEN = 2**12

_NAMED_SIGNS = {
    "none": SignPattern.none,
    "odd": SignPattern.odd,
    "even": SignPattern.even,
}


def _signs_to_doc(signs):
    for name, ctor in _NAMED_SIGNS.items():
        if signs == ctor():
            return name
    return {
        "prefix": [bool(b) for b in signs.membership.prefix],
        "cycle": [bool(b) for b in signs.membership.cycle],
    }


def _column_to_doc(col, rendered):
    """The column's entries as "p/q" strings in lowest terms, in a new
    list.  `rendered` maps each column already rendered to its strings,
    so that equal columns are rendered once."""
    strs = rendered.get(col)
    if strs is None:
        strs = rendered[col] = []
        for _, weight, den in col.ints:
            g = gcd(weight, den)
            strs.append(_pair_str(weight // g, den // g))
    return list(strs)


def system_to_doc(system):
    """The JSON document of a system.  A column system's columns are
    written as "p/q" strings in lowest terms; each distinct column is
    rendered once per call, and every position gets its own list."""
    if isinstance(system, CantorSystem):
        return {
            "kind": "cantor",
            "base": {"prefix": list(system.base.prefix), "cycle": list(system.base.cycle)},
            "signs": _signs_to_doc(system.signs),
        }
    rendered = {}
    return {
        "kind": "qtilde",
        "columns": {
            "prefix": [_column_to_doc(col, rendered) for col in system.columns.prefix],
            "cycle": [_column_to_doc(col, rendered) for col in system.columns.cycle],
        },
        "signs": _signs_to_doc(system.signs),
    }


def _expect_dict(obj, path):
    if not isinstance(obj, dict):
        raise DocumentError(f"expected an object at {path}")
    return obj


def _expect_list(obj, path):
    if not isinstance(obj, list):
        raise DocumentError(f"expected an array at {path}")
    return obj


def _get(obj, key, path):
    _expect_dict(obj, path)
    if key not in obj:
        raise DocumentError(f"missing key {key!r} at {path}")
    return obj[key]


def _int_list(obj, path):
    items = _expect_list(obj, path)
    # One pass over a list of plain ints; the walk only names a bad index.
    if not all(type(v) is int for v in items):
        for i, v in enumerate(items):
            if not isinstance(v, int) or isinstance(v, bool):
                raise DocumentError(f"expected an integer at {path}[{i}]")
    return items


def _parse_signs(obj, path):
    if isinstance(obj, str):
        if obj in _NAMED_SIGNS:
            return _NAMED_SIGNS[obj]()
        raise DocumentError(f"unknown sign pattern {obj!r} at {path}")
    _expect_dict(obj, path)
    prefix = _expect_list(_get(obj, "prefix", path), f"{path}.prefix")
    cycle = _expect_list(_get(obj, "cycle", path), f"{path}.cycle")
    for where, items in ((f"{path}.prefix", prefix), (f"{path}.cycle", cycle)):
        if not all(type(v) is bool for v in items):
            i = next(i for i, v in enumerate(items) if not isinstance(v, bool))
            raise DocumentError(f"expected a boolean at {where}[{i}]")
    if not cycle:
        raise DocumentError(f"sign cycle must be nonempty at {path}.cycle")
    return SignPattern.explicit(prefix, cycle)


def _parse_column(obj, path, literals=None, columns=None):
    """The column of the JSON array `obj` at `path`.  `literals` maps each
    "p/q" string already parsed in this document to its integer pair, and
    `columns` each pair tuple already built to its column, so that a
    document parses each distinct literal and builds each distinct column
    once.  Only string literals are remembered: a JSON number or boolean
    is parsed at every occurrence, so `true` is refused even where `1` was
    accepted."""
    items = _expect_list(obj, path)
    if not items:
        raise DocumentError(f"column must be nonempty at {path}")
    if literals is None:
        literals = {}
    if columns is None:
        columns = {}
    pairs = []
    try:
        for v in items:
            if type(v) is str:
                pair = literals.get(v)
                if pair is None:
                    pair = literals[v] = _parse_pair(v, path)
            else:
                pair = _parse_pair(v, path)
            pairs.append(pair)
    except DocumentError:
        # Parse again with each entry's path, built only now, to name the
        # first bad entry.
        for i, v in enumerate(items):
            _parse_pair(v, f"{path}[{i}]")
        raise
    pairs = tuple(pairs)
    column = columns.get(pairs)
    if column is None:
        column = columns[pairs] = QTildeColumn._from_pairs(pairs)
    return column


def doc_to_system(obj, path="$"):
    kind = _get(obj, "kind", path)
    signs = _parse_signs(_get(obj, "signs", path), f"{path}.signs")
    if kind == "cantor":
        base = _get(obj, "base", path)
        prefix = _int_list(_get(base, "prefix", f"{path}.base"), f"{path}.base.prefix")
        cycle = _int_list(_get(base, "cycle", f"{path}.base"), f"{path}.base.cycle")
        if not cycle:
            raise DocumentError(f"base cycle must be nonempty at {path}.base.cycle")
        system = CantorSystem(EventuallyPeriodicSeq(tuple(prefix), tuple(cycle)), signs)
    elif kind == "qtilde":
        cols = _get(obj, "columns", path)
        prefix = _expect_list(_get(cols, "prefix", f"{path}.columns"), f"{path}.columns.prefix")
        cycle = _expect_list(_get(cols, "cycle", f"{path}.columns"), f"{path}.columns.cycle")
        if not cycle:
            raise DocumentError(f"columns cycle must be nonempty at {path}.columns.cycle")
        literals = {}
        columns = {}
        system = QTildeSystem(
            EventuallyPeriodicSeq(
                tuple(_parse_column(c, f"{path}.columns.prefix[{i}]", literals, columns)
                      for i, c in enumerate(prefix)),
                tuple(_parse_column(c, f"{path}.columns.cycle[{i}]", literals, columns)
                      for i, c in enumerate(cycle)),
            ),
            signs,
        )
    else:
        raise DocumentError(f"unknown system kind {kind!r} at {path}.kind")
    cycle_len = combined_cycle_len(system)
    if cycle_len > MAX_CYCLE_LEN:
        where = "base" if kind == "cantor" else "columns"
        raise DocumentError(
            f"combined cycle length {cycle_len} exceeds {MAX_CYCLE_LEN} ({where} cycle length "
            f"{getattr(system, where).cycle_len}, signs cycle length "
            f"{signs.membership.cycle_len}) at {path}")
    report = validate(system)
    if not report.ok:
        first = report.problems[0]
        raise DocumentError(f"{first.message} at {path}.{first.path}" if first.path
                            else f"{first.message} at {path}")
    return system


def number_to_doc(num):
    tail = num.digits.tail
    if tail.kind == "cycle":
        tail_doc = {"type": "cycle", "cycle": list(tail.cycle)}
    else:
        tail_doc = {"type": tail.kind}
    return {
        "system": system_to_doc(num.system),
        "digits": {"prefix": list(num.digits.prefix), "tail": tail_doc},
    }


def doc_to_number(obj, path="$", load_file=None):
    system_obj = _get(obj, "system", path)
    if isinstance(system_obj, str):
        if load_file is None:
            raise DocumentError(f"system file references are not allowed at {path}.system")
        system = load_file(system_obj)
    else:
        system = doc_to_system(system_obj, f"{path}.system")
    digits = _get(obj, "digits", path)
    prefix = _int_list(_get(digits, "prefix", f"{path}.digits"), f"{path}.digits.prefix")
    tail_obj = _get(digits, "tail", f"{path}.digits")
    tail_type = _get(tail_obj, "type", f"{path}.digits.tail")
    if tail_type == "zeros":
        tail = TAIL_ZEROS
    elif tail_type == "max":
        tail = TAIL_MAX
    elif tail_type == "cycle":
        cyc = _int_list(_get(tail_obj, "cycle", f"{path}.digits.tail"),
                        f"{path}.digits.tail.cycle")
        if not cyc:
            raise DocumentError(f"cycle must be nonempty at {path}.digits.tail.cycle")
        tail = cycle_tail(cyc)
    else:
        raise DocumentError(f"unknown tail type {tail_type!r} at {path}.digits.tail.type")
    try:
        return RepresentedNumber(system, DigitStream(tuple(prefix), tail))
    except ExpansionError as exc:
        raise DocumentError(f"{exc} at {path}.digits") from exc


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:
        # int() of an over-long integer literal
        raise DocumentError("malformed JSON: integer literal too long") from exc


def parse_system(text):
    """Parse and validate a system document from JSON text."""
    return doc_to_system(_loads(text))


def parse_number(text, load_file=None):
    """Parse and validate a number document from JSON text."""
    return doc_to_number(_loads(text), load_file=load_file)


def emit_tsv(header, rows, precision=12):
    """Tab-separated text: every column appears twice, once as "p/q" in
    lowest terms and once as a decimal approximation padded to exactly
    `precision` fraction digits.  Each cell is an integer pair (num, den)
    tuple with den > 0, not necessarily reduced.  Each distinct cell is
    reduced and rendered once per table, and its two strings are reused
    in later rows: a tiling table repeats every inner endpoint, and a
    slope column holds one value per digit.  10**precision is computed
    once per table."""
    if precision < 0:
        raise ValueError("precision must be >= 0")
    scale = 10**precision
    names = list(header) + [f"{h}_dec" for h in header]
    lines = ["\t".join(names)]
    rendered = {}  # cell -> ("p/q", fixed decimal)
    for row in rows:
        exact = []
        approx = []
        for cell in row:
            strs = rendered.get(cell)
            if strs is None:
                num, den = cell
                g = gcd(num, den)
                num //= g
                den //= g
                strs = rendered[cell] = (_pair_str(num, den),
                                         _pair_decimal(num, den, precision, scale, True))
            exact.append(strs[0])
            approx.append(strs[1])
        lines.append("\t".join(exact + approx))
    return "\n".join(lines) + "\n"

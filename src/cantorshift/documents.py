"""Parsing of the JSON documents for systems and numbers.

Rationals cross this boundary as "p/q" strings with positive
denominators.  Parse errors and validation failures name the first
violated invariant together with its JSON path.  Writing documents and
TSV tables is `writers`' job, so a command that prints no document does
not compile it.
"""

import json

from .errors import DocumentError, ExpansionError
from .numbers import _TAIL_KINDS, DigitStream, RepresentedNumber, Tail
from .rationals import _parse_pair
from .series import EventuallyPeriodicSeq
from .systems import (
    _NAMED_SIGNS,
    CantorSystem,
    QTildeColumn,
    QTildeSystem,
    SignPattern,
    combined_cycle_len,
    validate,
)

__all__ = [
    "doc_to_system",
    "doc_to_number",
    "parse_system",
    "parse_number",
]

# Largest combined cycle length L (the lcm of the position and sign cycle
# lengths).  Position tables cover P + L positions, and building one and
# decoding over it cost more than in proportion to L: on one signed Cantor
# cycle of bases 2-12, with a cold table, `decode(system, value, 64)` took
# 0.03, 0.17 and 3.2 s at L = 4032, 10,100 and 40,000, and
# `segment_table(system, 1)` 0.011, 0.045 and 0.73 s (Python 3.11.7, a
# 2-vCPU Xeon virtual machine).
MAX_CYCLE_LEN = 2**12


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


def _ints(obj, path):
    items = _expect_list(obj, path)
    # One pass over a list of plain ints; the walk only names a bad index.
    if not all(type(v) is int for v in items):
        for i, v in enumerate(items):
            if not isinstance(v, int) or isinstance(v, bool):
                raise DocumentError(f"expected an integer at {path}[{i}]")
    return tuple(items)


def _bools(obj, path):
    items = _expect_list(obj, path)
    if not all(type(v) is bool for v in items):
        i = next(i for i, v in enumerate(items) if type(v) is not bool)
        raise DocumentError(f"expected a boolean at {path}[{i}]")
    return tuple(items)


def _seq(obj, path, name, read):
    """The sequence of the {"prefix": [...], "cycle": [...]} object `obj`
    at `path`, the one shape of every eventually periodic sequence in a
    document.  Its prefix, then its cycle, are read by `read(array,
    path)`, which returns a tuple, and then the cycle is checked to be
    nonempty, a check named by `name`; a document with several faults is
    refused for the first in that order."""
    prefix = read(_get(obj, "prefix", path), f"{path}.prefix")
    cycle = read(_get(obj, "cycle", path), f"{path}.cycle")
    if not cycle:
        raise DocumentError(f"{name} cycle must be nonempty at {path}.cycle")
    return EventuallyPeriodicSeq(prefix, cycle)


def _parse_signs(obj, path):
    if isinstance(obj, str):
        if obj in _NAMED_SIGNS:
            return _NAMED_SIGNS[obj]
        raise DocumentError(f"unknown sign pattern {obj!r} at {path}")
    return SignPattern(_seq(obj, path, "sign", _bools))


def _parse_column(obj, path, literals, columns):
    """The column of the JSON array `obj` at `path`.  `literals` maps each
    "p/q" string already parsed in this document to its integer pair, and
    `columns` each pair tuple already built to its column, so that a
    document parses each distinct literal and builds each distinct column
    once.  Only string literals are remembered: a JSON number or boolean
    is parsed at every occurrence, so `true` is refused even where `1` was
    accepted.  An error names `path` only: `_parse_columns` names the
    column and the entry."""
    items = _expect_list(obj, path)
    if not items:
        raise DocumentError(f"column must be nonempty at {path}")
    pairs = []
    for v in items:
        if type(v) is str:
            pair = literals.get(v)
            if pair is None:
                pair = literals[v] = _parse_pair(v, path)
        else:
            pair = _parse_pair(v, path)
        pairs.append(pair)
    pairs = tuple(pairs)
    column = columns.get(pairs)
    if column is None:
        column = columns[pairs] = QTildeColumn._from_pairs(pairs)
    return column


def _parse_columns(objs, path, literals, columns):
    """The tuple of columns of the JSON array `objs`, the entries at
    path[0], path[1], ...  A path is built only to name an error: on one,
    the columns are checked again, each with its path and each entry with
    its own, up to the first bad one."""
    _expect_list(objs, path)
    try:
        return tuple([_parse_column(c, path, literals, columns) for c in objs])
    except DocumentError:
        for i, c in enumerate(objs):
            where = f"{path}[{i}]"
            items = _expect_list(c, where)
            if not items:
                raise DocumentError(f"column must be nonempty at {where}")
            for j, v in enumerate(items):
                _parse_pair(v, f"{where}[{j}]")
        raise


def doc_to_system(obj, path="$"):
    kind = _get(obj, "kind", path)
    signs = _parse_signs(_get(obj, "signs", path), f"{path}.signs")
    if kind == CantorSystem.kind:
        cls, read = CantorSystem, _ints
    elif kind == QTildeSystem.kind:
        literals, columns = {}, {}
        cls, read = QTildeSystem, lambda objs, at: _parse_columns(objs, at, literals, columns)
    else:
        raise DocumentError(f"unknown system kind {kind!r} at {path}.kind")
    field = cls._fields[0]  # "base" or "columns"
    system = cls(_seq(_get(obj, field, path), f"{path}.{field}", field, read), signs)
    cycle_len = combined_cycle_len(system)
    if cycle_len > MAX_CYCLE_LEN:
        raise DocumentError(
            f"combined cycle length {cycle_len} exceeds {MAX_CYCLE_LEN} ({field} cycle length "
            f"{getattr(system, field).cycle_len}, signs cycle length "
            f"{signs.membership.cycle_len}) at {path}")
    report = validate(system)
    if not report.ok:
        first = report.problems[0]
        raise DocumentError(f"{first.message} at {path}.{first.path}")
    return system


def doc_to_number(obj, path="$", load_file=None):
    system_obj = _get(obj, "system", path)
    if isinstance(system_obj, str):
        if load_file is None:
            raise DocumentError(f"system file references are not allowed at {path}.system")
        system = load_file(system_obj)
    else:
        system = doc_to_system(system_obj, f"{path}.system")
    digits = _get(obj, "digits", path)
    prefix = _ints(_get(digits, "prefix", f"{path}.digits"), f"{path}.digits.prefix")
    where = f"{path}.digits.tail"
    tail_obj = _get(digits, "tail", f"{path}.digits")
    kind = _get(tail_obj, "type", where)
    if kind not in _TAIL_KINDS:
        raise DocumentError(f"unknown tail type {kind!r} at {where}.type")
    cycle = ()
    if kind == "cycle":
        cycle = _ints(_get(tail_obj, "cycle", where), f"{where}.cycle")
        if not cycle:
            raise DocumentError(f"cycle must be nonempty at {where}.cycle")
    try:
        return RepresentedNumber(system, DigitStream(prefix, Tail(kind, cycle)))
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

"""Writing: JSON documents of systems and numbers, the one JSON printer
(`dump_json`), and TSV tables.

Rationals are written as "p/q" strings in lowest terms, the form the
parser in `documents` reads back.  The module is apart from `documents`
so that a command that prints no document, such as the CLI's `eval` or
`cylinder`, does not compile it.
"""

import json
from json.encoder import JSONEncoder, encode_basestring_ascii
from math import gcd

from .documents import _NAMED_SIGNS
from .rationals import _pair_decimal, _pair_str
from .systems import CantorSystem

__all__ = ["system_to_doc", "number_to_doc", "emit_tsv", "dump_json"]


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
    list.  `rendered` maps the id of each column already rendered to its
    strings, so that a column object shared by several positions is
    rendered once.  The key is an id because hashing a column hashes all
    its entries; the system being written holds its columns for the whole
    call, so no id is reused while `rendered` lives."""
    key = id(col)
    strs = rendered.get(key)
    if strs is None:
        strs = rendered[key] = []
        for _, weight, den in col.ints:
            g = gcd(weight, den)
            strs.append(_pair_str(weight // g, den // g))
    return list(strs)


def system_to_doc(system):
    """The JSON document of a system.  A column system's columns are
    written as "p/q" strings in lowest terms; each column object is
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


# The types of the items of a list that dump_json writes in one call.
_SCALARS = frozenset((str, int, bool, float, type(None)))


def dump_json(obj):
    """`json.dumps(obj, indent=2)` of a JSON value: dicts with string
    keys, lists, strings, numbers, booleans and None.  With an indent,
    `json` encodes item by item in Python; here each list of scalars is
    written in one C-level call, a list of strings by one join of their
    encodings and any other by an encoder whose item separator holds the
    line break, and only dicts and the other lists are walked.  This takes
    about a quarter of json.dumps's time on a deep Cantor number and half
    on a deep column number, whose columns are lists of their own."""
    parts = []
    _dump(obj, "\n", parts)
    return "".join(parts)


def _dump(obj, newline, parts):
    """Append the pieces of `obj` at the indent of `newline` to `parts`."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            parts.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _dump(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {str}:
            parts.append(f"[{inner}{(',' + inner).join(map(encode_basestring_ascii, obj))}"
                         f"{newline}]")
        elif kinds <= _SCALARS:
            # one C call, with the line break in the item separator
            items = JSONEncoder(separators=("," + inner, ": ")).encode(obj)[1:-1]
            parts.append(f"[{inner}{items}{newline}]")
        else:
            sep = "[" + inner
            for value in obj:
                parts.append(sep)
                _dump(value, inner, parts)
                sep = "," + inner
            parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))

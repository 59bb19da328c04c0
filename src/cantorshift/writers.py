"""Writing: JSON documents of systems and numbers, the one JSON printer
(`dump_json`), and the TSV tables of `segments` and `graph`, written
straight from their integer rows (`segments_tsv`, `graph_tsv`).

Rationals are written as "p/q" strings in lowest terms, the form the
parser in `documents` reads back.  The module is apart from `documents`
so that a command that prints no document, such as the CLI's `eval` or
`cylinder`, does not compile it.
"""

import json
from json.encoder import JSONEncoder, encode_basestring_ascii
from math import gcd

from .rationals import _pair_decimal, _pair_str
from .systems import _NAMED_SIGNS, CantorSystem

__all__ = ["system_to_doc", "number_to_doc", "segments_tsv", "graph_tsv", "dump_json"]


def _seq_to_doc(seq, write=list):
    """The {"prefix": [...], "cycle": [...]} object of the sequence, each
    part written by `write`, which returns a new list: the one writer of
    the shape that `documents._seq` reads."""
    return {"prefix": write(seq.prefix), "cycle": write(seq.cycle)}


def _signs_to_doc(signs):
    for name, pattern in _NAMED_SIGNS.items():
        if signs == pattern:
            return name
    return _seq_to_doc(signs.membership)


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
        write = list
    else:
        rendered = {}
        write = lambda cols: [_column_to_doc(col, rendered) for col in cols]
    field = system._fields[0]  # "base" or "columns"
    return {"kind": system.kind, field: _seq_to_doc(getattr(system, field), write),
            "signs": _signs_to_doc(system.signs)}


def number_to_doc(num):
    tail = num.digits.tail
    tail_doc = {"type": tail.kind}
    if tail.cycle:
        tail_doc["cycle"] = list(tail.cycle)
    return {
        "system": system_to_doc(num.system),
        "digits": {"prefix": list(num.digits.prefix), "tail": tail_doc},
    }


def _render_pair(num, den, precision, scale):
    """The two TSV strings of the integer pair num/den, den > 0 and not
    necessarily reduced: "p/q" in lowest terms and the decimal padded to
    exactly `precision` fraction digits, with scale = 10**precision."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _pair_str(num, den), _pair_decimal(num, den, precision, scale, True)


def segments_tsv(rows, d_lo, d_hi, precision=12):
    """The TSV of a segment table: the integer rows (lo, hi, sn, sd, tn,
    td) of `analysis._segment_ints` are the cells lo/d_lo, hi/d_hi, sn/sd
    and tn/td.  Every column appears twice, once as "p/q" in lowest terms
    and once as a decimal padded to exactly `precision` fraction digits.
    Each distinct end and slope is rendered once per table and reused in
    later rows: a tiling table repeats every inner endpoint, and the slope
    column holds one value per digit.  The ends are looked up by numerator
    (one memo serves both when d_lo == d_hi), slopes by pair.  Intercepts
    are rendered per row, since they rarely repeat."""
    if precision < 0:
        raise ValueError("precision must be >= 0")
    scale = 10**precision
    render = _render_pair
    los = {}
    his = los if d_hi == d_lo else {}
    slopes = {}
    lines = ["lo\thi\tslope\tintercept\tlo_dec\thi_dec\tslope_dec\tintercept_dec"]
    for lo, hi, sn, sd, tn, td in rows:
        a = los.get(lo)
        if a is None:
            a = los[lo] = render(lo, d_lo, precision, scale)
        b = his.get(hi)
        if b is None:
            b = his[hi] = render(hi, d_hi, precision, scale)
        s = slopes.get((sn, sd))
        if s is None:
            s = slopes[sn, sd] = render(sn, sd, precision, scale)
        t = render(tn, td, precision, scale)
        lines.append(f"{a[0]}\t{b[0]}\t{s[0]}\t{t[0]}\t{a[1]}\t{b[1]}\t{s[1]}\t{t[1]}")
    lines.append("")
    return "\n".join(lines)


def graph_tsv(points, x_den, precision=12):
    """The TSV of graph samples: the integer points (x, y, y_den) of
    `analysis._graph_ints` are the cells x/x_den and y/y_den, each written
    as "p/q" and as a padded decimal, as in `segments_tsv`.  Each distinct
    image is rendered once per table, looked up by pair: cylinders that
    differ only in the deleted digit share their images.  The sample
    points are distinct where cylinders tile, so each x is rendered as it
    comes."""
    if precision < 0:
        raise ValueError("precision must be >= 0")
    scale = 10**precision
    render = _render_pair
    ys = {}
    lines = ["x\ty\tx_dec\ty_dec"]
    for x, y, y_den in points:
        a = render(x, x_den, precision, scale)
        b = ys.get((y, y_den))
        if b is None:
            b = ys[y, y_den] = render(y, y_den, precision, scale)
        lines.append(f"{a[0]}\t{b[0]}\t{a[1]}\t{b[1]}")
    lines.append("")
    return "\n".join(lines)


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

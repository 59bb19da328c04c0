import contextlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorshift import (
    DocumentError,
    EventuallyPeriodicSeq,
    QTildeColumn,
    QTildeSystem,
    SignPattern,
    analysis,
    documents,
    evaluate,
    rationals,
    systems,
    writers,
)
from cantorshift.documents import doc_to_number, doc_to_system, parse_number, parse_system
from cantorshift.rationals import MAX_PRECISION, decimal_str, parse_rational, rational_str
from cantorshift.sampling import (rand_cantor_system, rand_number, rand_qtilde_system,
                                  rand_segment_system)
from cantorshift.writers import dump_json, graph_tsv, number_to_doc, segments_tsv, system_to_doc
from helpers import DEC, DOCUMENT_ERRORS, NEG, QT, cantor, mk, parse_long_int


class TestParseSystem:
    def test_decimal(self):
        doc = {"kind": "cantor", "base": {"prefix": [], "cycle": [10]}, "signs": "none"}
        assert doc_to_system(doc) == DEC

    def test_column_system(self):
        doc = {"kind": "qtilde",
               "columns": {"prefix": [], "cycle": [["1/4", "3/4"]]},
               "signs": "none"}
        assert doc_to_system(doc) == QT

    def test_column_sum_diagnostic_names_path(self):
        doc = {"kind": "qtilde",
               "columns": {"prefix": [], "cycle": [["1/2", "1/3"]]},
               "signs": "none"}
        with pytest.raises(DocumentError, match=r"column sum != 1 at \$\.columns\.cycle\[0\]"):
            doc_to_system(doc)

    def test_base_diagnostic_names_path(self):
        doc = {"kind": "cantor", "base": {"prefix": [10, 1], "cycle": [10]}, "signs": "none"}
        with pytest.raises(DocumentError, match=r"\$\.base\.prefix\[1\]"):
            doc_to_system(doc)

    def test_bad_rational_literal(self):
        for bad in ("1/0", "1/-4", "x/3"):
            doc = {"kind": "qtilde",
                   "columns": {"prefix": [], "cycle": [[bad, "3/4"]]},
                   "signs": "none"}
            with pytest.raises(DocumentError):
                doc_to_system(doc)

    def test_malformed_json(self):
        with pytest.raises(DocumentError, match="malformed JSON"):
            parse_system("{not json")

    def test_explicit_signs(self):
        doc = {"kind": "cantor", "base": {"prefix": [], "cycle": [10]},
               "signs": {"prefix": [True], "cycle": [False, True]}}
        system = doc_to_system(doc)
        assert system.signs.member(1) and not system.signs.member(2)


class TestDocumentErrorMessages:
    @pytest.mark.parametrize("kind, doc, message", [case[1:] for case in DOCUMENT_ERRORS],
                             ids=[case[0] for case in DOCUMENT_ERRORS])
    def test_exact_message(self, kind, doc, message):
        parse = parse_system if kind == "system" else parse_number
        with pytest.raises(DocumentError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == message

    def test_system_file_reference_without_a_loader(self):
        text = json.dumps({"system": "sys.json",
                           "digits": {"prefix": [5], "tail": {"type": "zeros"}}})
        with pytest.raises(DocumentError) as info:
            parse_number(text)
        assert str(info.value) == "system file references are not allowed at $.system"


class TestParseNumber:
    def test_inline_system(self):
        doc = {"system": system_to_doc(DEC),
               "digits": {"prefix": [1, 2, 3], "tail": {"type": "zeros"}}}
        assert doc_to_number(doc) == mk(DEC, (1, 2, 3))

    def test_digit_out_of_range_path(self):
        doc = {"system": system_to_doc(DEC),
               "digits": {"prefix": [12], "tail": {"type": "zeros"}}}
        with pytest.raises(DocumentError, match=r"\$\.digits"):
            doc_to_number(doc)

    def test_misaligned_cycle(self):
        doc = {"system": system_to_doc(NEG),
               "digits": {"prefix": [], "tail": {"type": "cycle", "cycle": [9]}}}
        with pytest.raises(DocumentError):
            doc_to_number(doc)

    @pytest.mark.parametrize("system, digits, message", [
        (DEC, {"prefix": [12], "tail": {"type": "zeros"}},
         "digit 12 outside alphabet 0..9 at position 1"),
        (DEC, {"prefix": [1], "tail": {"type": "cycle", "cycle": [4, 10]}},
         "digit 10 outside alphabet 0..9 at position 3"),
        (NEG, {"prefix": [], "tail": {"type": "cycle", "cycle": [9]}},
         "digit cycle of length 1 starting at position 1 is not a period of the numeral "
         "system there"),
    ])
    def test_construction_error_names_the_digits(self, system, digits, message):
        with pytest.raises(DocumentError) as info:
            doc_to_number({"system": system_to_doc(system), "digits": digits})
        assert str(info.value) == f"{message} at $.digits"

    def test_roundtrip_random(self):
        rng = random.Random(41)
        for _ in range(30):
            system = rand_cantor_system(rng) if rng.random() < 0.5 else rand_qtilde_system(rng)
            num = rand_number(rng, system, max_prefix=6)
            assert doc_to_number(number_to_doc(num)) == num
            assert doc_to_system(system_to_doc(system)) == system
            # documents survive JSON text serialization byte-exactly
            assert parse_number(json.dumps(number_to_doc(num))) == num


class TestRationalStrings:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("5") == 5

    def test_rational_str_keeps_denominator(self):
        assert rational_str(Fraction(123, 1000)) == "123/1000"
        assert rational_str(Fraction(1)) == "1/1"

    def test_rational_str_past_the_int_str_limit(self):
        # Python refuses str() of an int over 4300 digits by default.
        value = Fraction(-(7**6000), 3**9100)
        num, den = rational_str(value).split("/")
        assert len(num) == 5072 and len(den) == 4342
        assert Fraction(parse_long_int(num), parse_long_int(den)) == value
        assert rational_str(Fraction(10**5000 + 12)) == "1" + "0" * 4998 + "12/1"

    def test_parse_past_the_int_str_limit(self):
        value = Fraction(-(7**6000), 3**9100)
        assert parse_rational(rational_str(value)) == value
        assert parse_rational(" +" + "0" * 4000 + "9" * 5000 + "/1 ") == 10**5000 - 1
        # short literals keep int()'s forms; long ones are sign and digits only
        assert parse_rational(" 1_000 / 3") == Fraction(1000, 3)
        for bad in ("1_" + "0" * 5000, "1/ " + "1" * 5000, "--" + "1" * 5000, "-"):
            with pytest.raises(DocumentError):
                parse_rational(bad)

    def test_decimal_str(self):
        assert decimal_str(Fraction(123, 1000), 12) == "0.123"
        assert decimal_str(Fraction(1, 3), 6) == "0.333333"
        assert decimal_str(Fraction(-1, 8), 3) == "-0.125"
        assert decimal_str(Fraction(2, 3), 3) == "0.667"
        assert decimal_str(Fraction(1, 4), 6, fixed=True) == "0.250000"
        assert decimal_str(Fraction(0), 4) == "0"


@contextlib.contextmanager
def _int_str_limit(digits):
    """int()/str()'s digit limit set to `digits` (0: no limit) for a with
    block, where Python has one: repr() of a Fraction past 4300 digits
    needs it lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _literal(rng, p, q):
    """A literal for the rational p/q, q > 0, written as the parser must
    read it: an unreduced multiple, a JSON int, a bare or "+" integer
    string, or padded with whitespace."""
    k = rng.choice((1, 2, 3, 7, 10**12))
    if q == 1 and rng.random() < 0.5:
        return p if rng.random() < 0.5 else (f"+{p}" if p >= 0 else str(p))
    num = f"+{k * p}" if p >= 0 and rng.random() < 0.2 else str(k * p)
    text = f"{num}/{k * q}"
    if rng.random() < 0.3:
        text = " " * rng.randrange(1, 3) + text + "\t" * rng.randrange(0, 2)
    return text


def _random_entries(rng):
    """(p, q) pairs of a random column: either weights in (0, 1) summing
    to 1, or arbitrary rationals and integers, which the parser must read
    as well before validation refuses them."""
    if rng.random() < 0.7:
        den = rng.randrange(4, 30)
        cuts = sorted(rng.sample(range(1, den), rng.randrange(1, 4)))
        bounds = [0] + cuts + [den]
        return [(b - a, den) for a, b in zip(bounds, bounds[1:])]
    return [(rng.randrange(-9, 10), rng.choice((1, 1, 2, 5, 12)))
            for _ in range(rng.randrange(1, 5))]


def _deep_column_doc(rng, positions):
    """A number document over `positions` random prefix columns with a
    periodic tail, as `perfbench` draws its deep column prefix."""
    columns = []
    for _ in range(positions):
        den = rng.randrange(4, 17)
        cuts = sorted(rng.sample(range(1, den), rng.randrange(1, 3)))
        bounds = [0] + cuts + [den]
        columns.append([f"{b - a}/{den}" for a, b in zip(bounds, bounds[1:])])
    system = {"kind": "qtilde",
              "columns": {"prefix": columns, "cycle": [["1/6", "1/3", "1/2"]]},
              "signs": "none"}
    digits = [rng.randrange(len(c)) for c in columns]
    return {"system": system,
            "digits": {"prefix": digits, "tail": {"type": "cycle", "cycle": [2]}}}


class TestColumnParser:
    """Column literals are parsed straight to integer pairs.  The column
    must be the one the Fraction route builds from `parse_rational`."""

    @staticmethod
    def _check(items):
        parsed = documents._parse_column(items, "$", {}, {})
        reference = QTildeColumn(tuple(parse_rational(v) for v in items))
        assert parsed.ints == reference.ints
        assert parsed == reference and hash(parsed) == hash(reference)
        assert parsed.entries == reference.entries
        assert all(type(e) is Fraction for e in parsed.entries)
        with _int_str_limit(0):
            assert repr(parsed) == repr(reference)
        return parsed

    def test_random_literals_match_the_fraction_route(self):
        rng = random.Random(131)
        for _ in range(400):
            pairs = _random_entries(rng)
            self._check([_literal(rng, p, q) for p, q in pairs])

    def test_numerator_past_the_int_str_limit(self):
        big = 10**5000
        for k in (1, 3):
            col = self._check([f"{_long_str(k * (big - 1))}/{_long_str(k * big)}",
                               f" +{k}/{_long_str(k * big)} "])
            assert col.ints == ((0, big - 1, big), (big - 1, 1, big))

    def test_documents_render_reduced_strings(self):
        rng = random.Random(137)
        for _ in range(200):
            prefix = [_random_entries(rng) for _ in range(rng.randrange(0, 3))]
            cycle = [_random_entries(rng) for _ in range(rng.randrange(1, 3))]
            doc = {"kind": "qtilde",
                   "columns": {"prefix": [[_literal(rng, p, q) for p, q in c] for c in prefix],
                               "cycle": [[_literal(rng, p, q) for p, q in c] for c in cycle]},
                   "signs": "none"}
            try:
                system = doc_to_system(doc)
            except DocumentError:
                continue  # entries outside (0, 1), or a cycle that does not contract
            reference = QTildeSystem(EventuallyPeriodicSeq(
                tuple(QTildeColumn(tuple(Fraction(p, q) for p, q in c)) for c in prefix),
                tuple(QTildeColumn(tuple(Fraction(p, q) for p, q in c)) for c in cycle)),
                SignPattern.none())
            assert system == reference
            assert system_to_doc(system)["columns"] == {
                region: [[rational_str(e) for e in col.entries] for col in cols]
                for region, cols in (("prefix", reference.columns.prefix),
                                     ("cycle", reference.columns.cycle))}

    def test_parse_and_evaluate_build_no_fraction(self, monkeypatch):
        made = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        # documents imports no Fraction; the stub also catches one added there
        for module in (rationals, systems, documents):
            monkeypatch.setattr(module, "Fraction", CountingFraction, raising=False)
        doc = _deep_column_doc(random.Random(139), 400)
        num = parse_number(json.dumps(doc))
        value = evaluate(num)
        assert made == []
        expected = Fraction(0)
        weight = Fraction(1)
        for col, d in zip(doc["system"]["columns"]["prefix"], doc["digits"]["prefix"]):
            entries = [Fraction(e) for e in col]
            expected += weight * sum(entries[:d], Fraction(0))
            weight *= entries[d]
        # the tail digit 2 of (1/6, 1/3, 1/2) repeats: (1/2) / (1 - 1/2)
        assert value == expected + weight
        # the stub is in place: the Fraction route counts
        parse_rational("1/3")
        assert made == [(1, 3)]


def _column_doc(prefix, cycle):
    return {"kind": "qtilde", "columns": {"prefix": prefix, "cycle": cycle}, "signs": "none"}


class TestDocumentMemos:
    """A document parses each distinct "p/q" string once and builds each
    distinct column once; `system_to_doc` renders each distinct column
    once.  None of this may change a result or a message."""

    def test_repeated_columns_match_the_column_by_column_build(self):
        rng = random.Random(149)
        checked = 0
        for _ in range(100):
            pool = [_random_entries(rng) for _ in range(rng.randrange(1, 4))]
            # each column drawn from the pool, written reduced ("1/4"),
            # unreduced ("2/8") or padded, so that literals and columns repeat
            prefix, cycle = ([[_literal(rng, p, q) if rng.random() < 0.3 else f"{p}/{q}"
                               for p, q in rng.choice(pool)] for _ in range(count)]
                             for count in (rng.randrange(0, 30), rng.randrange(1, 4)))
            try:
                system = doc_to_system(_column_doc(prefix, cycle))
            except DocumentError:
                continue  # entries outside (0, 1), or a cycle that does not contract
            reference = QTildeSystem(EventuallyPeriodicSeq(
                tuple(QTildeColumn(tuple(parse_rational(v) for v in c)) for c in prefix),
                tuple(documents._parse_column(c, "$", {}, {}) for c in cycle)), SignPattern.none())
            assert system == reference and hash(system) == hash(reference)
            doc = system_to_doc(system)
            assert doc == system_to_doc(reference)
            lists = doc["columns"]["prefix"] + doc["columns"]["cycle"]
            assert len({id(strs) for strs in lists}) == len(lists)  # one list per position
            checked += 1
        assert checked > 40

    def test_boolean_beside_an_identical_column_holding_one(self):
        doc = _column_doc([["1/2", 1], ["1/2", True]], [["1/2", "1/2"]])
        with pytest.raises(DocumentError) as exc:
            doc_to_system(doc)
        assert str(exc.value) == "bad rational literal True at $.columns.prefix[1][1]"

    @pytest.mark.parametrize("region, index", [("prefix", 2), ("cycle", 1)])
    def test_bad_literal_after_a_good_identical_column(self, region, index):
        columns = {"prefix": [["1/4", "3/4"]] * 2, "cycle": [["1/4", "3/4"]]}
        columns[region] = columns[region] + [["1/4", "3/-4"]]
        with pytest.raises(DocumentError) as exc:
            doc_to_system(_column_doc(columns["prefix"], columns["cycle"]))
        assert str(exc.value) == (f"bad rational literal '3/-4' at $.columns.{region}[{index}][1]: "
                                  "denominator must be positive")

    def test_bad_entry_in_the_last_of_800_columns(self):
        # A column's path is built only on an error, and still names it.
        rng = random.Random(163)
        prefix = [rng.choice((["1/4", "3/4"], ["1/6", "1/3", "1/2"])) for _ in range(800)]
        for j in range(len(prefix[799])):
            columns = [list(c) for c in prefix]
            columns[799][j] = "1/-3"
            with pytest.raises(DocumentError) as exc:
                doc_to_system(_column_doc(columns, [["1/2", "1/2"]]))
            assert str(exc.value) == (f"bad rational literal '1/-3' at "
                                      f"$.columns.prefix[799][{j}]: denominator must be positive")

    @pytest.mark.parametrize("region, bad, message", [
        ("cycle", "1/2", "expected an array at $.columns.cycle[0]"),
        ("cycle", [], "column must be nonempty at $.columns.cycle[0]"),
        ("cycle", ["1/2", "x"], "bad rational literal 'x' at $.columns.cycle[0][1]"),
        ("prefix", {}, "expected an array at $.columns.prefix[799]"),
        ("prefix", [], "column must be nonempty at $.columns.prefix[799]"),
    ])
    def test_bad_column_named_by_its_path(self, region, bad, message):
        columns = {"prefix": [["1/4", "3/4"]] * 799 + [["1/2", "1/2"]],
                   "cycle": [["1/2", "1/2"], ["1/3", "2/3"]]}
        columns[region][-1 if region == "prefix" else 0] = bad
        with pytest.raises(DocumentError) as exc:
            doc_to_system(_column_doc(columns["prefix"], columns["cycle"]))
        assert str(exc.value) == message

    def test_each_distinct_literal_parsed_and_column_built_once(self, monkeypatch):
        rng = random.Random(151)
        distinct = [["1/4", "3/4"], ["1/6", "1/3", "1/2"], ["2/8", "6/8"], ["1/2", " 1/2 "],
                    ["1/3", "2/3"]]
        prefix = [list(rng.choice(distinct)) for _ in range(200)]
        cycle = [list(c) for c in distinct]
        parsed, built = [], []
        parse_pair = documents._parse_pair
        from_pairs = QTildeColumn._from_pairs
        monkeypatch.setattr(documents, "_parse_pair",
                            lambda text, where: parsed.append(text) or parse_pair(text, where))
        monkeypatch.setattr(QTildeColumn, "_from_pairs", classmethod(
            lambda cls, pairs: built.append(pairs) or from_pairs(pairs)))
        system = doc_to_system(_column_doc(prefix, cycle))
        # " 1/2 " and "1/2" are two literals of one pair
        assert sorted(parsed) == sorted({v for c in distinct for v in c})
        assert len(built) == len(distinct)
        assert system == doc_to_system(_column_doc(prefix, cycle))


_SEGMENT_HEADER = ("lo", "hi", "slope", "intercept")
_GRAPH_HEADER = ("x", "y")


def _reference_table(header, rows, precision):
    """The TSV of rows of Fractions, each cell by `_reference_cells`."""
    lines = ["\t".join(header + tuple(f"{h}_dec" for h in header))]
    for row in rows:
        cells = [_reference_cells(x, precision) for x in row]
        lines.append("\t".join([exact for exact, _ in cells] + [approx for _, approx in cells]))
    return "\n".join(lines) + "\n"


def _segment_fractions(rows, d_lo, d_hi):
    return [(Fraction(lo, d_lo), Fraction(hi, d_hi), Fraction(sn, sd), Fraction(tn, td))
            for lo, hi, sn, sd, tn, td in rows]


def _graph_fractions(points, x_den):
    return [(Fraction(x, x_den), Fraction(y, y_den)) for x, y, y_den in points]


class TestEmitTsv:
    """`segments_tsv` and `graph_tsv` write a table's integer rows as one
    line each: every column as "p/q" in lowest terms, then every column as
    a decimal padded to exactly `precision` fraction digits."""

    def test_header_and_dual_columns(self):
        lines = segments_tsv([(1, 2, 1, 4, 0, 1)], 4, 4, precision=3).splitlines()
        assert lines[0].split("\t") == ["lo", "hi", "slope", "intercept",
                                        "lo_dec", "hi_dec", "slope_dec", "intercept_dec"]
        assert lines[1].split("\t") == ["1/4", "1/2", "1/4", "0/1",
                                        "0.250", "0.500", "0.250", "0.000"]
        assert graph_tsv([(1, 1, 2)], 4, precision=3).splitlines() == [
            "x\ty\tx_dec\ty_dec", "1/4\t1/2\t0.250\t0.500"]

    def test_int_and_fraction_cells(self):
        text = graph_tsv([(12, -1, 3), (6, 0, 1)], 4, precision=2)
        assert text.splitlines()[1:] == ["3/1\t-1/3\t3.00\t-0.33", "3/2\t0/1\t1.50\t0.00"]
        text = segments_tsv([(12, 6, -1, 3, 0, 5)], 4, 4, precision=2)
        assert text.splitlines()[1] == "3/1\t3/2\t-1/3\t0/1\t3.00\t1.50\t-0.33\t0.00"

    def test_empty_rows_keep_header(self):
        assert graph_tsv([], 1) == "x\ty\tx_dec\ty_dec\n"
        assert segments_tsv([], 1, 3) == (
            "lo\thi\tslope\tintercept\tlo_dec\thi_dec\tslope_dec\tintercept_dec\n")

    def test_repeated_cells_match_per_cell_rendering(self):
        # Each table draws its cells from a few values, each written as a
        # random multiple, so cells repeat and a value comes both unreduced
        # and reduced ((2, 8) and (1, 4)); the ends share one or two
        # denominators.
        rng = random.Random(157)
        cells = repeated = 0
        for t in range(300):
            precision = rng.choice((0, 40))
            tiny = 10**precision * rng.randrange(3, 9)  # 1/tiny rounds to zero
            values = [(rng.randrange(-60, 61), rng.randrange(1, 40)) for _ in range(3)]
            values += [(0, 1), (1, tiny), (-1, tiny)]
            if t == 0:
                values.append((-(7**6000), 3))  # 5071 digits

            def pair():
                (n, d), k = rng.choice(values), rng.choice((1, 1, 2, 4))
                return k * n, k * d

            d_lo = rng.choice((1, 3, 8, tiny))
            d_hi = d_lo if rng.random() < 0.5 else rng.choice((2, 3, tiny))
            ends = [rng.randrange(-2 * tiny, 2 * tiny) for _ in range(3)] + [0, 1, -1]
            count = rng.randrange(0, 12)
            rows = [(rng.choice(ends), rng.choice(ends), *pair(), *pair()) for _ in range(count)]
            x_den = rng.choice((1, 6, tiny))
            points = [(rng.choice(ends), *pair()) for _ in range(count)]
            assert segments_tsv(rows, d_lo, d_hi, precision) == _reference_table(
                _SEGMENT_HEADER, _segment_fractions(rows, d_lo, d_hi), precision)
            assert graph_tsv(points, x_den, precision) == _reference_table(
                _GRAPH_HEADER, _graph_fractions(points, x_den), precision)
            flat = [cell for lo, hi, sn, sd, tn, td in rows
                    for cell in ((lo, d_lo), (hi, d_hi), (sn, sd), (tn, td))]
            flat += [cell for x, y, y_den in points for cell in ((x, x_den), (y, y_den))]
            cells += len(flat)
            repeated += len(flat) - len(set(flat))
        assert repeated > cells // 3

    def test_each_distinct_cell_rendered_once(self, monkeypatch):
        # On a tiling table one row's hi is the next row's lo, and the slope
        # column holds one value per digit: 1025 distinct ends and 1 slope
        # are rendered once each, and the 1024 intercepts once per row.
        rows, d_lo, d_hi = analysis._segment_ints(cantor((), (4,)), 5)
        ends = {cell for lo, hi, *_ in rows for cell in ((lo, d_lo), (hi, d_hi))}
        slopes = {(sn, sd) for _, _, sn, sd, _, _ in rows}
        intercepts = [(tn, td) for *_, tn, td in rows]
        assert len(rows) == 1024 and (len(ends), len(slopes)) == (1025, 1)
        rendered = []
        render = writers._render_pair
        monkeypatch.setattr(writers, "_render_pair",
                            lambda *args: rendered.append(args[:2]) or render(*args))
        text = segments_tsv(rows, d_lo, d_hi, 12)
        assert sorted(rendered) == sorted([*ends, *slopes, *intercepts])
        assert text == _reference_table(_SEGMENT_HEADER, _segment_fractions(rows, d_lo, d_hi), 12)


def _long_str(n):
    """Decimal digits of an integer n >= 0 of any size, 1000 at a time."""
    pieces = []
    while True:
        n, r = divmod(n, 10**1000)
        if not n:
            pieces.append(str(r))
            return "".join(reversed(pieces))
        pieces.append(str(r).zfill(1000))


def _reference_cells(x, precision):
    """"p/q" and fixed decimal of the Fraction x by plain Fraction
    arithmetic: rounding half away from zero is floor(|x|*10^p + 1/2)."""
    sign = "-" if x < 0 else ""
    exact = f"{sign}{_long_str(abs(x.numerator))}/{_long_str(x.denominator)}"
    scaled = math.floor(abs(x) * 10**precision + Fraction(1, 2))
    digits = _long_str(scaled).rjust(precision + 1, "0")
    whole, frac = digits[:len(digits) - precision], digits[len(digits) - precision:]
    text = f"{whole}.{frac}" if precision else whole
    return exact, (sign + text if scaled else text)


class TestPairRenderer:
    """The table writers render integer pairs through `_render_pair`;
    rational_str and decimal_str render Fractions through the same
    routines.  All must equal the plain-Fraction reference, whatever common
    factor the pair carries."""

    @staticmethod
    def _check(num, den, precision):
        x = Fraction(num, den)
        exact, approx = _reference_cells(x, precision)
        assert writers._render_pair(num, den, precision, 10**precision) == (exact, approx)
        # the ends over one denominator share a memo, over two they do not
        for row, d_hi in (((num, num, num, den, num, den), den),
                          ((num, 2 * num, 2 * num, 2 * den, num, den), 2 * den)):
            assert segments_tsv([row], den, d_hi, precision).splitlines()[1] == "\t".join(
                [exact] * 4 + [approx] * 4)
        assert graph_tsv([(num, num, den)], den, precision).splitlines()[1] == (
            f"{exact}\t{exact}\t{approx}\t{approx}")
        assert rational_str(x) == exact
        assert decimal_str(x, precision, fixed=True) == approx

    def test_unreduced_multiples_negatives_and_zero(self):
        rng = random.Random(83)
        for _ in range(300):
            n, d = rng.randrange(-60, 61), rng.randrange(1, 40)
            for k in (1, 2, 7, 360):
                for precision in (0, 1, 3, 12):
                    self._check(k * n, k * d, precision)

    def test_exact_halves_round_half_away_from_zero(self):
        for precision in range(5):
            for a in range(12):
                for sign in (1, -1):
                    for k in (1, 3):
                        self._check(k * sign * (2 * a + 1), k * 2 * 10**precision, precision)
        text = graph_tsv([(1, -3, 24), (-20, 10, 4)], 8, precision=2)
        assert text.splitlines()[1:] == ["1/8\t-1/8\t0.13\t-0.13",
                                         "-5/2\t5/2\t-2.50\t2.50"]
        text = graph_tsv([(1, -3, 2)], 2, precision=0)
        assert text.splitlines()[1] == "1/2\t-3/2\t1\t-2"

    @pytest.mark.parametrize("precision", [0, 16, MAX_PRECISION])
    def test_cells_past_the_int_str_limit(self, precision):
        big = 7**900  # 761 digits
        den = 3**401
        assert len(_long_str(big)) > 700
        for num in (big, -big, big + 1, 1):
            for k in (1, 10**50):
                self._check(k * num, k * den, precision)

    def test_cells_at_the_one_piece_bound(self):
        # Integers below 2**1993 render in one str() call, larger ones in
        # pieces; under a 640-digit limit str() refuses anything past
        # 10**640 > 2**1993, so a wrong side of the bound raises.
        bound = 2**rationals._PIECE_BITS
        cases = []
        for num in (bound - 1, bound, bound + 1, bound * 10**50 + 1):
            for den in (1, 3, bound - 1, bound, 2 * bound + 1):
                cases += [(num, den, 0), (-num, den, 0), (den, num, 0), (-den, num, 5)]
        for precision in (0, 3, 12):
            scale = 10**precision
            # the scaled value just below, at and just above the bound,
            # crossing it by rounding half away from zero
            for num in (bound - 1, bound, 2 * bound - 1, 2 * bound, 2 * bound + 1):
                for den in (scale, 2 * scale):
                    cases += [(num, den, precision), (-num, den, precision)]
        expected = [_reference_cells(Fraction(num, den), precision)
                    for num, den, precision in cases]
        with _int_str_limit(640):
            for (num, den, precision), (exact, approx) in zip(cases, expected):
                x = Fraction(num, den)
                scale = 10**precision
                assert rationals._pair_str(x.numerator, x.denominator) == exact
                assert rational_str(x) == exact
                assert rationals._pair_decimal(num, den, precision, scale, True) == approx
                assert decimal_str(x, precision, fixed=True) == approx
                assert decimal_str(x, precision) == _trimmed(approx)
                assert writers._render_pair(num, den, precision, scale) == (exact, approx)
                assert graph_tsv([(num, num, den)], den, precision).splitlines()[1] == (
                    f"{exact}\t{exact}\t{approx}\t{approx}")


def _trimmed(fixed):
    """A fixed decimal with its trailing fraction zeros and point dropped."""
    return fixed.rstrip("0").rstrip(".") if "." in fixed else fixed


# Values past str()'s one-piece bound: one piece, the bound itself, 761
# digits, and past the 4300-digit limit.
_BIG = (2**1993 - 1, 2**1993, 7**900, 7**6000)


def _rand_cell(rng, den, scale):
    """A numerator over `den`: a small value, a value of many pieces, or,
    where den > 2*scale, a negative value that rounds to zero."""
    kind = rng.randrange(3)
    if kind == 2 and den > 2 * scale:
        return -rng.randrange(1, (den - 1) // (2 * scale) + 1)
    if kind == 1:
        return rng.choice((1, -1)) * rng.choice(_BIG)
    return rng.randrange(-3 * den, 3 * den + 1)


class TestTableWriters:
    """`segments_tsv` and `graph_tsv` against the plain-Fraction route of
    `_reference_cells`, on random integer rows and on seeded tables."""

    def test_random_rows_match_the_fraction_route(self):
        rng = random.Random(193)
        for t in range(48):
            precision = (0, 1, 12, 40)[t % 4]
            scale = 10**precision

            def den():
                return rng.choice((1, rng.randrange(2, 50), scale * rng.randrange(3, 9), 3**401,
                                   2**1993 + 1))

            def pair():
                d = den()
                return _rand_cell(rng, d, scale), d

            d_lo = den()
            d_hi = d_lo if t % 3 else den()
            # a few values per column, so that cells repeat
            los = [_rand_cell(rng, d_lo, scale) for _ in range(3)]
            his = [_rand_cell(rng, d_hi, scale) for _ in range(3)]
            maps = [pair() for _ in range(4)]
            rows = [(rng.choice(los), rng.choice(his), *rng.choice(maps), *rng.choice(maps))
                    for _ in range(rng.randrange(1, 8))]
            assert segments_tsv(rows, d_lo, d_hi, precision) == _reference_table(
                _SEGMENT_HEADER, _segment_fractions(rows, d_lo, d_hi), precision)
            points = [(_rand_cell(rng, d_lo, scale), *rng.choice(maps))
                      for _ in range(rng.randrange(1, 8))]
            assert graph_tsv(points, d_lo, precision) == _reference_table(
                _GRAPH_HEADER, _graph_fractions(points, d_lo), precision)

    def test_tables_of_seeded_systems(self):
        # Rank-2 tables of 200 seeded systems: 9 have ends over two
        # denominators, and most graphs repeat an image.
        unequal = repeated = 0
        for t in range(200):
            system = rand_segment_system(random.Random(t), t % 4)
            rows, d_lo, d_hi = analysis._segment_ints(system, 2)
            table = [(iv.lo, iv.hi, f.slope, f.intercept)
                     for iv, f in analysis.segment_table(system, 2)]
            points, x_den = analysis._graph_ints(system, 2, 3)
            samples = analysis.graph_samples(system, 2, 3)
            unequal += d_lo != d_hi
            repeated += len({(y, y_den) for _, y, y_den in points}) < len(points)
            for precision in (0, 40):
                assert segments_tsv(rows, d_lo, d_hi, precision) == _reference_table(
                    _SEGMENT_HEADER, table, precision)
                assert graph_tsv(points, x_den, precision) == _reference_table(
                    _GRAPH_HEADER, samples, precision)
        assert unequal == 9 and repeated > 100

    def test_graph_renders_each_distinct_image_once(self, monkeypatch):
        # Deleting the second digit in base 4 maps the four cylinders that
        # differ only in it onto the same images: 12 distinct of 48.
        points, x_den = analysis._graph_ints(cantor((), (4,)), 2, 3)
        images = {(y, y_den) for _, y, y_den in points}
        assert len(points) == 48 and len(images) == 12
        rendered = []
        render = writers._render_pair
        monkeypatch.setattr(writers, "_render_pair",
                            lambda *args: rendered.append(args[:2]) or render(*args))
        text = graph_tsv(points, x_den, 12)
        assert sorted(rendered) == sorted([(x, x_den) for x, _, _ in points] + list(images))
        assert text == _reference_table(_GRAPH_HEADER, _graph_fractions(points, x_den), 12)


# Strings with what JSON escapes: quotes, backslashes, control and
# non-ASCII characters, astral ones (a surrogate pair) and lone surrogates.
_json_text = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f \u00e9\u2028\ud800\U0001f600ab')
_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=-10**1200, max_value=10**1200)
                 | st.floats() | _json_text)
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=6)
                      | st.dictionaries(_json_text, children, max_size=6)),
    max_leaves=40)


class TestDumpJson:
    """dump_json is json.dumps(obj, indent=2), byte for byte."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_json_values)
    def test_equals_json_dumps(self, obj):
        assert dump_json(obj) == json.dumps(obj, indent=2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.booleans() | st.integers() | st.none(), max_size=30),
           st.lists(_json_text, max_size=30))
    def test_lists_of_scalars(self, scalars, strings):
        for obj in (scalars, strings, [scalars, strings], {"a": scalars, "b": [strings]},
                    scalars + strings, tuple(scalars)):
            assert dump_json(obj) == json.dumps(obj, indent=2)

    def test_empty_and_nested_containers(self):
        for obj in ([], {}, [[]], [{}], {"": {}}, {"a": []}, [[[]], [{}, []], {"x": [[], {}]}],
                    [True, 1, False, 0, None, 1.0, -0.0], "x", 3, None, float("inf")):
            assert dump_json(obj) == json.dumps(obj, indent=2)

    def test_int_past_the_str_limit_raises_as_json_does(self):
        big = 10**700
        with _int_str_limit(640):
            for obj in (big, [big], [1, big], {"a": [True, -big]}, [[1], {"b": big}]):
                try:
                    expected = json.dumps(obj, indent=2)
                except ValueError as exc:
                    with pytest.raises(ValueError) as caught:
                        dump_json(obj)
                    assert str(caught.value) == str(exc)
                else:  # no digit limit in this interpreter
                    assert dump_json(obj) == expected


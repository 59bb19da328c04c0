import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cantorshift

from cantorshift import (
    OutOfIntervalError,
    SignPattern,
    analysis,
    cli,
    evaluate,
    operators,
    verify,
)
from cantorshift.cli import run
from cantorshift.documents import number_to_doc, parse_number, system_to_doc
from cantorshift.numbers import normalize_stream
from cantorshift.rationals import MAX_PRECISION, decimal_str, rational_str
from cantorshift.sampling import (
    dual_pair,
    rand_cantor_system,
    rand_number,
    rand_segment_system,
)
from helpers import DEC, FACT, NEG, QT, cantor, parse_long_int

DATA = Path(__file__).parent / "data"


@pytest.fixture
def paths(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj), encoding="utf-8")
        return str(p)

    return tmp_path, write


def _number_doc(system, prefix, tail=None):
    return {
        "system": system_to_doc(system),
        "digits": {"prefix": list(prefix), "tail": tail or {"type": "zeros"}},
    }


class TestEval:
    def test_decimal(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(DEC, (1, 2, 3)))
        assert run(["eval", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["123/1000", "0.123"]

    def test_periodic(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(NEG, (6, 0), {"type": "cycle", "cycle": [9, 0]}))
        assert run(["eval", path, "--precision", "6"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "-67/110"
        assert out[1] == "-0.609091"

    def test_system_file_reference(self, paths, capsys):
        _, write = paths
        write("sys.json", system_to_doc(DEC))
        path = write("n.json", {"system": "sys.json",
                                "digits": {"prefix": [5], "tail": {"type": "zeros"}}})
        assert run(["eval", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1/2"


    def test_values_past_the_int_str_limit(self, paths, capsys):
        # 1500 positions in bases 1000..1999: a denominator of ~4700 digits,
        # past Python's default 4300-digit limit of str(int).
        _, write = paths
        rng = random.Random(5)
        bases = [rng.randrange(1000, 2000) for _ in range(1500)]
        signs = [rng.random() < 0.5 for _ in bases]
        digits = [rng.randrange(b) for b in bases]
        system = {"kind": "cantor", "base": {"prefix": bases, "cycle": [7]},
                  "signs": {"prefix": signs, "cycle": [False]}}
        spath = write("s.json", system)
        path = write("n.json", {
            "system": system,
            "digits": {"prefix": digits, "tail": {"type": "zeros"}},
        })
        # Plain integer reference: x = sum(s_n d_n q_{n+1}...q_N) / (q_1...q_N).
        num, den = 0, 1
        for q, negative, d in zip(bases, signs, digits):
            num = num * q + (-d if negative else d)
            den *= q
        assert run(["eval", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        exact = captured.out.splitlines()[0]
        assert len(exact) > 4300
        assert Fraction(*map(parse_long_int, exact.split("/"))) == Fraction(num, den)

        # The printed value reads back: decode recovers the digits.
        assert run(["decode", spath, exact, "--depth", "1600"]) == 0
        doc = json.loads(capsys.readouterr().out)
        while digits[-1] == 0:
            digits.pop()
        assert doc["digits"] == {"prefix": digits, "tail": {"type": "zeros"}}

        assert run(["gshift", path, "-m", "700"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["surgery_value"]) > 4300
        assert out["surgery_value"] == out["closed_form_value"]


class TestDecode:
    def test_emits_number_document(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(DEC))
        assert run(["decode", spath, "1/8", "--depth", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digits"] == {"prefix": [1, 2, 5], "tail": {"type": "zeros"}}

    def test_bad_long_literal_is_one_short_error_line(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(DEC))
        assert run(["decode", spath, "1/" + "x" * 9998]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad rational literal '1/xxx")
        assert len(err[0]) < 120

    @pytest.mark.parametrize("value", [
        "1/1" + "0" * 5000,  # inexact within the depth, past the int-str limit
        "1" + "0" * 5000,  # outside the interval, past the int-str limit
        "7" * 300 + "/1" + "0" * 300,  # inexact within the depth
        "1" * 300 + "/7",  # outside the interval
    ], ids=["inexact-5001-digits", "outside-5001-digits", "inexact-300-digits",
            "outside-300-digits"])
    def test_long_value_is_one_short_error_line(self, paths, capsys, value):
        _, write = paths
        spath = write("s.json", system_to_doc(DEC))
        assert run(["decode", spath, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 200
        assert "digits" not in err[0]  # not the interpreter's int-str message

    def test_negative_value_needs_no_double_dash(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(cantor((8,), (5, 4), SignPattern.odd())))
        outs = []
        for argv in ([spath, "-1/3"], [spath, "-1/3", "--depth", "40"], [spath, "--", "-1/3"]):
            assert run(["decode", *argv]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["digits"]["prefix"] == [3]
        assert run(["decode", spath, "-x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")

    def test_out_of_interval_is_exit_one(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(DEC))
        assert run(["decode", spath, "3/2"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestOperators:
    def test_gshift_reports_both_values(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(FACT, (1, 2, 3)))
        assert run(["gshift", path, "-m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["surgery_value"] == "7/8"
        assert doc["closed_form_value"] == "7/8"
        assert doc["number"]["digits"]["prefix"] == [1, 3]

    def test_shift_and_itershift(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(DEC, (1, 2, 3, 4, 5)))
        assert run(["shift", path]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "469/2000"
        assert run(["itershift", path, "-m", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "9/20"

    def test_variant_error_exit_code(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(DEC, (1, 2, 3)))
        assert run(["gshift", path, "-m", "1", "--variant", "position"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_partner(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(DEC, (2, 5)))
        assert run(["partner", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digits"] == {"prefix": [2, 4], "tail": {"type": "max"}}
        path2 = write("n2.json", _number_doc(DEC, (1, 2, 3), {"type": "cycle", "cycle": [5]}))
        assert run(["partner", path2]) == 0
        assert capsys.readouterr().out.strip() == "none"


class TestPrintedNumbersAreNormal:
    """Every number the CLI builds and prints is in the one normal form: a
    fixed point of `normalize_stream`, `itershift -m 0` included."""

    @staticmethod
    def _assert_normal(printed):
        num = parse_number(printed)
        stream = num.digits
        assert normalize_stream(num.system, stream.prefix, stream.tail) == stream

    def test_decode_shifts_and_partner(self, paths, capsys):
        _, write = paths
        rng = random.Random(71)
        partners = 0
        for case in range(48):
            flavor = case % 4
            system = rand_segment_system(rng, flavor)
            if flavor == 1 and case % 8 == 1:
                num = rng.choice(dual_pair(rng, system, rng.randrange(1, 4)))
            else:
                num = rand_number(rng, system, max_prefix=6)
            path = write("n.json", number_to_doc(num))
            for argv in (["itershift", path, "-m", str(rng.randrange(0, 9))],
                         ["gshift", path, "-m", str(rng.randrange(1, 9))]):
                assert run(argv) == 0
                self._assert_normal(json.dumps(json.loads(capsys.readouterr().out)["number"]))
            assert run(["partner", path]) == 0
            out = capsys.readouterr().out
            if out != "none\n":
                partners += 1
                self._assert_normal(out)
            if flavor != 3:  # signed column systems may leave gaps
                spath = write("s.json", system_to_doc(system))
                assert run(["decode", spath, rational_str(evaluate(num)),
                            "--depth", "200"]) == 0
                self._assert_normal(capsys.readouterr().out)
        assert partners


class TestGeometry:
    def test_cylinder(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(NEG))
        assert run(["cylinder", spath, "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["lo: -6/55", "hi: -1/110", "width: 1/10"]

    def test_segments_tsv(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(DEC))
        assert run(["segments", spath, "-m", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[:4] == ["lo", "hi", "slope", "intercept"]
        assert len(lines) == 11
        assert all(line.split("\t")[2] == "10/1" for line in lines[1:])

    def test_graph_tsv(self, paths, capsys):
        _, write = paths
        spath = write("s.json", system_to_doc(QT))
        assert run(["graph", spath, "-m", "1", "--samples", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t") == ["x", "y", "x_dec", "y_dec"]
        assert len(lines) == 5

    @pytest.mark.parametrize("system", ["signed_cantor", "positive_column"])
    @pytest.mark.parametrize("argv", [["segments", "-m", "3"],
                                      ["graph", "-m", "2", "--samples", "3"]])
    def test_tsv_matches_golden(self, capsys, system, argv):
        assert run([argv[0], str(DATA / f"{system}.json")] + argv[1:]) == 0
        golden = DATA / f"{argv[0]}_{system}.tsv"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flavor", [0, 1, 2, 3, "alternating"], ids=[
        "positive-cantor", "signed-cantor", "positive-column", "signed-column",
        "alternating-position"])
    def test_tables_equal_fraction_rendering(self, paths, capsys, flavor):
        # the CLI renders integer pairs; the reference renders the Fractions
        # of segment_table and graph_samples
        def reference(header, rows, precision):
            names = list(header) + [f"{h}_dec" for h in header]
            return "".join(
                "\t".join(row) + "\n" for row in [names] + [
                    [rational_str(v) for v in row]
                    + [decimal_str(v, precision, fixed=True) for v in row] for row in rows])

        _, write = paths
        rng = random.Random(89)
        for _ in range(3):
            if flavor == "alternating":
                system, variant = rand_cantor_system(rng, max_q=5, signs="odd"), "position"
            else:
                system, variant = rand_segment_system(rng, flavor), "digit"
            spath = write("s.json", system_to_doc(system))
            m = rng.randrange(1, 4)
            table = analysis.segment_table(system, m, cli._variant(variant))
            segments = [(i.lo, i.hi, a.slope, a.intercept) for i, a in table]
            points = analysis.graph_samples(system, m, 3, cli._variant(variant))
            for precision in (0, 1, 12, 40):
                common = ["-m", str(m), "--variant", variant, "--precision", str(precision)]
                assert run(["segments", spath] + common) == 0
                assert capsys.readouterr().out == reference(
                    ("lo", "hi", "slope", "intercept"), segments, precision)
                assert run(["graph", spath, "--samples", "3"] + common) == 0
                assert capsys.readouterr().out == reference(("x", "y"), points, precision)


class TestVerifyCommand:
    def test_report_format_and_determinism(self, capsys):
        assert run(["verify", "eq4", "--trials", "40", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert first.splitlines()[0] == "eq4: 40/40 pass"
        assert run(["verify", "eq4", "--trials", "40", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "nosuch"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: unknown suite 'nosuch'; choose from " + ", ".join(verify.SUITE_NAMES)]

    def test_seed_bounds(self, capsys):
        assert run(["verify", "eq4", "--trials", "5", "--seed", str(2**64)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_all_suites_small(self, capsys):
        assert run(["verify", "all", "--trials", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip: 8/8 pass" in out
        assert out == (DATA / "verify_all_8_3.txt").read_text(encoding="utf-8")

    def test_readme_run_matches_golden(self, capsys):
        # the README's `verify all --trials 200 --seed 7`
        assert run(["verify", "all", "--trials", "200", "--seed", "7"]) == 0
        assert capsys.readouterr().out == (DATA / "verify_all_200_7.txt").read_text(
            encoding="utf-8")

    def test_suite_failure_is_exit_two(self, capsys, monkeypatch):
        from cantorshift import verify as verify_mod

        def broken(cfg):
            result = verify_mod.SuiteResult("eq4", cfg.trials - 1, cfg.trials)
            result.failures.append({"trial": 0, "reason": "synthetic"})
            return result

        monkeypatch.setitem(verify_mod.SUITES, "eq4", broken)
        assert run(["verify", "eq4", "--trials", "5", "--seed", "1"]) == 2
        out = capsys.readouterr().out
        assert "eq4: 4/5 FAIL" in out
        assert json.loads(out.split("\n", 1)[1])["failing_case"]["reason"] == "synthetic"

    def test_trial_that_raises_is_a_suite_failure(self, capsys, monkeypatch):
        # deletion that drops position m+1 builds numbers that do not fit
        # their system; the trials that raise fail, named by suite and trial
        remove_index = operators.remove_index
        monkeypatch.setattr(operators, "remove_index",
                            lambda system, m: remove_index(system, m + 1))
        assert run(["verify", "eq4", "--trials", "16", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("eq4: 5/16 FAIL\n")
        assert json.loads(captured.out.split("\n", 1)[1])["suite"] == "eq4"
        failures = verify.run_suite(verify.VerifyConfig("eq4", trials=16, seed=1)).failures
        assert {f["trial"]: f["error"] for f in failures if "error" in f} == {
            2: "DigitRangeError: digit 5 outside alphabet 0..2 at position 6",
            3: "DigitRangeError: digit 9 outside alphabet 0..2 at position 6",
            5: "DigitRangeError: digit 9 outside alphabet 0..4 at position 1",
            10: "DigitRangeError: digit 5 outside alphabet 0..3 at position 2",
            13: "DigitRangeError: digit 4 outside alphabet 0..1 at position 8",
            14: "DigitRangeError: digit 9 outside alphabet 0..3 at position 5",
            15: "DigitRangeError: digit 6 outside alphabet 0..1 at position 3",
        }

    def test_undecodable_segment_point_is_a_suite_failure(self, capsys, monkeypatch):
        def undecodable(table, n, y_nums, y_dens):
            raise OutOfIntervalError(f"value has no digit at position {n}")

        monkeypatch.setattr(analysis, "_digit_steps", undecodable)
        assert run(["verify", "segments", "--trials", "4", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("segments: 1/4 FAIL\n")
        case = json.loads(captured.out[captured.out.index("{"):])
        assert case["suite"] == "segments"
        assert (case["failing_case"]["error"]
                == "OutOfIntervalError: value has no digit at position 1")

    def test_memory_error_in_a_trial_propagates(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(analysis, "_digit_steps", exhausted)
        assert run(["verify", "segments", "--trials", "4", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"


class TestErrors:
    def test_missing_file(self, capsys):
        assert run(["eval", "/nonexistent/n.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_document(self, paths, capsys):
        _, write = paths
        path = write("bad.json", {"kind": "qtilde",
                                  "columns": {"prefix": [], "cycle": [["1/2", "1/3"]]},
                                  "signs": "none"})
        assert run(["decode", path, "1/2"]) == 1
        err = capsys.readouterr().err
        assert "column sum != 1 at $.columns.cycle[0]" in err

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_column_entry_is_a_bad_literal(self, paths, capsys, flag):
        # JSON true is an int to Python; as a rational it would read as 1.
        _, write = paths
        path = write("bad.json", {"kind": "qtilde",
                                  "columns": {"prefix": [], "cycle": [[flag, "0/2"]]},
                                  "signs": "none"})
        assert run(["segments", path, "-m", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad rational literal {flag} at $.columns.cycle[0][0]\n"

    @pytest.mark.parametrize("entry, shown", [
        ("9" * 5000 + "/1", "9" * 60 + "..."),
        ("1", "1"),
        ("3/2", "3/2"),
        ("6/4", "3/2"),
        ("-1/2", "-1/2"),
        ("0/7", "0"),
    ], ids=["5000-nines", "1", "3/2", "6/4", "-1/2", "0/7"])
    def test_refused_column_entry_of_any_length(self, paths, capsys, entry, shown):
        # An entry past int()'s 4300-digit str() limit is named like a short one.
        _, write = paths
        path = write("bad.json", {"kind": "qtilde",
                                  "columns": {"prefix": [], "cycle": [[entry, "1/2"]]},
                                  "signs": "none"})
        assert run(["segments", path, "-m", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: column entry not in (0, 1): {shown} at $.columns.cycle[0][0]"]

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert run(["eval", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: malformed JSON")

    def test_overlong_json_integer(self, paths, capsys):
        tmp, _ = paths
        path = tmp / "n.json"
        doc = json.dumps(_number_doc(DEC, (1,))).replace("[1]", "[" + "1" * 5000 + "]")
        path.write_text(doc, encoding="utf-8")
        assert run(["eval", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == ["error: malformed JSON: integer literal too long"]

    @pytest.mark.parametrize("argv", [
        ["eval", "n.json", "--precision", "-5"],
        ["eval", "n.json", "--precision", "100000000"],
        ["segments", "s.json", "-m", "1", "--precision", "-1"],
        ["graph", "s.json", "-m", "1", "--precision", str(MAX_PRECISION + 1)],
    ])
    def test_precision_checked_before_output(self, paths, capsys, argv):
        tmp, write = paths
        write("n.json", _number_doc(DEC, (1, 2, 3)))
        write("s.json", system_to_doc(DEC))
        assert run([str(tmp / arg) if arg.endswith(".json") else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "precision" in err[0]

    @pytest.mark.parametrize("argv, message", [
        (["verify", "eq4", "--seed", "abc"], "seed must be a decimal 64-bit unsigned integer"),
        (["gshift", "n.json", "-m", "abc"], f"m must be an integer in 1..{cli.MAX_GSHIFT_M}"),
        (["eval", "n.json", "--precision", "abc"],
         f"precision must be an integer in 0..{MAX_PRECISION}"),
    ])
    def test_non_integer_option_names_the_range(self, paths, capsys, argv, message):
        tmp, write = paths
        write("n.json", _number_doc(DEC, (1, 2, 3)))
        assert run([str(tmp / arg) if arg.endswith(".json") else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument") and err[0].endswith(message)
        assert "invalid" not in err[0]

    def test_largest_precision_accepted(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(DEC, (1, 2, 3)))
        assert run(["eval", path, "--precision", str(MAX_PRECISION)]) == 0
        assert capsys.readouterr().out.splitlines() == ["123/1000", "0.123"]

    def test_memory_error_is_one_error_line(self, paths, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "cylinder", exhausted)
        _, write = paths
        spath = write("s.json", system_to_doc(DEC))
        assert run(["cylinder", spath, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("system, argv", [
        (cantor((), (10**12,)), ["segments", "-m", "1"]),
        (DEC, ["segments", "-m", "7"]),
        (DEC, ["graph", "-m", "1", "--samples", "100000000"]),
    ])
    def test_oversized_tables_refused_up_front(self, paths, capsys, monkeypatch, system, argv):
        def walk(*args):
            raise AssertionError("the table walk ran")

        monkeypatch.setattr(analysis, "_cylinder_rows", walk)
        _, write = paths
        spath = write("s.json", system_to_doc(system))
        assert run([argv[0], spath] + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(analysis.MAX_TABLE_ROWS) in err[0]


    @pytest.mark.parametrize("m", ["0", str(cli.MAX_GSHIFT_M + 1), "400000"])
    def test_oversized_gshift_position_refused_up_front(self, paths, capsys, monkeypatch, m):
        def surgery(*args):
            raise AssertionError("the deletion ran")

        monkeypatch.setattr(operators, "generalized_shift", surgery)
        _, write = paths
        path = write("n.json", _number_doc(FACT, (1, 2, 3)))
        assert run(["gshift", path, "-m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(cli.MAX_GSHIFT_M) in err[0]


    @pytest.mark.parametrize("argv, message", [
        (["decode", "s.json", "1/7", "--depth", "0"], f"depth must be an integer in 1..{2**14}"),
        (["decode", "s.json", "1/7", "--depth", str(2**14 + 1)],
         f"depth must be an integer in 1..{2**14}"),
        (["verify", "eq4", "--trials", "0"], f"trials must be an integer in 1..{10**6}"),
        (["verify", "eq4", "--trials", str(10**6 + 1)], f"trials must be an integer in 1..{10**6}"),
        (["verify", "eq4", "--max-q", "1"], f"max-q must be an integer in 3..{2**16}"),
        (["verify", "all", "--max-q", "2"], f"max-q must be an integer in 3..{2**16}"),
        (["verify", "eq4", "--max-q", str(2**16 + 1)], f"max-q must be an integer in 3..{2**16}"),
        (["verify", "eq4", "--max-prefix", "-1"], f"max-prefix must be an integer in 0..{2**10}"),
        (["verify", "eq4", "--trials", "4", "--max-prefix", "400000"],
         f"max-prefix must be an integer in 0..{2**10}"),
        (["verify", "eq4", "--max-m", "0"], f"max-m must be an integer in 1..{2**10}"),
        (["verify", "eq4", "--max-m", str(2**10 + 1)], f"max-m must be an integer in 1..{2**10}"),
    ])
    def test_decode_and_verify_bounds_refused_up_front(self, paths, capsys, monkeypatch, argv,
                                                       message):
        def reached(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "decode", reached)
        monkeypatch.setattr(verify, "run_suite", reached)
        tmp, write = paths
        write("s.json", system_to_doc(DEC))
        assert run([str(tmp / arg) if arg.endswith(".json") else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument") and err[0].endswith(message)

    @pytest.mark.parametrize("argv, message", [
        (["itershift", "n.json", "-m", "abc"], "m must be an integer >= 0"),
        (["itershift", "n.json", "-m", "-1"], "m must be an integer >= 0"),
        (["segments", "s.json", "-m", "1.5"], f"m must be an integer in 1..{cli.MAX_TABLE_RANK}"),
        (["segments", "s.json", "-m", str(cli.MAX_TABLE_RANK + 1)],
         f"m must be an integer in 1..{cli.MAX_TABLE_RANK}"),
        (["graph", "s.json", "-m", "x"], f"m must be an integer in 1..{cli.MAX_TABLE_RANK}"),
        (["graph", "s.json", "-m", "0"], f"m must be an integer in 1..{cli.MAX_TABLE_RANK}"),
        (["graph", "s.json", "-m", "1", "--samples", "two"],
         f"samples must be an integer in 2..{analysis.MAX_TABLE_ROWS}"),
        (["graph", "s.json", "-m", "1", "--samples", "1"],
         f"samples must be an integer in 2..{analysis.MAX_TABLE_ROWS}"),
        (["cylinder", "s.json", "1", "a"], "digit must be an integer >= 0"),
        (["cylinder", "s.json", "-1"], "digit must be an integer >= 0"),
    ])
    def test_integer_arguments_refused_up_front(self, paths, capsys, monkeypatch, argv, message):
        def reached(*args):
            raise AssertionError("the command ran")

        for module, name in ((operators, "iterate_shift"), (analysis, "_segment_ints"),
                             (analysis, "_graph_ints"), (cli, "cylinder")):
            monkeypatch.setattr(module, name, reached)
        tmp, write = paths
        write("s.json", system_to_doc(DEC))
        write("n.json", _number_doc(DEC, (1, 2, 3)))
        assert run([str(tmp / arg) if arg.endswith(".json") else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument") and err[0].endswith(message)
        assert "invalid" not in err[0]

    def test_itershift_has_no_upper_bound(self, paths, capsys):
        _, write = paths
        path = write("n.json", _number_doc(DEC, (1, 2, 3)))
        assert run(["itershift", path, "-m", str(10**30)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "0/1"

    @pytest.mark.parametrize("command", ["eval", "segments"])
    def test_long_combined_cycle_refused(self, paths, capsys, monkeypatch, command):
        # base cycle 100 and sign cycle 101 combine to 10,100 positions per
        # period, far more than the document's 1.1 KB suggests
        def reached(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "evaluate", reached)
        monkeypatch.setattr(analysis, "_segment_ints", reached)
        system = {"kind": "cantor",
                  "base": {"prefix": [], "cycle": [2 + i % 7 for i in range(99)] + [3]},
                  "signs": {"prefix": [], "cycle": [i % 3 == 0 for i in range(100)] + [True]}}
        _, write = paths
        spath = write("s.json", system)
        npath = write("n.json", {"system": system,
                                 "digits": {"prefix": [1], "tail": {"type": "max"}}})
        assert 1000 < len(json.dumps(system)) < 1200
        argv = ["eval", npath] if command == "eval" else ["segments", spath, "-m", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        where = "$.system" if command == "eval" else "$"
        assert captured.err.splitlines() == [
            "error: combined cycle length 10100 exceeds 4096 "
            f"(base cycle length 100, signs cycle length 101) at {where}"]

    def test_largest_verify_options_accepted(self, capsys):
        argv = ["verify", "all", "--trials", "2", "--max-q", str(2**16),
                "--max-prefix", str(2**10), "--max-m", str(2**10)]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


def _child_env():
    """The environment of a fresh interpreter that imports this checkout's
    package first."""
    src = str(Path(cantorshift.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


_COLD_START = """
import contextlib, io, json, sys

def loaded():
    return {name for name in sys.modules
            if name.startswith("cantorshift.") or name in ("dataclasses", "inspect")}

before = loaded()
import cantorshift.cli as cli
steps = [[None, sorted(loaded() - before)]]
for argv in json.loads(sys.argv[1]):
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    steps.append([code, sorted(loaded() - before)])
print(json.dumps(steps))
"""


def test_commands_load_only_their_modules(paths):
    # A fresh interpreter runs the commands in an order in which the set of
    # loaded modules only grows, and reports what each one added: a module
    # is compiled only by the first command that uses it, and no step loads
    # `dataclasses` or `inspect`.  Each step is compared with the modules
    # loaded before it, so one that a site-packages `.pth` file loads at
    # start-up hides no regression.
    _, write = paths
    spath = write("s.json", system_to_doc(NEG))
    npath = write("n.json", _number_doc(NEG, (1, 2, 3)))
    commands = [["eval", npath], ["decode", spath, "1/22"], ["cylinder", spath, "1"],
                ["partner", npath], ["gshift", npath, "-m", "2"], ["segments", spath, "-m", "2"],
                ["verify", "eq4", "--trials", "1", "--seed", "0"]]
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(commands)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert done.stderr == ""
    base = ["cli", "documents", "errors", "numbers", "rationals", "series", "systems"]
    assert json.loads(done.stdout) == [
        [None, [f"cantorshift.{name}" for name in base]],
        [0, []], [0, []], [0, []], [0, []],
        [0, ["cantorshift.operators"]],
        [0, ["cantorshift.analysis"]],
        [0, ["cantorshift.sampling", "cantorshift.verify"]],
    ]


@pytest.mark.parametrize("module", ["cantorshift", "cantorshift.cli"])
def test_python_dash_m(module, paths):
    _, write = paths
    spath = write("s.json", system_to_doc(NEG))
    env = _child_env()
    done = subprocess.run([sys.executable, "-m", module, "cylinder", spath, "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["lo: -6/55", "hi: -1/110", "width: 1/10"]
    done = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [["itershift", "n.json", "-m", "3"],
                                  ["segments", "s.json", "-m", "3"]])
def test_closed_stdout_is_one_error_line(argv, paths):
    # The read end of stdout's pipe is closed before the child starts, so
    # every write fails with a broken pipe, however small the output.
    tmp, write = paths
    write("s.json", system_to_doc(NEG))
    write("n.json", _number_doc(NEG, (1, 2, 3, 4, 5)))
    env = _child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "cantorshift", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, cwd=tmp, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: Broken pipe\n"

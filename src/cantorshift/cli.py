"""Command-line front end.

Subcommands: eval, decode, shift, itershift, gshift, cylinder, segments,
graph, partner, verify.  Exit codes: 0 success, 1 validation or domain
error (one machine-parsable "error: ..." line on stderr), 2 property
suite failure (the minimized failing case as JSON on stdout).
"""

import argparse
import json
import sys
from pathlib import Path

from . import documents, verify
from .analysis import graph_samples, segment_table
from .errors import ExpansionError
from .numbers import cylinder, decode, evaluate, quasi_partner
from .operators import (
    ShiftVariant,
    closed_form_value,
    generalized_shift,
    iterate_shift,
    shift,
)
from .rationals import MAX_PRECISION, decimal_str, parse_rational, rational_str

__all__ = ["run", "main"]

# Largest position gshift deletes.  The surgery and the closed form walk all
# m positions, so time and output grow faster than linearly in m.
MAX_GSHIFT_M = 2**16
# Largest decode depth.  Column residual denominators can grow with every
# digit, so a decode's time grows about quadratically with its depth.
MAX_DECODE_DEPTH = 2**14
# Bounds of verify's numeric options; max-q starts at 3 because some suites
# draw two distinct bases from 2..max-q.
MAX_TRIALS = 10**6
MAX_Q = 2**16
MAX_PREFIX = 2**10
MAX_M = 2**10


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}")


def _load_system(path):
    return documents.parse_system(_read(path))


def _load_number(path):
    base = Path(path).parent

    def load_ref(ref):
        return _load_system(base / ref)

    return documents.parse_number(_read(path), load_file=load_ref)


def _variant(name):
    return ShiftVariant.POSITION if name == "position" else ShiftVariant.DIGIT


def _print_json(obj):
    print(json.dumps(obj, indent=2))


def _build_parser():
    parser = _Parser(prog="cantorshift",
                     description="exact arithmetic for variable-alphabet numeral systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact value of a number document")
    p.add_argument("number", help="path to a number JSON document")
    p.add_argument("--precision", type=_precision, default=12)

    p = sub.add_parser("decode", help="canonical digits of a rational")
    p.add_argument("system", help="path to a system JSON document")
    p.add_argument("value", help='rational "p/q"')
    p.add_argument("--depth", type=_int_range("depth", 1, MAX_DECODE_DEPTH), default=32)

    p = sub.add_parser("shift", help="drop the leading digit and position")
    p.add_argument("number")

    p = sub.add_parser("itershift", help="drop the leading m digits and positions")
    p.add_argument("number")
    p.add_argument("-m", type=int, required=True)

    p = sub.add_parser("gshift", help="delete digit and position m")
    p.add_argument("number")
    p.add_argument("-m", type=_int_range("m", 1, MAX_GSHIFT_M), required=True)
    p.add_argument("--variant", choices=("digit", "position"), default="digit")

    p = sub.add_parser("cylinder", help="exact interval of a digit prefix")
    p.add_argument("system")
    p.add_argument("digits", nargs="+", type=int)

    p = sub.add_parser("segments", help="piecewise-affine table as TSV")
    p.add_argument("system")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--variant", choices=("digit", "position"), default="digit")
    p.add_argument("--precision", type=_precision, default=12)

    p = sub.add_parser("graph", help="exact graph samples as TSV")
    p.add_argument("system")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--samples", type=int, default=2)
    p.add_argument("--variant", choices=("digit", "position"), default="digit")
    p.add_argument("--precision", type=_precision, default=12)

    p = sub.add_parser("partner", help="dual representation, if any")
    p.add_argument("number")

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    p.add_argument("--trials", type=_int_range("trials", 1, MAX_TRIALS), default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-q", type=_int_range("max-q", 3, MAX_Q), default=12)
    p.add_argument("--max-prefix", type=_int_range("max-prefix", 0, MAX_PREFIX), default=12)
    p.add_argument("--max-m", type=_int_range("max-m", 1, MAX_M), default=8)
    return parser


def _bounded_int(text, lo, hi, message):
    """The integer `text` names, when it lies in lo..hi; anything else,
    non-integer text included, is refused with `message`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(message)
    return value


def _seed(text):
    return _bounded_int(text, 0, 2**64 - 1, "seed must be a decimal 64-bit unsigned integer")


def _int_range(name, lo, hi):
    """argparse type of an integer option bounded to lo..hi."""
    def parse(text):
        return _bounded_int(text, lo, hi, f"{name} must be an integer in {lo}..{hi}")
    return parse


_precision = _int_range("precision", 0, MAX_PRECISION)


def _cmd_eval(args):
    num = _load_number(args.number)
    value = evaluate(num)
    print(rational_str(value))
    print(decimal_str(value, args.precision))
    return 0


def _cmd_decode(args):
    system = _load_system(args.system)
    value = parse_rational(args.value, "value")
    num = decode(system, value, args.depth)
    _print_json(documents.number_to_doc(num))
    return 0


def _cmd_shift(args):
    num = _load_number(args.number)
    image = shift(num)
    _print_json({"number": documents.number_to_doc(image),
                 "value": rational_str(evaluate(image))})
    return 0


def _cmd_itershift(args):
    num = _load_number(args.number)
    image = iterate_shift(num, args.m)
    _print_json({"number": documents.number_to_doc(image),
                 "value": rational_str(evaluate(image))})
    return 0


def _cmd_gshift(args):
    num = _load_number(args.number)
    variant = _variant(args.variant)
    image = generalized_shift(num, args.m, variant)
    _print_json({
        "number": documents.number_to_doc(image),
        "surgery_value": rational_str(evaluate(image)),
        "closed_form_value": rational_str(closed_form_value(num, args.m, variant)),
    })
    return 0


def _cmd_cylinder(args):
    system = _load_system(args.system)
    interval = cylinder(system, args.digits)
    print(f"lo: {rational_str(interval.lo)}")
    print(f"hi: {rational_str(interval.hi)}")
    print(f"width: {rational_str(interval.width)}")
    return 0


def _cmd_segments(args):
    system = _load_system(args.system)
    rows = [
        (interval.lo, interval.hi, affine.slope, affine.intercept)
        for interval, affine in segment_table(system, args.m, _variant(args.variant))
    ]
    sys.stdout.write(documents.emit_tsv(("lo", "hi", "slope", "intercept"),
                                        rows, args.precision))
    return 0


def _cmd_graph(args):
    system = _load_system(args.system)
    points = graph_samples(system, args.m, args.samples, _variant(args.variant))
    sys.stdout.write(documents.emit_tsv(("x", "y"), points, args.precision))
    return 0


def _cmd_partner(args):
    num = _load_number(args.number)
    partner = quasi_partner(num)
    if partner is None:
        print("none")
    else:
        _print_json(documents.number_to_doc(partner))
    return 0


def _cmd_verify(args):
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = []
    for name in names:
        cfg = verify.VerifyConfig(
            suite=name,
            trials=args.trials,
            seed=args.seed,
            max_q=args.max_q,
            max_prefix=args.max_prefix,
            max_m=args.max_m,
        )
        results.append(verify.run_suite(cfg))
    print(verify.format_report(results))
    failing = [r for r in results if not r.ok]
    if failing:
        print(json.dumps({"suite": failing[0].name,
                          "failing_case": failing[0].failures[0]}, indent=2))
        return 2
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "decode": _cmd_decode,
    "shift": _cmd_shift,
    "itershift": _cmd_itershift,
    "gshift": _cmd_gshift,
    "cylinder": _cmd_cylinder,
    "segments": _cmd_segments,
    "graph": _cmd_graph,
    "partner": _cmd_partner,
    "verify": _cmd_verify,
}


def run(argv):
    """Execute one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_CliError, ExpansionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: eval, decode, shift, itershift, gshift, cylinder, segments,
graph, partner, verify.  Exit codes: 0 success, 1 validation or domain
error (one machine-parsable "error: ..." line on stderr), 2 property
suite failure (the first failure record as JSON on stdout: minimized by
the four closed-form suites through `verify._closed_form_trial`, as drawn
by the other nine).  Every JSON document is printed by
`writers.dump_json`, and the `segments` and `graph` tables by
`writers.segments_tsv` and `writers.graph_tsv` from their integer rows.

Each command is a process, and the package may be compiled from source on
every start, so a process loads a module only when its command uses it.
This module loads the document parser (`documents`) and evaluation
(`numbers`);
`decoding`, `writers`, `operators`, `analysis` and `verify` are imported
inside the commands that use them.  `eval` loads none of them; `shift`,
`itershift` and `gshift` load `operators` and `writers`; `cylinder`
loads `decoding`; `decode` and `partner` load `decoding` and `writers`;
`segments` and `graph` load `decoding`, `writers`, `operators` and
`analysis`; and `verify` loads every module.  For the same reason the
argument parser holds only the subparser of the command the line names;
help and usage errors that name no command get every subparser.
"""

import argparse
import os
import re
import sys
from functools import lru_cache
from pathlib import Path

from . import documents
from .errors import ExpansionError
from .numbers import evaluate
from .rationals import MAX_PRECISION, decimal_str, parse_rational, rational_str
from .systems import MAX_TABLE_ROWS

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
# Largest segments/graph rank: every alphabet has at least two digits, so a
# rank-m table has at least 2^m rows and a larger m always exceeds
# MAX_TABLE_ROWS.
MAX_TABLE_RANK = MAX_TABLE_ROWS.bit_length() - 1


class _CliError(Exception):
    pass


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number; "-p/q" is one too.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    from .operators import ShiftVariant

    return ShiftVariant.POSITION if name == "position" else ShiftVariant.DIGIT


def _print_json(obj):
    from .writers import dump_json

    print(dump_json(obj))


def _int_range(name, lo, hi=None, message=None):
    """argparse type of an integer argument in lo..hi (lo and above when hi
    is None); anything else, non-integer text included, is refused with
    `message`, by default the range."""
    if message is None:
        message = (f"{name} must be an integer >= {lo}" if hi is None
                   else f"{name} must be an integer in {lo}..{hi}")

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(message) from None
        if value < lo or hi is not None and value > hi:
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_seed = _int_range("seed", 0, 2**64 - 1, "seed must be a decimal 64-bit unsigned integer")
_precision = _int_range("precision", 0, MAX_PRECISION)
_table_rank = _int_range("m", 1, MAX_TABLE_RANK)


def _cmd_eval(args):
    num = _load_number(args.number)
    value = evaluate(num)
    print(rational_str(value))
    print(decimal_str(value, args.precision))
    return 0


def _cmd_decode(args):
    from . import decoding, writers

    system = _load_system(args.system)
    value = parse_rational(args.value, "value")
    num = decoding.decode(system, value, args.depth)
    _print_json(writers.number_to_doc(num))
    return 0


def _cmd_itershift(args):
    from . import operators, writers

    num = _load_number(args.number)
    image = operators.iterate_shift(num, args.m)
    _print_json({"number": writers.number_to_doc(image),
                 "value": rational_str(evaluate(image))})
    return 0


def _cmd_gshift(args):
    from . import operators, writers

    num = _load_number(args.number)
    variant = _variant(args.variant)
    image = operators.generalized_shift(num, args.m, variant)
    _print_json({
        "number": writers.number_to_doc(image),
        "surgery_value": rational_str(evaluate(image)),
        "closed_form_value": rational_str(operators.closed_form_value(num, args.m, variant)),
    })
    return 0


def _cmd_cylinder(args):
    from . import decoding

    system = _load_system(args.system)
    interval = decoding.cylinder(system, args.digits)
    print(f"lo: {rational_str(interval.lo)}")
    print(f"hi: {rational_str(interval.hi)}")
    print(f"width: {rational_str(interval.width)}")
    return 0


def _cmd_segments(args):
    from . import analysis, writers

    system = _load_system(args.system)
    rows, d_lo, d_hi = analysis._segment_ints(system, args.m, _variant(args.variant))
    sys.stdout.write(writers.segments_tsv(rows, d_lo, d_hi, args.precision))
    return 0


def _cmd_graph(args):
    from . import analysis, writers

    system = _load_system(args.system)
    points, x_den = analysis._graph_ints(system, args.m, args.samples, _variant(args.variant))
    sys.stdout.write(writers.graph_tsv(points, x_den, args.precision))
    return 0


def _cmd_partner(args):
    from . import decoding, writers

    num = _load_number(args.number)
    partner = decoding.quasi_partner(num)
    if partner is None:
        print("none")
    else:
        _print_json(writers.number_to_doc(partner))
    return 0


def _cmd_verify(args):
    from . import verify

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
        _print_json({"suite": failing[0].name, "failing_case": failing[0].failures[0]})
        return 2
    return 0


def _arg(*names, **options):
    """The arguments of one `add_argument` call."""
    return names, options


_PRECISION = _arg("--precision", type=_precision, default=12)
_VARIANT = _arg("--variant", choices=("digit", "position"), default="digit")

# name: (help line, defaults, argument, ...).  The defaults name the
# command's handler; `shift` is `itershift` with m = 1.
_COMMANDS = {
    "eval": ("exact value of a number document", {"handler": _cmd_eval},
             _arg("number", help="path to a number JSON document"), _PRECISION),
    "decode": ("canonical digits of a rational", {"handler": _cmd_decode},
               _arg("system", help="path to a system JSON document"),
               _arg("value", help='rational "p/q"'),
               _arg("--depth", type=_int_range("depth", 1, MAX_DECODE_DEPTH), default=32)),
    "shift": ("drop the leading digit and position", {"handler": _cmd_itershift, "m": 1},
              _arg("number")),
    "itershift": ("drop the leading m digits and positions", {"handler": _cmd_itershift},
                  _arg("number"), _arg("-m", type=_int_range("m", 0), required=True)),
    "gshift": ("delete digit and position m", {"handler": _cmd_gshift},
               _arg("number"), _arg("-m", type=_int_range("m", 1, MAX_GSHIFT_M), required=True),
               _VARIANT),
    "cylinder": ("exact interval of a digit prefix", {"handler": _cmd_cylinder},
                 _arg("system"), _arg("digits", nargs="+", type=_int_range("digit", 0))),
    "segments": ("piecewise-affine table as TSV", {"handler": _cmd_segments},
                 _arg("system"), _arg("-m", type=_table_rank, required=True), _VARIANT,
                 _PRECISION),
    "graph": ("exact graph samples as TSV", {"handler": _cmd_graph},
              _arg("system"), _arg("-m", type=_table_rank, required=True),
              _arg("--samples", type=_int_range("samples", 2, MAX_TABLE_ROWS), default=2),
              _VARIANT, _PRECISION),
    "partner": ("dual representation, if any", {"handler": _cmd_partner}, _arg("number")),
    "verify": ("run a seeded property suite", {"handler": _cmd_verify},
               _arg("suite", help='a suite name, or "all" for every suite'),
               _arg("--trials", type=_int_range("trials", 1, MAX_TRIALS), default=1000),
               _arg("--seed", type=_seed, default=0),
               _arg("--max-q", type=_int_range("max-q", 3, MAX_Q), default=12),
               _arg("--max-prefix", type=_int_range("max-prefix", 0, MAX_PREFIX), default=12),
               _arg("--max-m", type=_int_range("max-m", 1, MAX_M), default=8)),
}


# A process runs one command, and the other nine subparsers would about
# double the time it takes to build its parser.  Each parser is built once
# per process.
@lru_cache(maxsize=None)
def _parser(command=None):
    """The parser of a command line that starts with `command`: the main
    parser with that command's subparser, or with every subparser when
    `command` is None, for help, a missing or an unknown command."""
    parser = _Parser(prog="cantorshift",
                     description="exact arithmetic for variable-alphabet numeral systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (_COMMANDS if command is None else (command,)):
        help_line, defaults, *arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(**defaults)
        for names, options in arguments:
            p.add_argument(*names, **options)
    return parser


def run(argv):
    """Execute one command line; returns the process exit code."""
    try:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = _parser(command).parse_args(argv)
        return args.handler(args)
    except (_CliError, ExpansionError, ValueError) as exc:
        # A file name or an argument may hold a line break; it is written
        # as the two characters \n so that the error stays one line.
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader of stdout is gone.  Python flushes stdout again at
        # exit, so stdout is pointed at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

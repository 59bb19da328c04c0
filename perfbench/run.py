#!/usr/bin/env python3
"""Benchmark of `cantorshift` commands, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

One client in one thread runs a closed loop: each operation is one
`cantorshift.cli.run(argv)` call with stdout captured in memory, and its
output is checked by an independent route outside the timed region.  Each
command's time is scaled to a reference host speed, measured just before
it (see README.md, "Host speed").  The package is imported from `src/`
next to this directory.  With `--trace 0` the last line of stdout is a
JSON object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics.  `--workload all` runs each
workload in its own interpreter and prints every metric with its unit.
See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import reference, trace, workloads  # noqa: E402

MIN_COMMANDS = 100   # so that at least ten samples lie beyond p90
SETUP_PROBES = 10  # extra fresh interpreters that only set up
WARMUP_ROUNDS = 1
TRACE_SPAN_BUDGET = 1_500_000  # about 55 MB of span arrays
WORK_DIR = ROOT / ".perfbench_work"
# The host's speed changes by up to 2x within seconds: one segments command
# of fixed work took from 160 to 570 ms in a single run.  So each timed
# command is paired with a fixed reference computation run just before it,
# and its time is reported at reference speed: wall time * REFERENCE_S / the
# reference's time.  REFERENCE_S is about the reference's median on a 2-vCPU
# Xeon virtual machine, so the figures stay close to wall time there.
REFERENCE_S = 0.004
REFERENCE_DOC = workloads.reference_document()
SETUP_REFERENCES = 3

Sample = namedtuple("Sample", "kind seconds reference ok traced bytes_out round")

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_package():
    """Import cantorshift from this checkout's src/; return `cli.run`."""
    if not (SRC / "cantorshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no cantorshift package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cantorshift.cli

    if Path(cantorshift.__file__).resolve().parent != SRC / "cantorshift":
        raise SystemExit(f"error: imported cantorshift from {cantorshift.__file__}")
    return cantorshift.cli.run


def _call(run_cli, argv):
    """One command with stdout and stderr captured; returns (exit code or
    None on an exception, stdout text, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = run_cli(argv)
        except Exception:
            code = None
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def reference_seconds():
    """Wall time of the host speed reference: a plain-Fraction evaluation
    of a fixed document, independent of the package."""
    start = perf_counter()
    reference.number_value(REFERENCE_DOC)
    return perf_counter() - start


def at_reference_speed(seconds, reference_s):
    return seconds * REFERENCE_S / reference_s


def _passes(command, code, stdout):
    if code != 0:
        return False
    try:
        return bool(command.check(stdout))
    except Exception:
        return False


def set_up(name, seed, workdir):
    """Import the package and build the workload with its fixed input
    documents.  Returns (workload, cli.run, wall seconds taken, reference
    seconds measured just before)."""
    reference_s = statistics.median(reference_seconds() for _ in range(SETUP_REFERENCES))
    start = perf_counter()
    run_cli = _import_package()
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, run_cli, perf_counter() - start, reference_s


def warm_up(workload, run_cli):
    """Run whole rounds on the warm-up sub-seeds, which the timed phase never
    uses: this warms imports and bytecode, not the input caches."""
    for index in range(WARMUP_ROUNDS * len(workload.kinds)):
        command = workload.command("warm", index)
        reference_seconds()
        _call(run_cli, command.argv)
        for path in command.inputs:
            path.unlink()


def timed_loop(workload, run_cli, seconds, tracer):
    """Run whole rounds of commands until `seconds` have passed and at least
    MIN_COMMANDS ran.  With a tracer, odd rounds are traced and even rounds
    are not, so both halves see the same mix of command kinds; tracing stops
    once TRACE_SPAN_BUDGET spans are held."""
    samples = []
    rss_kb = 0
    deadline = perf_counter() + seconds
    index = 0
    traced = False
    while True:
        command = workload.command("timed", index)
        if index % len(workload.kinds) == 0:
            traced = (tracer is not None and command.round % 2 == 1
                      and len(tracer.name) < TRACE_SPAN_BUDGET)
        reference_s = reference_seconds()
        if traced:
            code, stdout, elapsed = _call(
                lambda argv: tracer.run(index, run_cli, argv), command.argv)
        else:
            code, stdout, elapsed = _call(run_cli, command.argv)
        for path in command.inputs:
            path.unlink()
        ok = _passes(command, code, stdout)
        samples.append(Sample(command.kind, elapsed, reference_s, ok, traced,
                              len(stdout.encode()), command.round))
        index += 1
        if index == MIN_COMMANDS:
            # Memory after a fixed amount of work: a faster program that fits
            # more commands into the same seconds does not read as bigger.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if (index >= MIN_COMMANDS and index % len(workload.kinds) == 0
                and perf_counter() >= deadline):
            return samples, rss_kb


def _probe_setup(args):
    """(wall seconds, reference seconds) of set-up in fresh interpreters,
    one per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        times.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return times


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _source_digest():
    """Identifies the measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _quantile_ms(values, q):
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1] * 1000


def end_to_end(samples, rss_kb, setup_times):
    """The metrics at reference speed, and the same time metrics in wall time."""
    passed = sum(1 for s in samples if s.ok)
    values = {}
    for name, scale in (("reference speed", at_reference_speed), ("wall", lambda t, r: t)):
        latencies = [scale(s.seconds, s.reference) for s in samples]
        values[name] = {
            "throughput_ops_s": passed / sum(latencies),
            "latency_p50_ms": _quantile_ms(latencies, 5),
            "latency_p90_ms": _quantile_ms(latencies, 9),
            "setup_s": statistics.median(scale(t, r) for t, r in setup_times),
        }
    values["reference speed"]["peak_rss_mb"] = rss_kb / 1024
    return values["reference speed"], values["wall"]


def per_layer(samples, summary):
    traced = [x for x in samples if x.traced]
    # Untraced rounds from the same stretch of the run as the traced ones.
    last = max(x.round for x in traced)
    untraced = [x for x in samples if not x.traced and x.round <= last]
    n = summary["commands"]
    calls, extras, self_s = summary["calls"], summary["extras"], summary["self_s"]

    def per_cmd(value):
        return value / n

    def mean_time(group):
        return statistics.fmean(at_reference_speed(x.seconds, x.reference) for x in group)

    overhead = mean_time(traced) / mean_time(untraced)
    return {
        "series.calls": (per_cmd(summary["layer_calls"]["series"]), "count/cmd"),
        "series.terms": (per_cmd(extras.get("series.weighted_value", 0)
                                 + extras.get("series.weighted_periodic_value", 0)), "count/cmd"),
        "series.self_s": (per_cmd(self_s["series"]), "s/cmd"),
        "systems.shift_system.calls": (per_cmd(calls.get("systems.shift_system", 0)), "count/cmd"),
        "systems.base_interval.calls": (per_cmd(calls.get("systems.base_interval", 0)),
                                        "count/cmd"),
        "systems.base_interval.hit_ratio": (summary["base_interval_hit_ratio"], "ratio"),
        "systems.self_s": (per_cmd(self_s["systems"]), "s/cmd"),
        "numbers.decode.calls": (per_cmd(calls.get("numbers.decode", 0)), "count/cmd"),
        "numbers.digits_decoded": (per_cmd(summary["digits_decoded"]), "count/cmd"),
        "numbers.cylinder.calls": (per_cmd(calls.get("numbers.cylinder", 0)), "count/cmd"),
        "numbers.evaluate.calls": (per_cmd(calls.get("numbers.evaluate", 0)), "count/cmd"),
        "numbers.self_s": (per_cmd(self_s["numbers"]), "s/cmd"),
        "operators.generalized_shift.calls": (
            per_cmd(calls.get("operators.generalized_shift", 0)), "count/cmd"),
        "operators.closed_form_value.calls": (
            per_cmd(calls.get("operators.closed_form_value", 0)), "count/cmd"),
        "operators.self_s": (per_cmd(self_s["operators"]), "s/cmd"),
        "analysis.rows": (per_cmd(summary["rows"]), "count/cmd"),
        "analysis.point_image.calls": (per_cmd(calls.get("analysis.point_image", 0)), "count/cmd"),
        "analysis.self_s": (per_cmd(self_s["analysis"]), "s/cmd"),
        "verify.trials": (per_cmd(extras.get("verify.run_suite", 0)), "count/cmd"),
        "verify.self_s": (per_cmd(self_s["verify"]), "s/cmd"),
        "cli.commands": (n, "count"),
        "cli.bytes_out": (per_cmd(sum(x.bytes_out for x in traced)), "B/cmd"),
        "documents.self_s": (per_cmd(self_s["documents"]), "s/cmd"),
        "cli.self_s": (per_cmd(self_s["cli"]), "s/cmd"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }


def run_workload(args):
    setup_times = [] if args.trace or args.setup_only else _probe_setup(args)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload, run_cli, setup_s, reference_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(f"setup_s {setup_s!r} {reference_s!r}")
            return
        setup_times.append((setup_s, reference_s))
        warm_up(workload, run_cli)
        tracer = None
        if args.trace:
            tracer = trace.Tracer()
            tracer.prepare()
        samples, rss_kb = timed_loop(workload, run_cli, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir)

    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    print(f"env: python {platform.python_version()}, git rev {_git_rev()}, "
          f"src sha256 {_source_digest()}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print(f"commands: {attempted} attempted, {failed} failed, "
          f"failed_ops_ratio {failed / attempted:.6g} (ratio)")
    if args.trace:
        spans = WORK_DIR / f"spans-{args.workload}.bin"
        tracer.write_spans(spans)
        summary = tracer.summary()
        layer = per_layer(samples, summary)
        traced = summary["commands"]
        for name, (value, unit) in layer.items():
            print(f"{name:36s} {value:14.6g} {unit:10s} (n={traced} traced commands)")
        total = sum(summary["self_s"].values())
        shares = sorted(((v / total, k) for k, v in summary["self_s"].items()), reverse=True)
        print("self-time share: " + ", ".join(f"{k} {v:.1%}" for v, k in shares))
        print(f"spans: {len(tracer.name)} written to {spans.relative_to(ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        values, wall = end_to_end(samples, rss_kb, setup_times)
        counts = {"setup_s": len(setup_times), "peak_rss_mb": MIN_COMMANDS}
        for name, unit in END_TO_END:
            n = counts.get(name, attempted)
            label = "set-ups" if name == "setup_s" else "commands"
            print(f"{name:20s} {values[name]:14.6g} {unit:4s} (n={n} {label})")
        speed = REFERENCE_S / statistics.median(s.reference for s in samples)
        print("wall time, not scaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items())
            + f"; median host speed {speed:.3f} x reference")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload, each in its own interpreter."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()

"""The benchmark's workloads: seeded `cantorshift` command lines and the
independent check of each command's output.

Every workload is a fixed cycle of command kinds (one *round*).  Command i
takes its inputs from a sub-seed derived from (workload, master seed,
phase, i), so the warm-up phase and the timed phase never share inputs and
the cost of a run varies little between master seeds.  Input sizes are
fixed by the workload; the seed only chooses values.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import reference

# The closed-form and composition suites: no decode, no cylinder.
IDENTITY_SUITES = (
    "eq4", "alternating", "general_signed", "qtilde", "theorem_a", "theorem_b",
    "jump", "continuity", "duality", "residual", "constant_alphabet",
)
IDENTITY_TRIALS = 16
ROUNDTRIP_TRIALS = 32
# Trial t of the segments suite draws flavour t % 4, so every four trials cover
# positive and signed Cantor and positive and signed column systems.
SEGMENTS_TRIALS = 16

# Deep digit prefixes, the "deep cantor prefix" and "deep column prefix"
# cases of benchmarks/bench_kernel.py.
DEEP_CANTOR_POSITIONS = 1500
DEEP_COLUMN_POSITIONS = 800
# Digits of the host speed reference: about 4 ms of plain-Fraction work.
REFERENCE_POSITIONS = 300
DECODE_PRIMES = (701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797)


@dataclass
class Command:
    kind: str
    argv: list
    check: Callable[[str], bool]
    round: int
    inputs: tuple = ()  # files written for this command alone


def _ok(_stdout):
    return True


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rand_column(rng, k, min_den, max_den):
    den = rng.randrange(max(min_den, k), max_den + 1)
    cuts = sorted(rng.sample(range(1, den), k - 1))
    bounds = [0] + cuts + [den]
    return [f"{b - a}/{den}" for a, b in zip(bounds, bounds[1:])]


def _rand_signs(rng, prefix_len, cycle_len):
    while True:
        prefix = [rng.random() < 0.5 for _ in range(prefix_len)]
        cycle = [rng.random() < 0.5 for _ in range(cycle_len)]
        if any(prefix) or any(cycle):
            return {"prefix": prefix, "cycle": cycle}


class Workload:
    """Base class: subclasses set `kinds` (one round) and build commands."""

    name = ""
    kinds = ()

    def __init__(self, master_seed, workdir):
        self.master_seed = master_seed
        self.workdir = workdir

    def rng(self, phase, index):
        return random.Random(f"{self.name}:{self.master_seed}:{phase}:{index}")

    def command(self, phase, index):
        kind = self.kinds[index % len(self.kinds)]
        path = self.workdir / f"{phase}-{index}.json"
        argv, check = self.build(kind, self.rng(phase, index), path, phase)
        inputs = (path,) if path.exists() else ()
        return Command(kind, argv, check, index // len(self.kinds), inputs)

    def build(self, kind, rng, path, phase):
        """(argv, check) of one command; may write its input to `path`."""
        raise NotImplementedError


class VerifySuites(Workload):
    """`verify <suite>` over every suite, each command a fresh sub-seed."""

    name = "verify_suites"
    kinds = IDENTITY_SUITES + ("roundtrip", "segments")

    def build(self, kind, rng, path, phase):
        trials = {"roundtrip": ROUNDTRIP_TRIALS, "segments": SEGMENTS_TRIALS}.get(
            kind, IDENTITY_TRIALS)
        seed = rng.getrandbits(63)
        return ["verify", kind, "--trials", str(trials), "--seed", str(seed)], _ok


def _table_systems(rng):
    """A signed Cantor, a positive column and a signed column system whose
    alphabet sizes are fixed, so table sizes do not depend on the seed."""
    lead = [8, 9, 10]
    rng.shuffle(lead)
    signed_cantor = {
        "kind": "cantor",
        "base": {"prefix": lead + [rng.randrange(2, 13)],
                 "cycle": [rng.randrange(2, 13) for _ in range(2)]},
        "signs": _rand_signs(rng, 4, 2),
    }

    def columns():
        return {"prefix": [_rand_column(rng, 4, 8, 24) for _ in range(5)],
                "cycle": [_rand_column(rng, 3, 6, 16) for _ in range(2)]}

    positive_column = {"kind": "qtilde", "columns": columns(), "signs": "none"}
    signed_column = {"kind": "qtilde", "columns": columns(), "signs": _rand_signs(rng, 3, 2)}
    return {"sc": signed_cantor, "pc": positive_column, "nc": signed_column}


def _product(system, m):
    count = 1
    for n in range(1, m + 1):
        count *= reference.alphabet_size(system, n)
    return count


def _tsv_rows(stdout, header):
    lines = stdout.splitlines()
    names = list(header) + [f"{h}_dec" for h in header]
    if not lines or lines[0].split("\t") != names:
        return None
    width = len(names)
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        return None
    return [[reference.parse_rational(cell) for cell in row[: len(header)]] for row in rows]


def _segments_check(system, m):
    expected = _product(system, m)
    bounds = reference.base_interval(system) if reference.tiles(system) else None

    def check(stdout):
        rows = _tsv_rows(stdout, ("lo", "hi", "slope", "intercept"))
        if rows is None or len(rows) != expected:
            return False
        if bounds is None:
            return True
        lo, hi = bounds
        return (rows[0][0] == lo and rows[-1][1] == hi
                and all(a[1] == b[0] for a, b in zip(rows, rows[1:])))

    return check


def _graph_check(system, m, samples):
    expected = _product(system, m) * samples
    lo, hi = reference.base_interval(system)

    def check(stdout):
        rows = _tsv_rows(stdout, ("x", "y"))
        if rows is None or len(rows) != expected:
            return False
        xs = [row[0] for row in rows]
        return lo < xs[0] and xs[-1] < hi and all(a < b for a, b in zip(xs, xs[1:]))

    return check


def _deep_cantor_number(rng, periodic, positions=DEEP_CANTOR_POSITIONS):
    bases = [rng.randrange(2, 13) for _ in range(positions)]
    q = rng.randrange(2, 13)
    system = {
        "kind": "cantor",
        "base": {"prefix": bases, "cycle": [q]},
        "signs": {"prefix": [rng.random() < 0.5 for _ in bases], "cycle": [False]},
    }
    digits = [rng.randrange(0, b) for b in bases]
    tail = {"type": "zeros"}
    if periodic:
        tail = {"type": "cycle", "cycle": [rng.randrange(0, q) for _ in range(2)]}
    return {"system": system, "digits": {"prefix": digits, "tail": tail}}


def reference_document():
    """The fixed number document whose plain-`Fraction` evaluation measures
    the host's speed; it does not depend on the seed."""
    return _deep_cantor_number(random.Random("host speed reference"), False,
                               REFERENCE_POSITIONS)


def _deep_column_number(rng):
    columns = [_rand_column(rng, rng.randrange(2, 4), 4, 16)
               for _ in range(DEEP_COLUMN_POSITIONS)]
    cycle = [_rand_column(rng, 3, 6, 16)]
    system = {"kind": "qtilde", "columns": {"prefix": columns, "cycle": cycle}, "signs": "none"}
    digits = [rng.randrange(0, len(c)) for c in columns]
    tail = {"type": "cycle", "cycle": [rng.randrange(0, 3)]}
    return {"system": system, "digits": {"prefix": digits, "tail": tail}}


def _primitive_root(p, rng):
    """A random base in 2..12 whose powers run through all residues mod the
    prime p, so every a/p expands with period exactly p - 1."""
    factors = [f for f in range(2, p) if (p - 1) % f == 0 and all(f % g for g in range(2, f))]
    roots = [q for q in range(2, 13) if all(pow(q, (p - 1) // f, p) != 1 for f in factors)]
    return rng.choice(roots)


def _eval_check(doc):
    expected = reference.rational_str(reference.number_value(doc))

    def check(stdout):
        lines = stdout.splitlines()
        return len(lines) == 2 and lines[0] == expected

    return check


def _gshift_check(stdout):
    out = json.loads(stdout)
    return out["surgery_value"] == out["closed_form_value"]


def _decode_check(value):
    def check(stdout):
        return reference.number_value(json.loads(stdout)) == value

    return check


class CliDocuments(Workload):
    """CLI commands on documents: `segments` and `graph` tables on three
    seeded system documents, and `eval`, `gshift` and `decode` on distinct
    number documents with deep digit prefixes or long periods."""

    name = "cli_documents"
    # kind -> (command, system, m, samples).  The signed column system has no
    # graph because its cylinders overlap and its points do not decode.
    TABLES = {
        "segments-sc": ("segments", "sc", 3, 0),   # 720 rows
        "segments-pc": ("segments", "pc", 5, 0),   # 1024 rows
        "segments-nc": ("segments", "nc", 4, 0),   # 256 rows
        "graph-sc": ("graph", "sc", 2, 3),         # 216-270 rows
        "graph-pc": ("graph", "pc", 3, 3),         # 192 rows
    }
    # segments-pc, the slowest kind, runs twice a round: of the 12 commands
    # of a round the 90th percentile then falls inside its latencies, not in
    # the tail of graph-pc, the next slowest.  The median lies between
    # gshift-column and segments-nc, whose latencies overlap.
    kinds = tuple(TABLES) + ("eval-cantor", "eval-cantor-periodic", "eval-column",
                             "gshift-cantor", "gshift-column", "decode", "segments-pc")

    def __init__(self, master_seed, workdir):
        super().__init__(master_seed, workdir)
        self.systems = {}
        self.paths = {}
        for phase in ("warm", "timed"):
            docs = _table_systems(self.rng(phase, "systems"))
            for key, doc in docs.items():
                self.systems[phase, key] = doc
                self.paths[phase, key] = _write(workdir / f"{phase}-{key}.json", doc)

    def build(self, kind, rng, path, phase):
        if kind in self.TABLES:
            cmd, key, m, samples = self.TABLES[kind]
            system = self.systems[phase, key]
            argv = [cmd, self.paths[phase, key], "-m", str(m),
                    "--precision", str(rng.randrange(8, 17))]
            if cmd == "graph":
                return argv + ["--samples", str(samples)], _graph_check(system, m, samples)
            return argv, _segments_check(system, m)
        if kind == "decode":
            p = rng.choice(DECODE_PRIMES)
            q = _primitive_root(p, rng)
            system = {"kind": "cantor", "base": {"prefix": [], "cycle": [q]}, "signs": "none"}
            value = Fraction(rng.randrange(1, p), p)
            argv = ["decode", _write(path, system), reference.rational_str(value),
                    "--depth", str(2 * p)]
            return argv, _decode_check(value)
        if kind.endswith("column"):
            doc = _deep_column_number(rng)
        else:
            doc = _deep_cantor_number(rng, periodic=kind.endswith("periodic"))
        if kind.startswith("eval"):
            return ["eval", _write(path, doc)], _eval_check(doc)
        positions = len(doc["digits"]["prefix"])
        m = rng.randrange(positions // 3, 2 * positions // 3)
        return ["gshift", _write(path, doc), "-m", str(m)], _gshift_check


WORKLOADS = {w.name: w for w in (VerifySuites, CliDocuments)}

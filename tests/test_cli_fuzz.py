"""Hypothesis fuzz test of the CLI contract: for generated and mutated system
and number documents and argument lists, `cli.run` exits with 0, 1 or 2, no
exception escapes it, exit 1 writes exactly one `error:` line to stderr, and
every successful `gshift` prints equal surgery and closed-form values."""

import contextlib
import io
import json
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cantorshift.cli import run

JUNK_TEXT = ["", "abc", "1.5", "-1", "0", "1/0", "3/-4", "1e3", " 2", "9" * 30,
             "-" + "9" * 5000, "a\nb", "\x00"]
json_leaves = (st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from(JUNK_TEXT)
               | st.sampled_from([10**20, -10**20, 0.5])
               | st.sampled_from(["zeros", "max", "cycle", "cantor", "qtilde", "odd", "1/2"]))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["kind", "prefix", "cycle", "type"]),
                                     inner, max_size=2)),
    max_leaves=4,
)

signs = st.sampled_from(["none", "odd", "even"]) | st.fixed_dictionaries({
    "prefix": st.lists(st.booleans(), max_size=2),
    "cycle": st.lists(st.booleans(), min_size=1, max_size=3),
})


@st.composite
def columns(draw):
    k = draw(st.integers(2, 3))
    den = draw(st.integers(k, 12))
    cuts = sorted(draw(st.sets(st.integers(1, den - 1), min_size=k - 1, max_size=k - 1)))
    bounds = [0] + cuts + [den]
    return [f"{b - a}/{den}" for a, b in zip(bounds, bounds[1:])]


cantor_systems = st.fixed_dictionaries({
    "kind": st.just("cantor"),
    "base": st.fixed_dictionaries({
        "prefix": st.lists(st.integers(2, 6), max_size=3),
        "cycle": st.lists(st.integers(2, 6), min_size=1, max_size=3),
    }),
    "signs": signs,
})
column_systems = st.fixed_dictionaries({
    "kind": st.just("qtilde"),
    "columns": st.fixed_dictionaries({
        "prefix": st.lists(columns(), max_size=2),
        "cycle": st.lists(columns(), min_size=1, max_size=2),
    }),
    "signs": signs,
})
systems = cantor_systems | column_systems


def _period(system):
    """(P, L) of a generated system document, before any mutation."""
    positions = system["base"] if system["kind"] == "cantor" else system["columns"]
    sign_prefix, sign_cycle = ((0, 2) if system["signs"] in ("odd", "even")
                               else (0, 1) if system["signs"] == "none"
                               else (len(system["signs"]["prefix"]),
                                     len(system["signs"]["cycle"])))
    return (max(len(positions["prefix"]), sign_prefix),
            lcm(len(positions["cycle"]), sign_cycle))


@st.composite
def numbers(draw, system):
    pre, period = _period(system)
    kind = draw(st.sampled_from(["zeros", "max", "cycle"]))
    digits = st.integers(0, 2)
    if kind == "cycle":
        prefix = draw(st.lists(digits, min_size=pre, max_size=pre + 3))
        tail = {"type": "cycle",
                "cycle": draw(st.lists(digits, min_size=period, max_size=period))}
    else:
        prefix = draw(st.lists(digits, max_size=5))
        tail = {"type": kind}
    return {"system": system, "digits": {"prefix": prefix, "tail": tail}}


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _mutated(data, doc):
    """The document, or (half the time) the document with one node replaced."""
    if data.draw(st.booleans()):
        return doc
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    return _replaced(doc, path, data.draw(json_values))


def _int_text(lo, hi):
    return st.integers(lo, hi).map(str) | st.sampled_from(JUNK_TEXT)


COMMANDS = ["eval", "decode", "shift", "itershift", "gshift", "cylinder", "segments",
            "graph", "partner"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _argv(data, command, workdir):
    system = data.draw(systems)
    spath = workdir / "s.json"
    npath = workdir / "n.json"
    spath.write_text(json.dumps(_mutated(data, system)), encoding="utf-8")
    number = data.draw(numbers(system))
    if data.draw(st.booleans()):
        # a reference to the system file, or to a file that is not there
        number["system"] = data.draw(st.sampled_from(["s.json", "s.json", "no\nfile.json"]))
    npath.write_text(json.dumps(_mutated(data, number)), encoding="utf-8")
    if command == "decode":
        value = data.draw(st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 12))
                          | st.sampled_from(JUNK_TEXT))
        return ["decode", str(spath), "--depth", data.draw(_int_text(1, 48)), "--", value]
    if command == "cylinder":
        return ["cylinder", str(spath)] + data.draw(
            st.lists(_int_text(-1, 5), min_size=1, max_size=4))
    if command in ("segments", "graph"):
        argv = [command, str(spath), "-m", data.draw(_int_text(0, 3)),
                "--precision", data.draw(_int_text(0, 20))]
        if command == "graph":
            argv += ["--samples", data.draw(_int_text(1, 3))]
        return argv + ["--variant", data.draw(st.sampled_from(["digit", "position"]))]
    argv = [command, str(npath)]
    if command == "itershift":
        argv += ["-m", data.draw(_int_text(0, 9))]
    elif command == "gshift":
        argv += ["-m", data.draw(_int_text(0, 9)),
                 "--variant", data.draw(st.sampled_from(["digit", "position"]))]
    elif command == "eval":
        argv += ["--precision", data.draw(_int_text(0, 20))]
    return argv


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_cli_contract_holds_for_any_input(workdir, data):
    command = data.draw(st.sampled_from(COMMANDS))
    argv = _argv(data, command, workdir)
    if data.draw(st.integers(0, 3)) == 0:
        # one junk argument at any place but the command's
        argv.insert(data.draw(st.integers(1, len(argv))), data.draw(st.sampled_from(JUNK_TEXT)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
    else:
        assert err.getvalue() == ""
    if code == 0 and command == "gshift":
        image = json.loads(out.getvalue())
        assert image["surgery_value"] == image["closed_form_value"]

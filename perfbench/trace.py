"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of a traced layer with a
timing wrapper, in every `cantorshift.*` namespace that binds it (the
modules use `from .x import f`, so patching the defining module alone
would miss most calls).  Private functions, methods, constructors and the
helper modules `rationals` and `sampling` are not wrapped: their time
counts as self time of the layer that calls them.  So `verify` includes
`sampling`, `documents` and `cli` include `rationals`, and `analysis`
includes the private closed form it imports from `operators`.

Spans are kept in memory as (name, start, end, parent, command) arrays
and written out at the end by `write_spans`.  A layer's self time is the
duration of its spans minus the time their child spans cover.
"""

import json
import sys
from array import array
from time import perf_counter

LAYERS = ("series", "systems", "numbers", "operators", "analysis", "verify", "documents", "cli")
ROOT = "cli.run"

# Counters that need a call's arguments or result: span name -> extra value.
_EXTRA = {
    "series.weighted_value": lambda args, result: len(args[0]),
    "series.weighted_periodic_value": lambda args, result: len(args[0]),
    "analysis.segment_table": lambda args, result: len(result),
    "analysis.graph_samples": lambda args, result: len(result),
    "verify.run_suite": lambda args, result: args[0].trials,
}


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("q")
        self.stack = [-1]
        self.current_command = -1
        self.bindings = []  # (namespace, attribute, original, wrapper)
        self.base_interval = None
        self.cache_hits = 0
        self.cache_misses = 0

    def _open(self, name_id):
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.command.append(self.current_command)
        self.extra.append(0)
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span):
        self.end[span] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        extra = _EXTRA.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if extra is not None:
                tracer.extra[span] = extra(args, result)
            return result

        return traced

    def prepare(self):
        """Find every binding to wrap; call once after importing the package."""
        import cantorshift.systems

        self.base_interval = cantorshift.systems.base_interval
        layer_modules = {f"cantorshift.{layer}" for layer in LAYERS}
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "cantorshift" and not mod_name.startswith("cantorshift."):
                continue
            for attr, obj in sorted(vars(module).items()):
                home = getattr(obj, "__module__", None)
                if (attr.startswith("_") or home not in layer_modules
                        or isinstance(obj, type) or not callable(obj)):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{home.split('.')[1]}.{obj.__name__}", obj)
                self.bindings.append((module, attr, obj, wrappers[obj]))

    def install(self):
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def run(self, command_id, fn, *args):
        """Call fn(*args) as the root span of one traced command."""
        self.current_command = command_id
        before = self.base_interval.cache_info()
        self.install()
        span = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.uninstall()
            after = self.base_interval.cache_info()
            self.cache_hits += after.hits - before.hits
            self.cache_misses += after.misses - before.misses

    def summary(self):
        """Per-layer self time, per-function call counts and derived counters."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layer_of = [_layer(name) for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(self.names, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        extras = dict.fromkeys(self.names, 0)
        digits_decoded = rows = 0
        ids = self.name_ids
        decoding = {ids[k] for k in ("numbers.decode", "numbers.partial_digits") if k in ids}
        tables = {ids[k] for k in ("analysis.segment_table", "analysis.graph_samples") if k in ids}
        shift_id = ids.get("systems.shift_system")
        for i in range(n):
            name_id = self.name[i]
            name = self.names[name_id]
            layer = layer_of[name_id]
            self_s[layer] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
            layer_calls[layer] += 1
            extras[name] += self.extra[i]
            p = self.parent[i]
            if p < 0:
                continue
            # Each digit step of a decode shifts the system once.
            if name_id == shift_id and self.name[p] in decoding:
                digits_decoded += 1
            # graph_samples builds a segment table: count only the outer table.
            if name_id in tables and layer_of[self.name[p]] != "analysis":
                rows += self.extra[i]
        lookups = self.cache_hits + self.cache_misses
        return {
            "self_s": self_s,
            "calls": calls,
            "layer_calls": layer_calls,
            "extras": extras,
            "digits_decoded": digits_decoded,
            "rows": rows,
            "base_interval_hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "commands": calls[ROOT],
        }

    def write_spans(self, path):
        """Write every span: one JSON header line, then each field in header
        order as a raw array of `spans` items (`array.fromfile` reads it)."""
        fields = (("command", self.command), ("name", self.name), ("parent", self.parent),
                  ("start", self.start), ("end", self.end))
        header = {"spans": len(self.name), "names": self.names, "byteorder": sys.byteorder,
                  "fields": [[field, values.typecode] for field, values in fields]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _, values in fields:
                values.tofile(out)

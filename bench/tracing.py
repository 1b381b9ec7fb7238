"""Spans around kmatchlab's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, wherever the function object is bound: as a module
attribute of any kmatchlab module (``harness`` imports oracle functions by
name, ``cli`` imports harness functions, ...) and as a value of any
module-level dict (the ``_FORMATTERS`` table).  Each call of a wrapper is
one span (name, start, end, parent); each resume of a wrapped generator
is one span as well, so a generator's time is the time spent producing
its items.  Spans are kept in flat arrays and written out by ``write``.

Leaf helpers that cost about as much as a wrapper and are called once per
formula term (LEAVES) are left unwrapped, so that the tracer does not
inflate their callers' times; ``exact.rat_str``, called once per
serialized value, is counted, not timed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("graph", "partitions", "coeffs", "oracle", "fastcount", "harness", "exact", "cli")
LEAVES = {"exact.factorial", "exact.falling_factorial", "exact.rat_from_str",
          "fastcount.power_sum", "graph.degree_vector"}
COUNT_ONLY = {"exact.rat_str"}

_DISTINCT = ("fastcount.fast_count", "oracle.count_k_matchings")

# (metric, unit, traced function, statistic); "s" is inclusive time summed
# over outermost calls, "self_s" excludes the time of child spans; both
# exclude the tracer's own bookkeeping, timed around each span
PER_LAYER = [
    ("fastcount.fast_count_s", "s", "fastcount.fast_count", "s"),
    ("fastcount.fast_count_calls", "count", "fastcount.fast_count", "calls"),
    ("fastcount.fast_count_keys", "count", "fastcount.fast_count", "keys"),
    ("fastcount.fast_count_distinct", "count", "fastcount.fast_count", "distinct"),
    ("coeffs.compute_f_s", "s", "coeffs.compute_f", "s"),
    ("coeffs.compute_f_calls", "count", "coeffs.compute_f", "calls"),
    ("partitions.enumerate_partitions_s", "s", "partitions.enumerate_partitions", "s"),
    ("partitions.partitions_yielded", "count", "partitions.enumerate_partitions", "yielded"),
    ("coeffs.compute_gprime_s", "s", "coeffs.compute_gprime", "s"),
    ("coeffs.compute_gprime_calls", "count", "coeffs.compute_gprime", "calls"),
    ("oracle.count_k_matchings_s", "s", "oracle.count_k_matchings", "s"),
    ("oracle.count_k_matchings_calls", "count", "oracle.count_k_matchings", "calls"),
    ("oracle.count_k_matchings_distinct", "count", "oracle.count_k_matchings", "distinct"),
    ("graph.graph_from_mask_s", "s", "graph.graph_from_mask", "s"),
    ("graph.encode_graph6_s", "s", "graph.encode_graph6", "s"),
    ("graph.generate_s", "s", "graph.generate", "s"),
    ("harness.discrepancy_search_self_s", "s", "harness.discrepancy_search", "self_s"),
    ("harness.build_report_s", "s", "harness.build_report", "s"),
    ("harness.report_to_json_s", "s", "harness.report_to_json", "s"),
    ("harness.report_bytes", "bytes", "harness.report_to_json", "bytes"),
    ("harness.records", "count", "harness.build_report", "records"),
    ("exact.rat_str_calls", "count", "exact.rat_str", "calls"),
    ("cli.main_self_s", "s", "cli.main", "self_s"),
]


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class _Stat:
    __slots__ = ("calls", "s", "self_s", "active", "distinct", "keys", "yielded", "bytes", "records")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.distinct: set = set()
        self.keys: set = set()
        self.yielded = 0
        self.bytes = 0
        self.records = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, _Stat] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # open spans, innermost last
        self.origin = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _stat(self, name: str) -> tuple[int, _Stat]:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stat()
        return self._ids[name], self.stats[name]

    def _enter(self, nid: int, stat: _Stat, called: float) -> None:
        """Open a span; ``called`` is when the wrapper was entered."""
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        stat.active += 1
        start = time.perf_counter()
        self.span_start.append(start)
        # [span index, stat, start, time covered by children, tracer time
        # inside the span, tracer time spent opening it]
        self._stack.append([idx, stat, start, 0.0, 0.0, start - called])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, stat, start, child, over, opening = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        stat.calls += 1
        stat.self_s += dur - child
        stat.active -= 1
        if stat.active == 0:
            stat.s += dur - over
        if self._stack:
            # the parent's own time excludes this span and the tracer's
            # bookkeeping around it
            parent = self._stack[-1]
            bookkeeping = opening + time.perf_counter() - end
            parent[3] += dur + bookkeeping
            parent[4] += over + bookkeeping

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            _, stat = self._stat(name)

            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        sig = inspect.signature(fn)
        distinct = name in _DISTINCT
        arity = len(sig.parameters)

        def key(args, kwargs):
            if kwargs or len(args) != arity:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())
            return tuple(_freeze(v) for v in args)

        nid, stat = self._stat(name)
        degree_vector = sys.modules["kmatchlab.graph"].degree_vector
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            called = time.perf_counter()
            if distinct:
                # hashes, not the tuples, so the sets hold no graphs for the
                # garbage collector to walk
                k = key(args, kwargs)
                stat.distinct.add(hash(k))
                if name == "fastcount.fast_count":
                    stat.keys.add(hash((tuple(sorted(degree_vector(k[0]))),) + k[1:]))
            enter(nid, stat, called)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if name == "harness.report_to_json":
                stat.bytes += len(result)
            elif name == "harness.build_report":
                stat.records += len(result.records)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        nid, stat = self._stat(name)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    enter(nid, stat, time.perf_counter())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    stat.yielded += 1
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES but LEAVES wherever it is bound."""
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"kmatchlab.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in LEAVES):
                    wrapped[id(obj)] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "kmatchlab" and not modname.startswith("kmatchlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric, _unit, source, stat in PER_LAYER:
            s = self.stats.get(source)
            if s is None:
                out[metric] = 0
            elif stat in ("distinct", "keys"):
                out[metric] = len(getattr(s, stat))
            else:
                out[metric] = getattr(s, stat)
        return out

    def write(self, stem: str, extra: dict) -> None:
        """``stem.spans``: the name ids (int32), parent span indices (int32,
        -1 for a root), starts and ends (float64 seconds since the tracer
        was made), each array whole and in that order; ``stem.json``: the
        names, the layout and ``extra``."""
        with open(f"{stem}.spans", "wb") as fh:
            self.span_name.tofile(fh)
            self.span_parent.tofile(fh)
            array("d", (t - self.origin for t in self.span_start)).tofile(fh)
            array("d", (t - self.origin for t in self.span_end)).tofile(fh)
        meta = {
            "names": self.names,
            "span_count": len(self.span_start),
            "layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "byteorder": sys.byteorder,
            **extra,
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")

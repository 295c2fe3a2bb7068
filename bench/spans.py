"""Span tracing of bellbench from outside the package.

Tracer.install() wraps every public function and public method of the
package's modules, and rebinds each wrapper at every name a caller resolves at
call time: the defining module's globals and every `from .x import f` binding
in the other modules (cli binds mermin_expectation and XorShift64Star at
import; mermin resolves copies, mermin_operators and expectation through its
own globals). Methods are wrapped on their class. restore() puts every
original back; install() and restore() may alternate, so traced sessions can
be interleaved with untraced ones.

Spans are kept in memory as tuples and written out at the end. A layer is a
module; a span's self time is its duration minus the time of its child spans.
Execution is single-threaded with no queue, so no span ever waits on another.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "report", "states", "operators", "mermin", "zukowski", "lhv", "simplex", "rng")

# Helpers called once per element, per table entry or per recursion step
# rather than once per operation: a span on each call would cost more than
# the work it times. Their time counts in the caller's self time, so
# states.copies holds the Kronecker products that build the state and
# mermin.mermin_operators the compose recursion.
UNSPANNED = {
    "operators.as_square_matrix",
    "operators.dagger",
    "operators.projector",
    "operators.tensor",
    "operators.tensor_all",
    "states.phase_observable",
    "states.correlation",
    "mermin.local_f",
    "mermin.site_pair",
    "mermin.compose",
    "mermin.mermin_bound_check",
    "zukowski.bell_relation_scale",
    "zukowski.zukowski_from_mermin",
    "zukowski.zukowski_bound_check",
    "zukowski.modified_mermin_bound",
    "lhv.strategy_label",
    "report.format_float",
    "rng.XorShift64Star.next_uint64",
    "rng.XorShift64Star.uniform",
    "rng.XorShift64Star.uniforms",
    "rng.XorShift64Star.signs",  # only reached through sign_matrix
}


def _nbytes(*arrays) -> int:
    return sum(getattr(a, "nbytes", 0) for a in arrays)


# Counts recorded with a span, from its bound arguments (by parameter name)
# and its result. Bytes are computed from array sizes, not measured traffic.
COUNTERS = {
    "mermin.mermin_operators": lambda a, r: {"bytes_computed": _nbytes(r.b, r.b_prime)},
    "states.copies": lambda a, r: {"bytes_computed": _nbytes(r)},
    "operators.expectation": lambda a, r: {"bytes_computed": _nbytes(a["rho"], a["o"])},
    # Full-correlation strategies give 2^(n+1) distinct columns; the columns
    # built are read from the matrix returned.
    "lhv.strategy_matrix": lambda a, r: {"columns": r.shape[1], "distinct_columns": 2 ** (a["n"] + 1)},
    "simplex.phase1_feasibility": lambda a, r: {
        "tableau_cells": len(a["a"]) * (len(a["a"][0]) + len(a["a"]) + 1)},
    "rng.XorShift64Star.sign_matrix": lambda a, r: {"words": (a["rows"] * a["cols"] + 63) // 64},
    "report.render_json": lambda a, r: {"bytes_out": len(r.encode())},
}


class Tracer:
    def __init__(self, package: str = "bellbench"):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent, request, name index, start ns, end ns, raised, counts)
        self.request = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module dict or class, attr, original, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def span(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the slot so ids follow start order
            if stack:
                parent = stack[-1]
            else:  # a root span starts a new request
                parent = -1
                self.request = span_id
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.request, index, start, end, True, None)
                raise
            end = clock()
            stack.pop()
            counts = None
            if counter is not None:
                counts = counter(signature.bind(*args, **kwargs).arguments, result)
            spans[span_id] = (span_id, parent, self.request, index, start, end, False, counts)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def install(self) -> None:
        """Bind every wrapper; the wrappers are built on the first call only,
        so spans from repeated install/restore pairs share one name table."""
        if not self._bindings:
            self._bind()
        for owner, attr, _, wrapper in self._bindings:
            self._set(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            self._set(owner, attr, original)

    @staticmethod
    def _set(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _bind(self) -> None:
        modules = self._modules()
        wrapped = {}  # id(original) -> (original, wrapper)
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name not in UNSPANNED:
                        wrapped[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._bind_methods(layer, obj)
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._bindings.append((namespace, attr, obj, entry[1]))

    def _bind_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNSPANNED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                replacement = self._wrap(name, raw)
            else:
                continue
            self._bindings.append((cls, attr, raw, replacement))

    # --- analysis ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, dict[str, int]], dict[str, int]]:
        """Per span name: total self seconds, summed counts, and spans that raised."""
        child_ns = [0] * len(self.spans)
        for span_id, parent, _, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s = defaultdict(float)
        counts = defaultdict(lambda: defaultdict(int))
        raised = defaultdict(int)
        for span_id, _, _, index, start, end, did_raise, span_counts in self.spans:
            name = self.names[index]
            self_s[name] += (end - start - child_ns[span_id]) / 1e9
            raised[name] += did_raise
            for key, value in (span_counts or {}).items():
                counts[name][key] += value
        return dict(self_s), {k: dict(v) for k, v in counts.items()}, dict(raised)

    def write(self, path) -> None:
        """Spans as gzip JSON lines: id, parent, request, name, start/end ns, raised, counts."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, request, index, start, end, did_raise, counts in self.spans:
                fh.write(json.dumps([span_id, parent, request, self.names[index],
                                     start, end, did_raise, counts]) + "\n")


def layer_metrics(tracer: Tracer, traced_times: list[float],
                  untraced_times: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; times and counts are per session.

    traced_times[i] and untraced_times[i] are session i run with and
    without spans, one right after the other; the median of their paired
    differences is the tracing overhead.
    """
    self_s, counts, raised = tracer.self_times()
    per = 1.0 / len(traced_times)

    def secs(name):
        return self_s.get(name, 0.0) * per, "s"

    def count(name, key):
        return counts.get(name, {}).get(key, 0) * per

    # Which end-to-end metric each group should move, and where; elsewhere
    # the prediction is no change.
    groups = (
        # session_p50_s and peak_rss_mb on analyze-ladder
        ("mermin.mermin_operators", "mermin.mermin_expectation", "states.copies",
         "operators.expectation"),
        # session_p50_s on lhv-tables
        ("lhv.lhv_feasible", "lhv.strategy_matrix", "lhv.enumerate_strategies",
         "lhv.witness_reconstruction_error", "lhv.wwzb_sign_sum", "simplex.phase1_feasibility"),
        # the one verify-appendix of an analyze-ladder session: a few percent
        # of its session_p50_s (cmd_verify_appendix holds the inline
        # sign-matrix products)
        ("rng.XorShift64Star.sign_matrix", "cli.cmd_verify_appendix"),
        # the same request; below 1% of any session
        ("zukowski.zukowski_quadrature", "zukowski.closed_vs_quadrature_error",
         "zukowski.ghz_offdiagonal_max"),
        # per-call argparse, JSON, dispatch and I/O: session_p50_s on every
        # workload, most on lhv-tables (ten short requests a session); the
        # 6000-row CSV of cmd_sweep on analyze-ladder
        ("cli.main", "cli.build_parser", "cli.cmd_sweep", "report.render_json"),
    )
    metrics = {f"{name}.self_s": secs(name) for group in groups for name in group}
    for name in ("mermin.mermin_operators", "states.copies", "operators.expectation"):
        metrics[f"{name}.bytes_computed"] = count(name, "bytes_computed"), "bytes"
    columns = count("lhv.strategy_matrix", "columns")
    metrics["lhv.strategy_matrix.columns"] = columns, "count"
    # Useful columns over columns built: full-correlation strategies give only
    # 2^(n+1) distinct columns among the 4^n.
    metrics["lhv.strategy_matrix.distinct_column_ratio"] = (
        count("lhv.strategy_matrix", "distinct_columns") / columns if columns else 0.0, "ratio")
    metrics["simplex.phase1_feasibility.tableau_cells"] = (
        count("simplex.phase1_feasibility", "tableau_cells"), "count")
    metrics["simplex.phase1_feasibility.failed"] = (
        raised.get("simplex.phase1_feasibility", 0) * per, "count")
    words = count("rng.XorShift64Star.sign_matrix", "words")
    metrics["rng.words_drawn"] = words, "count"
    rng_self = sum(v for k, v in self_s.items() if k.startswith("rng.")) * per
    metrics["rng.ns_per_word"] = (rng_self * 1e9 / words if words else 0.0), "ns"
    metrics["report.render_json.bytes_out"] = count("report.render_json", "bytes_out"), "bytes"

    total = sum(self_s.values())
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.share"] = (layer_self / total if total else 0.0), "ratio"
    for layer in LAYERS:
        metrics[f"{layer}.exceptions"] = (
            sum(v for k, v in raised.items() if k.startswith(layer + ".")) * per, "count")

    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(untraced_times)
    metrics["trace.session_p50_s"] = traced_p50, "s"
    metrics["trace.untraced_session_p50_s"] = untraced_p50, "s"
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_times, untraced_times)), "s"
    return metrics

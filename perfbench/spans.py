"""Opt-in span and count recording around sscurv's public functions.

The tracer wraps functions from outside the program: it swaps each target
function for a recording wrapper in every sscurv module that holds a
reference to it, and puts the originals back on uninstall. Spans are kept
in memory as (name, start, end, parent index, op id) tuples until the run
ends. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) -> span name. Class methods are given as "Class.method".
TARGETS = (
    ("geometry", "validate", "geometry.validate"),
    ("geometry", "FrameAlgebra.jacobi_violations", "geometry.jacobi"),
    ("connection", "levi_civita", "connection.levi_civita"),
    ("connection", "ssnmc", "connection.ssnmc"),
    ("curvature", "curvature", "curvature.curvature"),
    ("curvature", "conformal", "curvature.conformal"),
    ("probes", "run_probe", "probes.run_probe"),
    ("solitons", "residual", "solitons.residual"),
    ("solitons", "hat_hessian", "solitons.hat_hessian"),
    ("solitons", "conclusion_check", "solitons.conclusion_check"),
    ("solitons", "proof_step_probes", "solitons.proof_step_probes"),
    ("report", "compute_tables", "report.compute_tables"),
    ("report", "build_report", "report.build_report"),
    ("geomio", "load_geometry", "geomio.load_geometry"),
    ("suite", "run_suite", "suite.run_suite"),
    ("suite", "fuzz", "suite.fuzz"),
)


class Tracer:
    """Spans and counts for one process; install() before, uninstall() after."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _exit(self, name, idx, parent, t0):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.op)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, idx, parent, t0)
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args) inside a span of the given name (the op roots)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------

    def install(self):
        from sscurv import probes as probes_mod
        from sscurv import report as report_mod
        from sscurv import suite as suite_mod
        from sscurv import tensor as tensor_mod

        swaps = {}
        for mod_name, attr, span in TARGETS:
            module = sys.modules[f"sscurv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(span, getattr(cls, meth)))
            else:
                original = getattr(module, attr)
                wrapped = self.wrap(span, original)
                if original is suite_mod.fuzz:
                    wrapped = self._count_fuzz(wrapped)
                swaps[original] = wrapped

        original_emit = report_mod.emit_report
        emit_json = self.wrap("report.emit_json", original_emit)
        emit_text = self.wrap("report.emit_text", original_emit)

        def emit_report(report, format="text", path=None):
            if format == "json":
                text = emit_json(report, format, path)
                self.counts["report.json_bytes"] += len(text.encode())
                return text
            return emit_text(report, format, path)

        swaps[original_emit] = emit_report

        # Every module that imported a target by name gets the wrapper too.
        modules = [m for name, m in sys.modules.items()
                   if name == "sscurv" or name.startswith("sscurv.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in swaps:
                    self._patch(module, attr, swaps[value])

        for pid, defn in list(probes_mod.REGISTRY.items()):
            traced = dataclasses.replace(defn, fn=self.wrap(f"probes.{pid}", defn.fn))
            self._restore.append((dict.__setitem__, probes_mod.REGISTRY, pid, defn))
            probes_mod.REGISTRY[pid] = traced

        getitem = tensor_mod.Tensor.__getitem__
        counts = self.counts

        def counted_getitem(tensor, idx):
            counts["tensor.getitem"] += 1
            return getitem(tensor, idx)

        self._patch(tensor_mod.Tensor, "__getitem__", counted_getitem)

    def _count_fuzz(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def fuzz(config):
            doc = fn(config)
            counts["suite.fuzz_candidates"] += doc["generated"]
            counts["suite.fuzz_accepted"] += doc["accepted"]
            return doc
        return fuzz

    def _patch(self, owner, attr, value):
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((setattr, owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            setter, owner, key, value = self._restore.pop()
            setter(owner, key, value)

    # -- export ----------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}

    def merge(self, dumped: dict, op: int):
        """Add a child process's spans, re-based, with every span under op."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in dumped["spans"]:
            self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1, op))
        self.counts.update(dumped["counts"])


def self_times(spans) -> dict[str, list[float]]:
    """Span name -> self times in seconds (duration minus covered children)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list[float]] = {}
    for (name, t0, t1, _, _), covered in zip(spans, child):
        out.setdefault(name, []).append(t1 - t0 - covered)
    return out


PROBE_IDS = ("A1", "B2", "B3", "B5", "B6", "B7", "B8", "B9", "B10", "B11", "B12", "B13",
             "B14", "B15", "B17", "B18", "B20", "B22", "B23", "BIANCHI", "CFLAT")
CLI_COMMANDS = ("validate", "compute", "probe", "soliton", "builtin")

# Per-layer metric -> (unit, kind, source). Kinds: "self" is the median self
# time of the named span; "per_op" is calls of the span per operation;
# "count_per_op" is a recorded count per operation; the rest are special.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "geometry.validate_ms": ("ms", "self", "geometry.validate"),
    "geometry.jacobi_ms": ("ms", "self", "geometry.jacobi"),
    "geometry.validate_calls_per_op": ("count", "per_op", "geometry.validate"),
    "connection.levi_civita_ms": ("ms", "self", "connection.levi_civita"),
    "connection.ssnmc_ms": ("ms", "self", "connection.ssnmc"),
    "connection.levi_civita_calls_per_op": ("count", "per_op", "connection.levi_civita"),
    "curvature.curvature_ms": ("ms", "self", "curvature.curvature"),
    "curvature.conformal_ms": ("ms", "self", "curvature.conformal"),
    "curvature.curvature_calls_per_op": ("count", "per_op", "curvature.curvature"),
    **{f"probes.{pid}_ms": ("ms", "self", f"probes.{pid}") for pid in PROBE_IDS},
    "probes.run_probe_calls": ("count", "per_op", "probes.run_probe"),
    "solitons.residual_ms": ("ms", "self", "solitons.residual"),
    "solitons.hat_hessian_ms": ("ms", "self", "solitons.hat_hessian"),
    "solitons.conclusion_check_ms": ("ms", "self", "solitons.conclusion_check"),
    "solitons.proof_step_probes_ms": ("ms", "self", "solitons.proof_step_probes"),
    "report.compute_tables_ms": ("ms", "self", "report.compute_tables"),
    "report.build_report_ms": ("ms", "self", "report.build_report"),
    "report.emit_json_ms": ("ms", "self", "report.emit_json"),
    "report.emit_text_ms": ("ms", "self", "report.emit_text"),
    "report.json_bytes": ("bytes", "bytes_per_call", "report.emit_json"),
    "geomio.load_geometry_ms": ("ms", "self", "geomio.load_geometry"),
    "suite.run_suite_ms": ("ms", "self", "suite.run_suite"),
    "suite.fuzz_candidates": ("count", "count_per_call", "suite.fuzz"),
    "suite.fuzz_accepted": ("count", "count_per_call", "suite.fuzz"),
    "suite.fuzz_accept_ratio": ("ratio", "accept_ratio", "suite.fuzz"),
    "cli.import_ms": ("ms", "cli_import", "cli"),
    **{f"cli.{cmd}_p50_ms": ("ms", "cli_latency", cmd) for cmd in CLI_COMMANDS},
    "tensor.getitem_calls_per_op": ("count", "count_per_op", "tensor.getitem"),
}


class Record:
    """What one traced run measured: spans, counts, ops and CLI timings."""

    def __init__(self):
        self.tracer = Tracer()
        self.ops = 0
        self.cli_import_ms: list[float] = []
        self.cli_latency_ms: dict[str, list[float]] = {}

    def values(self) -> dict[str, float]:
        """Every per-layer metric this record reached, by name."""
        spans = self.tracer.spans
        counts = self.tracer.counts
        selfs = self_times(spans)
        calls = Counter(s[0] for s in spans)
        out = {}
        for metric, (_, kind, source) in LAYER_METRICS.items():
            if kind == "self" and selfs.get(source):
                out[metric] = statistics.median(selfs[source]) * 1e3
            elif kind == "per_op" and calls[source] and self.ops:
                out[metric] = calls[source] / self.ops
            elif kind == "count_per_op" and self.ops:
                out[metric] = counts[source] / self.ops
            elif kind == "bytes_per_call" and calls[source]:
                out[metric] = counts["report.json_bytes"] / calls[source]
            elif kind == "count_per_call" and calls[source]:
                out[metric] = counts[metric] / calls[source]
            elif kind == "accept_ratio" and counts["suite.fuzz_candidates"]:
                out[metric] = counts["suite.fuzz_accepted"] / counts["suite.fuzz_candidates"]
            elif kind == "cli_import" and self.cli_import_ms:
                out[metric] = statistics.median(self.cli_import_ms)
            elif kind == "cli_latency" and self.cli_latency_ms.get(source):
                out[metric] = statistics.median(self.cli_latency_ms[source])
        return out

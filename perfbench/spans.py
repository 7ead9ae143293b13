"""Spans around tractor_forge's public functions, recorded from outside.

The library is not edited.  `Tracer.install` replaces each public function
and public method of the layer modules with a wrapper that records one
span (name, start, end, parent) per call.  Modules import each other's
names directly (``from .curvature import stack_at``), so a function is
replaced in every tractor_forge namespace that binds it, not only in the
module that defines it.  Methods are replaced on their class.

Spans are kept in memory; `summarize` folds them into per-name counts,
inclusive time and self time (duration minus the time covered by child
spans), and `layer_metrics` turns those into the benchmark's per-layer
figures.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("expr", "metric", "curvature", "tractor", "ambient", "transport",
          "holonomy", "report", "cli")

# expr's other public functions build or walk expression trees
# recursively; a span per node would cost more than the node.
_EXPR_ONLY = {"compile_exprs", "parse_expr"}
# Argument shuffles called inside every omega; a span would cost more
# than the call.
_SKIP = {"ambient.split_point", "ambient.ambient_point", "tractor.pack",
         "tractor.unpack"}


def _jet_name(args, kwargs):
    order = kwargs.get("order", args[2] if len(args) > 2 else 3)
    return f"metric.metric_jet[{order}]"


def _ambient_oracle_name(args, kwargs):
    point = args[1] if len(args) > 1 else kwargs["point"]
    side = "offslice" if point[0] != 0.0 else "slice"
    return f"transport.AmbientOracle.omega[{side}]"


def _holonomy_name(args, kwargs):
    oracle = args[0] if args else kwargs["oracle"]
    return f"holonomy.holonomy_algebra[{type(oracle).__name__}]"


# Spans whose name depends on the arguments.
_VARIANTS = {
    "metric.metric_jet": _jet_name,
    "transport.AmbientOracle.omega": _ambient_oracle_name,
    "holonomy.holonomy_algebra": _holonomy_name,
}


def _package_namespaces():
    return [mod for name, mod in list(sys.modules.items())
            if name == "tractor_forge" or name.startswith("tractor_forge.")]


def public_callables(layer: str):
    """(span name, owner, attribute) for each public function and method."""
    mod = importlib.import_module(f"tractor_forge.{layer}")
    out = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            if layer == "expr" and attr not in _EXPR_ONLY:
                continue
            if f"{layer}.{attr}" not in _SKIP:
                out.append((f"{layer}.{attr}", None, attr))
        elif (inspect.isclass(obj) and layer != "expr"
              and not issubclass(obj, BaseException)):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((f"{layer}.{attr}.{meth}", obj, meth))
    return out


def rebind(original, replacement) -> list:
    """Point every tractor_forge binding of `original` at `replacement`.

    Returns (namespace, attribute, original) triples for `restore`.
    """
    undo = []
    for mod in _package_namespaces():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.raised: list[bool] = []
        self._open = [-1]
        self._undo: list = []

    def reset(self) -> None:
        """Drop recorded spans; the wrappers keep appending to the same lists."""
        for spans in (self.name, self.parent, self.start, self.end, self.raised):
            spans.clear()
        del self._open[1:]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span_name):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        raised, open_, clock = self.raised, self._open, time.perf_counter_ns
        fixed = self.name_id(span_name)
        variant = _VARIANTS.get(span_name)
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if variant is None else name_id(variant(args, kwargs)))
            parents.append(open_[-1])
            ends.append(0)
            raised.append(False)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                ends[idx] = clock()
                open_.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            for span_name, owner, attr in public_callables(layer):
                if owner is None:
                    fn = getattr(sys.modules[f"tractor_forge.{layer}"], attr)
                    self._undo += rebind(fn, self._wrap(fn, span_name))
                else:
                    fn = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(fn, span_name))
                    self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, self.name_id(name))

    def spans(self) -> dict:
        """Compact copy of the recorded spans, for writing out."""
        return {"names": list(self.names),
                "fields": ["name", "parent", "start_ns", "end_ns", "raised"],
                "spans": [list(row) for row in zip(self.name, self.parent, self.start,
                                                   self.end, map(int, self.raised))]}

    def summarize(self) -> dict:
        """name -> {"calls", "raised", "incl_ns", "self_ns"} over all spans."""
        child = [0] * len(self.start)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        out: dict[str, dict] = {}
        for idx, nid in enumerate(self.name):
            rec = out.setdefault(self.names[nid], {"calls": 0, "raised": 0,
                                                   "incl_ns": 0, "self_ns": 0})
            dur = self.end[idx] - self.start[idx]
            rec["calls"] += 1
            rec["raised"] += int(self.raised[idx])
            rec["incl_ns"] += dur
            rec["self_ns"] += dur - child[idx]
        return out


class _BenchSpan:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.start)
        t.name.append(self.nid)
        t.parent.append(t._open[-1])
        t.end.append(0)
        t.raised.append(False)
        t._open.append(self.idx)
        t.start.append(time.perf_counter_ns())
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        t.end[self.idx] = time.perf_counter_ns()
        t.raised[self.idx] = exc_type is not None
        t._open.pop()
        return False


# -- per-layer figures -----------------------------------------------------------

# (metric name, unit); every figure is per benchmark op unless the unit
# says per call.  The end-to-end metric each one should move is listed in
# perfbench/README.md.
LAYER_METRICS = (
    ("expr.compile_s", "s"),
    ("expr.self_s", "s/op"),
    ("metric.jet3_calls", "count/op"),
    ("metric.jet3_us", "us/call"),
    ("metric.jet2_calls", "count/op"),
    ("metric.jet2_us", "us/call"),
    ("metric.self_s", "s/op"),
    ("curvature.stack_calls", "count/op"),
    ("curvature.stack_us", "us/call"),
    ("curvature.connection_calls", "count/op"),
    ("curvature.connection_us", "us/call"),
    ("curvature.self_s", "s/op"),
    ("transport.path_evals", "count/op"),
    ("transport.path_eval_s", "s/op"),
    ("transport.rhs_evals", "count/op"),
    ("transport.transports", "count/op"),
    ("transport.transport_ms", "ms/call"),
    ("transport.self_s", "s/op"),
    ("tractor.omega_calls", "count/op"),
    ("tractor.self_s", "s/op"),
    ("ambient.omega_calls", "count/op"),
    ("ambient.omega_offslice_calls", "count/op"),
    ("ambient.fd_curvature_calls", "count/op"),
    ("ambient.self_s", "s/op"),
    ("holonomy.log_attempts", "count/op"),
    ("holonomy.log_accept_ratio", "ratio"),
    ("holonomy.halvings", "count/op"),
    ("holonomy.tractor_s", "s/op"),
    ("holonomy.ambient_s", "s/op"),
    ("holonomy.self_s", "s/op"),
    ("report.self_s", "s/op"),
    ("report.emit_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("trace.spans", "count/op"),
    ("trace.overhead_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(ops: dict, setup: dict, n_ops: int, overhead_s: float,
                  untraced_s: float) -> dict:
    """Per-layer figures from `summarize` output of the ops and of set-up."""

    def rec(name):
        return ops.get(name, {"calls": 0, "raised": 0, "incl_ns": 0, "self_ns": 0})

    def calls(*names):
        return sum(rec(n)["calls"] for n in names) / n_ops

    def incl_s(*names):
        return sum(rec(n)["incl_ns"] for n in names) / 1e9 / n_ops

    def per_call(name, scale):
        r = rec(name)
        return r["incl_ns"] / r["calls"] / scale if r["calls"] else 0.0

    def self_s(layer):
        return sum(r["self_ns"] for name, r in ops.items()
                   if name.startswith(layer + ".")) / 1e9 / n_ops

    jet3, jet2 = "metric.metric_jet[3]", "metric.metric_jet[2]"
    oracles = [name for name in ops
               if name.startswith("transport.") and ".omega" in name
               and "Oracle" in name]
    log = rec("holonomy.matrix_log")
    values = {
        "expr.compile_s": setup.get("expr.compile_exprs", {}).get("incl_ns", 0) / 1e9,
        "expr.self_s": self_s("expr"),
        "metric.jet3_calls": calls(jet3),
        "metric.jet3_us": per_call(jet3, 1e3),
        "metric.jet2_calls": calls(jet2),
        "metric.jet2_us": per_call(jet2, 1e3),
        "metric.self_s": self_s("metric"),
        "curvature.stack_calls": calls("curvature.stack_at"),
        "curvature.stack_us": per_call("curvature.stack_at", 1e3),
        "curvature.connection_calls": calls("curvature.connection_at"),
        "curvature.connection_us": per_call("curvature.connection_at", 1e3),
        "curvature.self_s": self_s("curvature"),
        "transport.path_evals": calls("transport.Segment.point", "transport.Segment.tangent"),
        "transport.path_eval_s": incl_s("transport.Segment.point", "transport.Segment.tangent"),
        "transport.rhs_evals": calls(*oracles),
        "transport.transports": calls("transport.parallel_transport"),
        "transport.transport_ms": per_call("transport.parallel_transport", 1e6),
        "transport.self_s": self_s("transport"),
        "tractor.omega_calls": calls("transport.TractorOracle.omega"),
        "tractor.self_s": self_s("tractor"),
        "ambient.omega_calls": calls("ambient.AmbientGeometry.omega"),
        "ambient.omega_offslice_calls": calls("transport.AmbientOracle.omega[offslice]"),
        "ambient.fd_curvature_calls": calls("ambient.curvature_from_omega"),
        "ambient.self_s": self_s("ambient"),
        "holonomy.log_attempts": log["calls"] / n_ops,
        "holonomy.log_accept_ratio": ((log["calls"] - log["raised"]) / log["calls"]
                                      if log["calls"] else 0.0),
        "holonomy.halvings": log["raised"] / n_ops,
        "holonomy.tractor_s": incl_s("holonomy.holonomy_algebra[TractorOracle]"),
        "holonomy.ambient_s": incl_s("holonomy.holonomy_algebra[AmbientOracle]"),
        "holonomy.self_s": self_s("holonomy"),
        "report.self_s": self_s("report"),
        "report.emit_s": incl_s("report.report_emit"),
        "cli.self_s": self_s("cli"),
        "trace.spans": sum(r["calls"] for r in ops.values()) / n_ops,
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": overhead_s / untraced_s if untraced_s > 0 else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

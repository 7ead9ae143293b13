"""The package namespace: lazy exports (PEP 562), and the public defaults."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import tractor_forge
from tractor_forge import curvature

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(tractor_forge.__file__)))


def _fresh(code: str) -> str:
    """Standard output of `code` run by a fresh interpreter on this copy of
    the package."""
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, check=True).stdout


def test_importing_one_layer_loads_only_what_it_uses():
    out = _fresh("import sys, tractor_forge.curvature\n"
                 "print(' '.join(m for m in sys.modules if m.startswith('tractor_forge')))")
    loaded = set(out.split())
    assert {"tractor_forge", "tractor_forge.curvature", "tractor_forge.metric"} <= loaded
    for layer in ("transport", "report", "holonomy", "ambient", "cli"):
        assert f"tractor_forge.{layer}" not in loaded


def test_a_layer_loads_on_first_access_as_an_attribute():
    out = _fresh("import sys, tractor_forge\n"
                 "print('tractor_forge.transport' in sys.modules)\n"
                 "print(tractor_forge.transport.loop_family.__module__)\n"
                 "from tractor_forge import *\n"
                 "print(all(name in globals() for name in tractor_forge.__all__))")
    assert out.split() == ["False", "tractor_forge.transport", "True"]


def test_every_export_resolves_from_its_module_at_access_time(monkeypatch):
    namespace = {}
    exec("from tractor_forge import *", namespace)
    for name in tractor_forge.__all__:
        assert getattr(tractor_forge, name) is namespace[name]
        if name != "__version__":
            assert name not in vars(tractor_forge)  # never copied into the package
            module = sys.modules[getattr(tractor_forge, name).__module__]
            assert getattr(tractor_forge, name) is getattr(module, name)
    # a rebinding in the module shows through the package
    monkeypatch.setattr(curvature, "stack_at", len)
    assert tractor_forge.stack_at is len
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        tractor_forge.nonexistent  # noqa: B018


_LAYERS = ("expr", "metric", "curvature", "tractor", "ambient", "transport", "holonomy",
           "report", "cli")

# Every public parameter and dataclass field with a default.  Each one is
# set differently by two callers, is a reference for tests, or waits on a
# benchmark change; a value every caller passes is a required argument.
_KEPT_DEFAULTS = {
    "expr.derivative(memo)", "expr.compile_exprs(bound)",
    "metric.MetricSpec.chart_domain", "metric.MetricSpec.name", "metric.metric_jet(order)",
    "curvature.connection_at(order)",
    "ambient.curvature_from_omega(h)", "ambient.AmbientGeometry.metric(stack)",
    "ambient.AmbientGeometry.omega(stack)", "ambient.AmbientGeometry.default_s_bound(q)",
    "transport.Segment.tangents", "transport.Segment.span", "transport.Segment.params",
    "transport.lift_loop(s_expr)", "transport.lift_loop(q_expr)",
    "transport.TractorOracle.__init__(variant)",
    *(f"report.RunConfig.{name}" for name in (
        "preset", "params", "config_path", "point", "tol_tensor", "tol_transport", "tol_rank",
        "samples", "loops", "radius", "seed", "out", "format")),
    "report.RunConfig.base_point(rng)",
    "cli.main(argv)",
}


def _defaulted(owner: str, fn) -> list:
    return [f"{owner}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def _public_defaults() -> set:
    """Defaulted parameters of the layer modules' public functions, methods
    and constructors, and defaulted public dataclass fields."""
    found = []
    for layer in _LAYERS:
        mod = importlib.import_module(f"tractor_forge.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found += _defaulted(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [f"{layer}.{name}.{f.name}" for f in dataclasses.fields(obj)
                              if not f.name.startswith("_")
                              and (f.default is not dataclasses.MISSING
                                   or f.default_factory is not dataclasses.MISSING)]
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)  # static and class methods
                    generated = dataclasses.is_dataclass(obj) and meth == "__init__"
                    if (inspect.isfunction(fn) and not generated
                            and (not meth.startswith("_") or meth == "__init__")):
                        found += _defaulted(f"{layer}.{name}.{meth}", fn)
    assert len(found) == len(set(found))
    return set(found)


def test_public_defaults_are_the_kept_ones():
    """A new default, or a kept one made required, is a change to this list."""
    assert _public_defaults() == _KEPT_DEFAULTS
    assert len(_KEPT_DEFAULTS) == 31

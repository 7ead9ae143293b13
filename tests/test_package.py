"""The package namespace: lazy exports (PEP 562)."""

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

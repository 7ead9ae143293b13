"""Report serialization, config round-trips, and emit formats."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from tractor_forge import ambient, report
from tractor_forge.ambient import AmbientGeometry
from tractor_forge.metric import MetricError, preset
from tractor_forge.report import (SCHEMA_VERSION, RunConfig, VerifyReport,
                                  report_emit, run_verify)


def _sample_report():
    cfg = RunConfig(preset="flat")
    checks = [
        {"name": "b-check", "anchor": "second", "residual": 1e-12,
         "tol": 1e-9, "pass": True, "seconds": 0.01},
        {"name": "a-check", "anchor": "first", "residual": 2.0,
         "tol": 1e-9, "pass": False, "seconds": 0.02},
    ]
    return VerifyReport(config=cfg.to_dict(), checks=checks)


def test_empty_report_valid_json():
    rep = VerifyReport(config=RunConfig(preset="flat").to_dict(), checks=[])
    data = json.loads(report_emit(rep, "json", None))
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["checks"] == []
    assert data["summary"]["pass"] is True
    assert data["summary"]["total"] == 0


def test_failing_check_fails_summary_and_sorting():
    rep = _sample_report()
    data = json.loads(report_emit(rep, "json", None))
    assert data["summary"]["pass"] is False
    assert data["summary"]["failed"] == ["a-check"]
    assert [c["name"] for c in data["checks"]] == ["a-check", "b-check"]


def test_json_roundtrip_identity():
    rep = _sample_report()
    text = report_emit(rep, "json", None)
    assert json.loads(text) == rep.to_dict()


def test_csv_and_text_formats():
    rep = _sample_report()
    csv_text = report_emit(rep, "csv", None)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,anchor,residual,tol,pass,seconds"
    assert len(lines) == 3
    txt = report_emit(rep, "text", None)
    assert "FAIL" in txt and "pass" in txt
    with pytest.raises(MetricError):
        report_emit(rep, "yaml", None)


def test_json_writes_non_finite_floats_as_strings():
    payload = {"rows": [{"r": float("inf")}, {"r": -float("inf")}, {"r": float("nan")}],
               "finite": 1.5}
    data = json.loads(report_emit(payload, "json", None))
    assert data == {"rows": [{"r": "inf"}, {"r": "-inf"}, {"r": "nan"}], "finite": 1.5}
    assert payload["rows"][0]["r"] == float("inf")  # the caller's data is untouched
    assert "residual: inf" in report_emit(payload | {"residual": float("inf")}, "text", None)


def test_report_emit_writes_file(tmp_path):
    out = tmp_path / "report.json"
    report_emit(_sample_report(), "json", str(out))
    assert json.loads(out.read_text())["summary"]["pass"] is False


def test_runconfig_requires_metric_source():
    with pytest.raises(MetricError):
        RunConfig().metric_spec()
    assert RunConfig(preset="sphere").metric_spec().n == 3


def test_default_loop_count_covers_the_coordinate_rectangles():
    """max(12, n(n-1)/2) loops by default, so 12 up to n = 5 and the
    rectangles alone from n = 6; an explicit count is kept as given."""
    assert [RunConfig().loop_count(n) for n in range(3, 9)] == [12, 12, 12, 15, 21, 28]
    assert RunConfig(loops=2).loop_count(6) == 2
    for n, loops in ((5, 12), (6, 15)):
        suite = report._Suite(RunConfig(preset="bumpy", params={"n": n}, samples=1))
        assert suite.cfg.loops == len(suite.loops) == loops
        assert suite.cfg.to_dict()["loops"] == loops
    with pytest.raises(MetricError, match="loops must be >= 15"):
        RunConfig(preset="bumpy", params={"n": 6}, loops=12).loop_family(
            preset("bumpy", n=6), np.zeros(6))


def _scaled_off_slice(omega, rows, cols):
    """`omega` with its [rows, cols] block times 1.5 at points with s != 0.

    A batch with points on and off the slice calls `omega` again on each
    part; only the outermost call scales.
    """
    depth = [0]

    def mutated(self, p, u, *args, **kwargs):
        depth[0] += 1
        try:
            out = omega(self, p, u, *args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0]:
            return out
        factor = np.ones(out.shape[-2:])
        factor[rows, cols] = 1.5
        off = np.asarray(p, dtype=float)[..., 0] != 0.0
        off = off.reshape(off.shape + (1,) * (out.ndim - off.ndim))
        return np.where(off, out * factor, out)
    return mutated


@pytest.mark.parametrize("rows, cols", [(slice(None), 0), (-1, slice(None))],
                         ids=["S-column", "Q-row"])
def test_verify_catches_an_off_slice_connection_error(monkeypatch, rows, cols):
    monkeypatch.setattr(AmbientGeometry, "omega",
                        _scaled_off_slice(AmbientGeometry.omega, rows, cols))
    passed = {c["name"]: c["pass"] for c in run_verify(RunConfig(preset="bumpy")).checks}
    assert not any(passed[name] for name in ("transport-scale-lift",
                                             "ambient-metric-compatibility",
                                             "holonomy-tractor-vs-ambient"))


def _scaled_node_dpsharp(connection_at, factor):
    """`connection_at` with dPsharp times `factor` when it is taken along
    given directions: the data `omega` builds for its own off-slice nodes."""
    def mutated(spec, x, order=2, directions=None):
        out = connection_at(spec, x, order=order, directions=directions)
        return out if directions is None else dataclasses.replace(
            out, dPsharp=factor * out.dPsharp)
    return mutated


def _scaled_stack_dpsharp(omega, factor):
    """`omega` with the full dPsharp of a caller's `stack` times `factor`:
    the data of the torsion, homogeneity and nabla F checks and of the FD
    stencil."""
    def mutated(self, p, u, stack=None):
        if stack is not None:
            stack = copy.copy(stack)
            stack.dPsharp = factor * np.asarray(stack.dPsharp)
        return omega(self, p, u, stack)
    return mutated


# the checks that catch a dropped or doubled s*dPsharp(U) term on each data
# path of the off-slice connection: transport reads the nodes' own data, the
# torsion check and the FD curvature a caller's full dPsharp
_NODE_CATCHERS = {"transport-scale-lift", "ambient-metric-compatibility", "holonomy-loop-logs",
                  "holonomy-orthogonal-algebra", "holonomy-tractor-vs-ambient"}
_STACK_CATCHERS = {"ambient-torsion-cotton", "ambient-ricci-on-slice",
                   "holonomy-orthogonal-algebra", "holonomy-tractor-vs-ambient"}


@pytest.mark.parametrize("factor", [0.0, 2.0], ids=["dropped", "doubled"])
@pytest.mark.parametrize("path", ["node", "stack"])
def test_verify_catches_an_off_slice_dpsharp_error_on_each_data_path(monkeypatch, path, factor):
    if path == "node":
        monkeypatch.setattr(ambient, "connection_at",
                            _scaled_node_dpsharp(ambient.connection_at, factor))
    else:
        monkeypatch.setattr(AmbientGeometry, "omega",
                            _scaled_stack_dpsharp(AmbientGeometry.omega, factor))
    failed = {c["name"] for c in run_verify(RunConfig(preset="bumpy")).checks if not c["pass"]}
    assert failed == (_NODE_CATCHERS if path == "node" else _STACK_CATCHERS)


# the checks that catch a dropped a*Psharp or b*Id term of the gauge shift
# f dm(u), dm(u) = a Psharp + b Id + s dPsharp(U), in every matrix
_GAUGE_SHIFT_CATCHERS = {"ambient-curvature-F-pairing", "ambient-metric-compatibility",
                         "ambient-ricci-on-slice", "ambient-torsion-F-contraction",
                         "holonomy-orthogonal-algebra", "holonomy-tractor-vs-ambient",
                         "transport-scale-lift"}


@pytest.mark.parametrize("slot", [0, -1], ids=["a-Psharp", "b-Id"])
@pytest.mark.parametrize("name", ["bumpy", "sphere"])
def test_verify_catches_a_dropped_gauge_shift_term(monkeypatch, name, slot):
    # u = (a, U, b) enters Omega(u) only through its chart part U and through
    # dm(u), so zeroing a (or b) in every direction drops the a*Psharp (or
    # b*Id) term and nothing else
    omega = AmbientGeometry.omega

    def mutated(self, p, u, stack=None):
        u = np.array(u, dtype=float)
        u[..., slot] = 0.0
        return omega(self, p, u, stack)

    monkeypatch.setattr(AmbientGeometry, "omega", mutated)
    failed = {c["name"] for c in run_verify(RunConfig(preset=name)).checks if not c["pass"]}
    assert failed == _GAUGE_SHIFT_CATCHERS


def _lift_through_m(self, p, X, stack):
    """`AmbientGeometry.lift` built from m where f = m^-1 belongs: (0, m(X), 0)."""
    p, X = np.asarray(p, dtype=float), np.asarray(X, dtype=float)
    v = np.zeros(X.shape[:-1] + (self.dim,))
    v[..., 1:-1] = (ambient._per_point(self.f_map(p, stack)[1], p, X) @ X[..., None])[..., 0]
    return v


def _negated_torsion_closed_form(closed_form):
    """`torsion_closed_form` with its sign flipped."""
    def mutated(self, p, X, Y, stack):
        return -closed_form(self, p, X, Y, stack)
    return mutated


# the checks that catch each mutation, by preset.  The sphere has CY = 0, so
# its torsion closed form s (CYsharp(X, Y))~ is 0 through either lift and of
# either sign: no check can see the sign there, and none fails
_LIFT_AND_TORSION_CATCHERS = {
    ("lift-through-m", "bumpy"): {"ambient-homogeneity", "ambient-lift-pairing",
                                  "ambient-torsion-cotton"},
    ("lift-through-m", "sphere"): {"ambient-homogeneity", "ambient-lift-pairing"},
    ("negated-torsion", "bumpy"): {"ambient-torsion-cotton"},
    ("negated-torsion", "sphere"): set(),
}


@pytest.mark.parametrize("mutation, name", list(_LIFT_AND_TORSION_CATCHERS))
def test_verify_catches_a_wrong_lift_and_a_wrong_torsion_sign(monkeypatch, mutation, name):
    if mutation == "lift-through-m":
        monkeypatch.setattr(AmbientGeometry, "lift", _lift_through_m)
    else:
        monkeypatch.setattr(AmbientGeometry, "torsion_closed_form",
                            _negated_torsion_closed_form(AmbientGeometry.torsion_closed_form))
    failed = {c["name"] for c in run_verify(RunConfig(preset=name)).checks if not c["pass"]}
    assert failed == _LIFT_AND_TORSION_CATCHERS[mutation, name]


def test_each_check_is_timed_from_the_previous_one(monkeypatch):
    """A check's seconds run from the previous check of its group (the
    first from the group's start), the last check also takes the time
    after it, and a group's seconds sum to the group's time."""
    clock = iter([10.0, 10.5, 12.0, 12.25, 13.0,   # group 1: start, 3 checks, end
                  20.0])                           # group 2: start, and no check
    monkeypatch.setattr(report.time, "perf_counter", lambda: next(clock))
    suite = object.__new__(report._Suite)
    suite.checks = []

    def group():
        for name in ("a", "b", "c"):
            suite.add(name, "", 0.0, 1.0)

    suite.timed(group)
    suite.timed(lambda: None)
    assert [c["seconds"] for c in suite.checks] == [0.5, 1.5, 1.0]
    assert sum(c["seconds"] for c in suite.checks) == 13.0 - 10.0


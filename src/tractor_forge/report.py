"""Structured verification runs and report serialization.

A RunConfig pins everything a run depends on (metric source, base point,
tolerances, loop parameters, seed), so identical configs reproduce
byte-identical JSON reports apart from the timing fields.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import holonomy as hol
from . import transport as tp
from .ambient import ambient_point
from .curvature import compute_stack, stack_at, weyl_endomorphism
from .metric import MetricError, MetricSpec, load_config, metric_jet, preset, signature_of
from .tractor import connection_matrix, normality_check, tractor_metric
from . import expr as ex

__all__ = ["RunConfig", "VerifyReport", "run_verify", "report_emit", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Everything needed to reproduce a run."""

    preset: str | None = None
    params: dict = field(default_factory=dict)
    config_path: str | None = None
    point: list | None = None
    tol_tensor: float = 1e-9
    tol_transport: float = 1e-7
    tol_rank: float = 1e-6
    samples: int = 10
    loops: int = 12
    radius: float = 0.25
    seed: int = 42
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        """Reject a tolerance or radius that is not finite and positive, and
        a negative count or seed, before any work."""
        for name in ("tol_tensor", "tol_transport", "tol_rank", "radius"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # NaN fails too
                raise MetricError(f"{name} must be finite and > 0, not {value}")
        for name in ("samples", "loops", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise MetricError(f"{name} must be >= 0, not {value}")

    def metric_spec(self) -> MetricSpec:
        if self.config_path:
            return load_config(self.config_path)
        if self.preset:
            return preset(self.preset, **self.params)
        raise MetricError("config must name a preset or a config file")

    def base_point(self, spec: MetricSpec, rng: np.random.Generator | None = None) -> np.ndarray:
        """`point`, checked against the dimension, or else half of one
        sample drawn from `rng` (default: a fresh generator seeded with `seed`)."""
        if self.point is None:
            if rng is None:
                rng = np.random.default_rng(self.seed)
            return spec.sample_points(rng, 1)[0] * 0.5
        pt = np.asarray(self.point, dtype=float)
        if len(pt) != spec.n:
            raise MetricError(f"point has {len(pt)} coordinates, metric needs {spec.n}")
        return pt

    def loop_family(self, spec: MetricSpec, base) -> list:
        """The n(n-1)/2 coordinate rectangles at `base` plus trig loops up
        to `loops`, drawn from seed + 1; fewer than n(n-1)/2 loops raise
        MetricError.  The radius is capped at 0.9 times the distance from
        `base` to the edge of the chart box."""
        n = spec.n
        rectangles = n * (n - 1) // 2
        if self.loops < rectangles:
            raise MetricError(f"loops must be >= {rectangles}, the number of coordinate "
                              f"rectangles at n = {n}, not {self.loops}")
        radius = self.radius
        if spec.chart_domain is not None:
            margin = min(min(b - lo, hi - b) for b, (lo, hi) in zip(base, spec.chart_domain))
            radius = min(radius, 0.9 * margin)
        return tp.loop_family(base, self.loops - rectangles, radius,
                              np.random.default_rng(self.seed + 1))

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "params": dict(sorted(self.params.items())),
            "config_path": self.config_path,
            "point": list(self.point) if self.point is not None else None,
            "tol_tensor": self.tol_tensor,
            "tol_transport": self.tol_transport,
            "tol_rank": self.tol_rank,
            "samples": self.samples,
            "loops": self.loops,
            "radius": self.radius,
            "seed": self.seed,
        }


@dataclass
class VerifyReport:
    config: dict
    checks: list  # dicts: name, anchor, residual, tol, pass, seconds
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        checks = sorted(self.checks, key=lambda c: c["name"])
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "checks": checks,
            "summary": {
                "pass": self.passed,
                "total": len(checks),
                "failed": [c["name"] for c in checks if not c["pass"]],
            },
        }


def _round(x: float) -> float:
    """Stabilize residuals for byte-identical serialization."""
    if x == 0.0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.6e}")


class _Suite:
    """Collects timed checks against one metric."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.spec = cfg.metric_spec()
        self.rng = np.random.default_rng(cfg.seed)
        self.checks = []
        self.base = cfg.base_point(self.spec, self.rng)
        self.points = self.spec.sample_points(self.rng, cfg.samples)
        # stack_at's two steps, spelled out: the spec's first order-3 jet
        # builds its compiled table (a few ms) here rather than inside a
        # stack_at call, whose per-call latency perfbench samples
        self.stacks = [compute_stack(metric_jet(self.spec, x)) for x in self.points]
        self.base_stack = stack_at(self.spec, self.base)
        self.loops = cfg.loop_family(self.spec, self.base)
        self.tractor = tp.TractorOracle(self.spec)
        self.ambient = tp.AmbientOracle(self.spec)
        self.geom = self.ambient.geom
        self.abase = ambient_point(0.0, self.base, 1.0)
        s_cap = self.geom.default_s_bound(self.base)
        self.s_test = min(0.3, 0.6 * s_cap) if np.isfinite(s_cap) else 0.3

    def add(self, name: str, anchor: str, residual: float, tol: float):
        """Record a check, timed from the previous check of its group (or
        the group's start)."""
        now = time.perf_counter()
        self.checks.append({
            "name": name,
            "anchor": anchor,
            "residual": _round(float(residual)),
            "tol": tol,
            "pass": bool(residual <= tol),
            "seconds": now - self._stamp,
        })
        self._stamp = now

    def timed(self, fn):
        """Run a group of checks: each check's `seconds` is the time since
        the previous one, and the last check also takes the time after it,
        so the group's seconds sum to its time."""
        self._stamp = time.perf_counter()
        before = len(self.checks)
        fn()
        group = self.checks[before:]
        if group:
            group[-1]["seconds"] += time.perf_counter() - self._stamp
        for c in group:
            c["seconds"] = round(c["seconds"], 6)

    # -- tensor-level checks ---------------------------------------------------

    def tensor_checks(self):
        tol = self.cfg.tol_tensor
        sig_bad = 0
        res_sym = res_bianchi = res_wtrace = res_cy = 0.0
        for st in self.stacks:
            if signature_of(st.jet.g) != tuple(self.spec.signature):
                sig_bad += 1
            scale = max(1.0, float(np.max(np.abs(st.riem_low))))
            rl = st.riem_low
            res_sym = max(res_sym,
                          float(np.max(np.abs(rl + rl.transpose(1, 0, 2, 3)))) / scale,
                          float(np.max(np.abs(rl + rl.transpose(0, 1, 3, 2)))) / scale,
                          float(np.max(np.abs(rl - rl.transpose(2, 3, 0, 1)))) / scale,
                          float(np.max(np.abs(st.Ric - st.Ric.T))) / scale)
            bianchi = rl + np.einsum("jkil->ijkl", rl) + np.einsum("kijl->ijkl", rl)
            res_bianchi = max(res_bianchi, float(np.max(np.abs(bianchi))) / scale)
            wtr = np.einsum("ik,ijkl->jl", st.ginv, st.W)
            res_wtrace = max(res_wtrace, float(np.max(np.abs(wtr))) / scale)
            res_cy = max(res_cy, float(np.max(np.abs(st.CY + st.CY.transpose(1, 0, 2)))))
        self.add("tensor-signature", "declared signature matches eigenvalue counts",
                 float(sig_bad), 0.0)
        self.add("tensor-curvature-symmetries",
                 "Riemann pair symmetries and Ricci symmetry", res_sym, tol)
        self.add("tensor-first-bianchi", "cyclic identity of the lowered Riemann",
                 res_bianchi, tol)
        self.add("tensor-weyl-tracefree", "Weyl tensor is totally trace-free",
                 res_wtrace, tol)
        self.add("tensor-cotton-antisymmetry",
                 "Cotton-York antisymmetric in its first slots", res_cy, tol)

    # -- tractor checks -----------------------------------------------------------

    def tractor_checks(self):
        tol = self.cfg.tol_tensor * 10
        n = self.spec.n
        res_metric = 0.0
        res_norm = 0.0
        for st in self.stacks:
            H = tractor_metric(st.g)
            for _ in range(2):
                X = self.rng.standard_normal(n)
                Om = connection_matrix(st, X)
                XH = np.zeros((n + 2, n + 2))  # X(H): only the g block varies
                XH[1:n + 1, 1:n + 1] = np.einsum("k,kij->ij", X, st.jet.dg)
                scale = max(1.0, float(np.max(np.abs(Om))))
                res_metric = max(res_metric, float(
                    np.max(np.abs(Om.T @ H + H @ Om - XH))) / scale)
            rep = normality_check(st)
            res_norm = max(res_norm,
                           rep["preserves_null_direction"]["residual"],
                           rep["ricci_contraction_vanishes"]["residual"])
        self.add("tractor-metricity",
                 "connection matrices are anti-self-adjoint for the fiber metric",
                 res_metric, tol)
        self.add("tractor-normality",
                 "curvature preserves the null direction with trace-free tangent block",
                 res_norm, 1e-8)

    # -- ambient checks ---------------------------------------------------------------

    def ambient_checks(self):
        geom = self.geom
        n = self.spec.n
        tol_t = self.cfg.tol_transport

        res_pair = res_comm = 0.0
        for x, st in zip(self.points[:5], self.stacks):
            q = float(self.rng.uniform(0.6, 1.6))
            cap = geom.default_s_bound(x, q)
            s = float(self.rng.uniform(-1.0, 1.0)) * (min(0.4, 0.8 * cap) if np.isfinite(cap) else 0.4)
            p = ambient_point(s, x, q)
            f, m = geom.f_map(p, st)
            res_comm = max(res_comm, float(np.max(np.abs(f @ st.Psharp - st.Psharp @ f))))
            h = geom.metric(p, st)
            for _ in range(2):
                X = self.rng.standard_normal(n)
                Y = self.rng.standard_normal(n)
                lhs = float(geom.lift(p, X, st) @ h @ geom.lift(p, Y, st))
                rhs = float(X @ st.g @ Y)
                res_pair = max(res_pair, abs(lhs - rhs) / max(1.0, abs(rhs)))
        self.add("ambient-lift-pairing", "lifted vectors pair to the base metric",
                 res_pair, 1e-9)
        self.add("ambient-f-commutes", "bundle map commutes with the Schouten endomorphism",
                 res_comm, 1e-10)

        # torsion
        st = self.base_stack
        p_off = ambient_point(self.s_test, self.base, 1.0)
        res_tor = res_tor0 = res_torf = 0.0
        F = geom.fundamental_field(p_off)
        for _ in range(4):
            X = self.rng.standard_normal(n)
            Y = self.rng.standard_normal(n)
            u = np.concatenate(([0.0], X, [0.0]))
            w = np.concatenate(([0.0], Y, [0.0]))
            res_tor = max(res_tor, float(np.max(np.abs(
                geom.torsion(p_off, u, w, st) - geom.torsion_closed_form(p_off, X, Y, st)))))
            res_tor0 = max(res_tor0, float(np.max(np.abs(
                geom.torsion(self.abase, u, w, st)))))
            res_torf = max(res_torf, float(np.max(np.abs(geom.torsion(p_off, F, u, st)))))
        self.add("ambient-torsion-cotton",
                 "rule-path torsion equals s times the lifted Cotton-York", res_tor, tol_t)
        self.add("ambient-torsion-on-slice", "torsion vanishes at s = 0", res_tor0, 1e-9)
        self.add("ambient-torsion-F-contraction", "fundamental field contracts torsion to zero",
                 res_torf, 1e-9)

        hom = geom.homogeneity_checks(p_off, rng=np.random.default_rng(self.cfg.seed))
        res_hom = max(hom[0.5]["metric_scaling"], hom[2.0]["metric_scaling"],
                      hom[0.5]["torsion_scaling"], hom[2.0]["torsion_scaling"],
                      hom["lift_homogeneity"])
        self.add("ambient-homogeneity", "metric degree 2, torsion degree 2, lifts degree -1",
                 res_hom, tol_t)
        self.add("ambient-dphi-closed", "dual form of the fundamental field is closed",
                 hom["dphi"], tol_t)
        self.add("ambient-nabF", "covariant derivative of the fundamental field is the identity",
                 geom.nabF_check(p_off, rng=np.random.default_rng(self.cfg.seed)), 1e-9)

        # curvature block identity, Ricci, and F-row checks at the slice
        pairs = geom.curvature_all_pairs(self.abase)
        res_block = 0.0
        for _ in range(4):
            X = self.rng.standard_normal(n)
            Y = self.rng.standard_normal(n)
            Z = self.rng.standard_normal(n)
            R = np.einsum("a,b,abcd->cd", np.concatenate(([0.0], X, [0.0])),
                          np.concatenate(([0.0], Y, [0.0])), pairs)
            got = R @ np.concatenate(([0.0], Z, [0.0]))
            want = np.concatenate((
                [0.0],
                weyl_endomorphism(st, X, Y) @ Z,
                [-float(np.einsum("ijk,i,j,k->", st.CY, X, Y, Z))]))
            res_block = max(res_block, float(np.max(np.abs(got - want))))
        self.add("ambient-curvature-block",
                 "curvature acts as the Weyl block plus a Cotton-York Q-component",
                 res_block, self.cfg.tol_transport)

        ric = geom.ricci(self.abase, pairs)
        self.add("ambient-ricci-on-slice", "ambient Ricci vanishes on the embedded slice",
                 float(np.max(np.abs(ric))), self.cfg.tol_transport)

        F0 = geom.fundamental_field(self.abase)
        res_rf = float(np.max(np.abs(np.einsum("abcd,d->abc", pairs[1:-1, 1:-1], F0))))
        self.add("ambient-curvature-F", "curvature of slice-tangent pairs kills F",
                 res_rf, self.cfg.tol_transport)

        h0 = geom.metric(self.abase)
        res_pairing = 0.0
        for _ in range(4):
            Zv = self.rng.standard_normal(n + 2)
            Xv = np.concatenate(([0.0], self.rng.standard_normal(n), [0.0]))
            Yv = np.concatenate(([0.0], self.rng.standard_normal(n), [0.0]))
            RFZ = np.einsum("a,b,abcd->cd", F0, Zv, pairs)
            RXY = np.einsum("a,b,abcd->cd", Xv, Yv, pairs)
            lhs = float((RFZ @ Xv) @ h0 @ Yv)
            rhs = float((RXY @ F0) @ h0 @ Zv)
            res_pairing = max(res_pairing, abs(lhs - rhs))
        self.add("ambient-curvature-F-pairing",
                 "pairing symmetry between F-curvature and slice curvature",
                 res_pairing, self.cfg.tol_transport)

    # -- holonomy checks ------------------------------------------------------------------

    def _s_profile(self):
        t = ex.var(0)
        amp = 0.5 * self.s_test
        return ex.mul(ex.const(amp), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))

    def _q_profile(self):
        t = ex.var(0)
        return ex.add(ex.const(1.0), ex.mul(
            ex.const(0.25), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2)))

    def holonomy_checks(self):
        loops = self.loops
        s_expr, q_expr = self._s_profile(), self._q_profile()
        off = [tp.lift_loop(lp, s_expr=s_expr, q_expr=q_expr) for lp in loops]
        ttol = 1e-9
        alg_t = hol.holonomy_algebra(self.tractor, self.base, loops, ttol, self.cfg.tol_rank)
        alg_a = hol.holonomy_algebra(self.ambient, self.abase, off, ttol, self.cfg.tol_rank)

        cmp = hol.compare_holonomy(alg_t, alg_a)
        res = max(cmp["residual_a_in_b"], cmp["residual_b_in_a"])
        if cmp["dim_a"] != cmp["dim_b"]:
            res = float("inf")
        self.add("holonomy-tractor-vs-ambient",
                 "tractor holonomy equals ambient holonomy on loops that leave the slice",
                 res, 1e-5)
        self.add("holonomy-loop-logs",
                 "each loop transport's log lies in the estimated algebra",
                 max(alg_t.log_residuals + alg_a.log_residuals), 1e-6)

        self.add("holonomy-orthogonal-algebra",
                 "holonomy generators are anti-self-adjoint for the fiber metric",
                 max(hol.algebra_metric_residual(alg_t), hol.algebra_metric_residual(alg_a)),
                 1e-6)
        self.add("holonomy-bracket-closure", "estimated algebra closes under brackets",
                 max(hol.bracket_closure_residual(alg_t), hol.bracket_closure_residual(alg_a)),
                 1e-6)

        # Einstein / Ricci-flat fixed tractors
        st = self.base_stack
        lam = float(np.trace(st.Psharp)) / self.spec.n
        if float(np.max(np.abs(st.Psharp - lam * np.eye(self.spec.n)))) <= 1e-9:
            v = np.zeros(self.spec.n + 2)
            v[0], v[-1] = 1.0, -lam
            res_fix = max((float(np.max(np.abs(B @ v))) for B in alg_t.basis), default=0.0)
            self.add("holonomy-parallel-tractor",
                     "holonomy annihilates the Einstein-scale tractor", res_fix, 1e-6)

        # the off-slice loop transports: each preserves the ambient metric at
        # (0, base, 1), and, starting and ending there, equals the tractor
        # transport of its chart loop
        h0 = self.geom.metric(self.abase)
        self.add("ambient-metric-compatibility",
                 "transport around loops that leave the slice preserves the ambient metric",
                 max(float(np.max(np.abs(G.T @ h0 @ G - h0))) for G in alg_a.loop_transports),
                 self.cfg.tol_transport)
        self.add("transport-scale-lift",
                 "a loop lifted off the slice transports as its chart loop does",
                 max(float(np.max(np.abs(Ga - Gt)))
                     for Ga, Gt in zip(alg_a.loop_transports, alg_t.loop_transports)), 1e-6)

        # plumbing invariants: reversal and fiber-metric preservation, on the
        # last loop's transport from the tractor holonomy estimate
        G = alg_t.loop_transports[-1]
        Gi = tp.transport_matrix(self.tractor, tp.reverse_path(loops[-1]), ttol)
        H = self.tractor.fiber_metric(self.base)
        self.add("transport-reversal", "reverse transport inverts the loop transport",
                 float(np.max(np.abs(Gi @ G - np.eye(self.spec.n + 2)))), self.cfg.tol_transport)
        self.add("transport-metric-preservation",
                 "loop transport is an isometry of the fiber metric",
                 float(np.max(np.abs(G.T @ H @ G - H))), self.cfg.tol_transport)


def run_verify(cfg: RunConfig) -> VerifyReport:
    suite = _Suite(cfg)
    suite.timed(suite.tensor_checks)
    suite.timed(suite.tractor_checks)
    suite.timed(suite.ambient_checks)
    suite.timed(suite.holonomy_checks)
    return VerifyReport(config=cfg.to_dict(), checks=suite.checks)


_CHECK_COLUMNS = ("name", "anchor", "residual", "tol", "pass", "seconds")


def _check_table(data: dict) -> list:
    lines = [f"{'check':38s} {'residual':>12s} {'tol':>9s}  status"]
    for c in data["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        lines.append(f"{c['name']:38s} {c['residual']:12.3e} {c['tol']:9.0e}  {status}")
    lines.append(f"summary: {'pass' if data['summary']['pass'] else 'FAIL'} "
                 f"({data['summary']['total']} checks)")
    return lines


def _flat_lines(obj, prefix: str = "") -> list:
    """`key.path: value` lines of a nested dict, keys sorted."""
    if not isinstance(obj, dict):
        return [f"{prefix[:-1]}: {obj}"]
    return [line for k in sorted(obj) for line in _flat_lines(obj[k], f"{prefix}{k}.")]


def _json_safe(obj):
    """A copy of `obj` with each non-finite float as "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def report_emit(report, fmt: str = "json", out=None) -> str:
    """Serialize a report; writes to `out` when given, returns the text.

    `report` is a VerifyReport, a command's payload dict, or a table (a
    list of rows, header first).  json dumps a report or payload; text
    prints a VerifyReport's check table or a payload's flattened
    `key.path: value` lines; csv writes a table, or a VerifyReport's
    checks as one.  A payload has no csv form.  json writes a non-finite
    float as the string "inf", "-inf" or "nan", so the output is strict
    JSON.
    """
    verify = isinstance(report, VerifyReport)
    data = report.to_dict() if verify else report
    if fmt == "json":
        text = json.dumps(_json_safe(data), indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif fmt == "text":
        text = "\n".join(_check_table(data) if verify else _flat_lines(data)) + "\n"
    elif fmt == "csv":
        if isinstance(data, dict):
            if not verify:
                raise MetricError(f"format {fmt!r} not supported here; use json or text")
            data = [_CHECK_COLUMNS] + [[c[k] for k in _CHECK_COLUMNS] for c in data["checks"]]
        buf = io.StringIO()
        csv.writer(buf).writerows(data)
        text = buf.getvalue()
    else:
        raise MetricError(f"unknown report format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text

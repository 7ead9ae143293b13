"""Structured verification runs and report serialization.

A RunConfig pins everything a run depends on (metric source, base point,
tolerances, loop parameters, seed), so identical configs reproduce
byte-identical JSON reports apart from the timing fields.  `verify`'s
check groups run on arrays: one batched call per point set and per set of
random vectors, drawn in the order a point-by-point run would draw them.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import holonomy as hol
from . import transport as tp
from .ambient import ambient_point
from .curvature import compute_stack, stack_at, take_rows, weyl_endomorphism
from .metric import MetricError, MetricSpec, load_config, metric_jet, preset
from .tractor import connection_matrix, normality_check, tractor_metric
from . import expr as ex

__all__ = ["RunConfig", "VerifyReport", "run_verify", "report_emit", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
LOOP_TOL = 1e-9  # step tolerance of every loop transport that verify and holonomy run
# residual bound of the ambient identities that hold up to rounding: lift
# pairing, torsion on the slice and along F, nabla F = identity
AMBIENT_IDENTITY_TOL = 1e-9


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
    loops: int | None = None  # None: max(12, n(n-1)/2), see `loop_count`
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
            if value is not None and value < 0:
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

    def loop_count(self, n: int) -> int:
        """`loops`, or by default max(12, n(n-1)/2): 12 up to n = 5, and
        from n = 6 just the coordinate rectangles."""
        return max(12, n * (n - 1) // 2) if self.loops is None else self.loops

    def loop_family(self, spec: MetricSpec, base) -> list:
        """The n(n-1)/2 coordinate rectangles at `base` plus trig loops up
        to `loop_count(n)`, drawn from seed + 1; fewer than n(n-1)/2 loops
        raise MetricError.  The radius is capped at 0.9 times the distance
        from `base` to the edge of the chart box."""
        n, count = spec.n, self.loop_count(spec.n)
        rectangles = n * (n - 1) // 2
        if count < rectangles:
            raise MetricError(f"loops must be >= {rectangles}, the number of coordinate "
                              f"rectangles at n = {n}, not {count}")
        radius = self.radius
        if spec.chart_domain is not None:
            margin = min(min(b - lo, hi - b) for b, (lo, hi) in zip(base, spec.chart_domain))
            radius = min(radius, 0.9 * margin)
        return tp.loop_family(base, count - rectangles, radius,
                              np.random.default_rng(self.seed + 1))

    def to_dict(self) -> dict:
        """Every field but the output settings `out` and `format`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("out", "format")}
        out["params"] = dict(self.params)
        if self.point is not None:
            out["point"] = list(self.point)
        return out


@dataclass
class VerifyReport:
    config: dict
    checks: list  # dicts: name, anchor, residual, tol, pass, seconds

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        checks = sorted(self.checks, key=lambda c: c["name"])
        return {
            "schema_version": SCHEMA_VERSION,
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


def _worst(a, scale=1.0) -> float:
    """The largest over the rows of a batch of max|row| / scale; 0.0 for none."""
    return float(np.max(np.max(np.abs(a), axis=tuple(range(1, np.ndim(a)))) / scale,
                        initial=0.0))


def torsion_cotton_residual(geom, p, X, Y, stack) -> float:
    """The largest over the rows of (X, Y) of |T(u, w) - s (CYsharp(X, Y))~|,
    with u = (0, X, 0) and w = (0, Y, 0), relative to max(1, |Omega(u) w|,
    |Omega(w) u|): T is the difference of those two terms, whose entries
    grow like q, so its rounding does too."""
    u, w = ambient_point(0.0, X, 0.0), ambient_point(0.0, Y, 0.0)  # directions (0, V, 0)
    uw, wu = geom.torsion_terms(p, u, w, stack)
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(uw), axis=-1), np.max(np.abs(wu), axis=-1)))
    return _worst(uw - wu - geom.torsion_closed_form(p, X, Y, stack), scale)


def off_slice_family(geom, base, loops) -> tuple:
    """(s_test, lifted loops): the test height off the slice at `base` and
    the chart loops lifted to ambient loops that leave the slice, as
    `verify` and `holonomy --variant ambient` (or `crude`) run them.

    s_test is min(0.3, 0.6 * default_s_bound(base)), or 0.3 where Psharp
    vanishes.  Each loop is lifted with s(t) = (s_test / 2) sin^2(pi t) and
    q(t) = 1 + sin^2(pi t) / 4, so it starts and ends at (0, base, 1)."""
    s_cap = geom.default_s_bound(base)
    s_test = min(0.3, 0.6 * s_cap) if np.isfinite(s_cap) else 0.3
    sin2 = ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), ex.var(0))), 2)
    s_expr = ex.mul(ex.const(0.5 * s_test), sin2)
    q_expr = ex.add(ex.const(1.0), ex.mul(ex.const(0.25), sin2))
    return s_test, [tp.lift_loop(lp, s_expr=s_expr, q_expr=q_expr) for lp in loops]


def _bilinear(a, M, b) -> np.ndarray:
    """a @ M @ b for each row of the stacks a and b and matrices M."""
    return (a[..., None, :] @ M @ b[..., None])[..., 0, 0]


class _Suite:
    """Collects timed checks against one metric.  Each group evaluates its
    point set and random vectors in batched calls; `rng` draws them in the
    order docs/conventions.md ("Run inputs") lists."""

    def __init__(self, cfg: RunConfig):
        self.spec = cfg.metric_spec()
        # the report's config gives the loop count the run used
        self.cfg = cfg = replace(cfg, loops=cfg.loop_count(self.spec.n))
        self.rng = np.random.default_rng(cfg.seed)
        self.checks = []
        self.base = cfg.base_point(self.spec, self.rng)
        self.points = self.spec.sample_points(self.rng, cfg.samples)
        # stack_at's two steps, spelled out on the sample batch: the spec's
        # first order-3 jet builds its compiled table (a few ms) here rather
        # than inside a stack_at call, whose per-call latency perfbench samples
        self.stacks = compute_stack(metric_jet(self.spec, self.points))
        self.base_stack = stack_at(self.spec, self.base)
        self.loops = cfg.loop_family(self.spec, self.base)
        self.tractor = tp.TractorOracle(self.spec)
        self.ambient = tp.AmbientOracle(self.spec)
        self.geom = self.ambient.geom
        self.abase = ambient_point(0.0, self.base, 1.0)
        self.s_test, self.off_loops = off_slice_family(self.geom, self.base, self.loops)

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
        st = self.stacks
        eigs = np.linalg.eigvalsh(st.g)
        counts = np.stack([np.sum(eigs > 0, axis=-1), np.sum(eigs < 0, axis=-1)], axis=-1)
        sig_bad = np.sum(np.any(counts != self.spec.signature, axis=-1))
        rl = st.riem_low
        scale = np.maximum(1.0, np.max(np.abs(rl), axis=(1, 2, 3, 4)))
        res_sym = max(_worst(rl + rl.swapaxes(1, 2), scale), _worst(rl + rl.swapaxes(3, 4), scale),
                      _worst(rl - rl.transpose(0, 3, 4, 1, 2), scale),
                      _worst(st.Ric - st.Ric.swapaxes(1, 2), scale))
        bianchi = rl + np.einsum("...jkil->...ijkl", rl) + np.einsum("...kijl->...ijkl", rl)
        wtr = np.einsum("...ik,...ijkl->...jl", st.ginv, st.W)
        self.add("tensor-signature", "declared signature matches eigenvalue counts",
                 float(sig_bad), 0.0)
        self.add("tensor-curvature-symmetries",
                 "Riemann pair symmetries and Ricci symmetry", res_sym, tol)
        self.add("tensor-first-bianchi", "cyclic identity of the lowered Riemann",
                 _worst(bianchi, scale), tol)
        self.add("tensor-weyl-tracefree", "Weyl tensor is totally trace-free",
                 _worst(wtr, scale), tol)
        self.add("tensor-cotton-antisymmetry",
                 "Cotton-York antisymmetric in its first slots",
                 _worst(st.CY + st.CY.swapaxes(1, 2)), tol)

    # -- tractor checks -----------------------------------------------------------

    def tractor_checks(self):
        tol = self.cfg.tol_tensor * 10
        n = self.spec.n
        st = self.stacks
        X = self.rng.standard_normal((len(self.points), 2, n))  # two per point
        Om = connection_matrix(st, X)
        H = tractor_metric(st.g)[:, None]
        XH = np.zeros(Om.shape)  # X(H): only the g block varies
        XH[..., 1:n + 1, 1:n + 1] = np.einsum("ack,akij->acij", X, st.jet.dg)
        res = (Om.swapaxes(-2, -1) @ H + H @ Om - XH).reshape(-1, n + 2, n + 2)  # a row per X
        rep = normality_check(st)
        self.add("tractor-metricity",
                 "connection matrices are anti-self-adjoint for the fiber metric",
                 _worst(res, np.maximum(1.0, np.max(np.abs(Om), axis=(-2, -1)).ravel())), tol)
        self.add("tractor-normality",
                 "curvature preserves the null direction with trace-free tangent block",
                 max(rep["preserves_null_direction"]["residual"],
                     rep["ricci_contraction_vanishes"]["residual"]),
                 rep["preserves_null_direction"]["tol"])

    # -- ambient checks ---------------------------------------------------------------

    def ambient_checks(self):
        geom, rng = self.geom, self.rng
        n = self.spec.n
        tol_t = self.cfg.tol_transport

        # the first five sample points, each lifted off the slice by its own q and s
        k = min(5, len(self.points))
        x, st = self.points[:k], take_rows(self.stacks, slice(0, k))
        q, u, XY = np.empty(k), np.empty(k), np.empty((k, 2, 2, n))
        for i in range(k):  # each point's q, s and two vector pairs, in turn
            q[i], u[i], XY[i] = rng.uniform(0.6, 1.6), rng.uniform(-1.0, 1.0), \
                rng.standard_normal((2, 2, n))
        cap = geom.default_s_bound(x, q)
        s = u * np.where(np.isfinite(cap), np.minimum(0.4, 0.8 * cap), 0.4)
        p = ambient_point(s, x, q)
        f, _ = geom.f_map(p, st)
        lifts = geom.lift(p, XY.reshape(k, 4, n), st).reshape(k, 2, 2, n + 2)
        lhs = _bilinear(lifts[:, :, 0], geom.metric(p, st)[:, None], lifts[:, :, 1])
        rhs = _bilinear(XY[:, :, 0], st.g[:, None], XY[:, :, 1])
        self.add("ambient-lift-pairing", "lifted vectors pair to the base metric",
                 _worst(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))), AMBIENT_IDENTITY_TOL)
        self.add("ambient-f-commutes", "bundle map commutes with the Schouten endomorphism",
                 _worst(f @ st.Psharp - st.Psharp @ f), 1e-10)

        # torsion
        st = self.base_stack
        p_off = ambient_point(self.s_test, self.base, 1.0)
        XY = rng.standard_normal((4, 2, n))
        X, Y = XY[:, 0], XY[:, 1]
        u, w = ambient_point(0.0, X, 0.0), ambient_point(0.0, Y, 0.0)  # directions (0, V, 0)
        F = geom.fundamental_field(p_off)
        self.add("ambient-torsion-cotton",
                 "rule-path torsion equals s times the lifted Cotton-York",
                 torsion_cotton_residual(geom, p_off, X, Y, st), tol_t)
        self.add("ambient-torsion-on-slice", "torsion vanishes at s = 0",
                 float(np.max(np.abs(geom.torsion(self.abase, u, w, st)))), AMBIENT_IDENTITY_TOL)
        self.add("ambient-torsion-F-contraction", "fundamental field contracts torsion to zero",
                 float(np.max(np.abs(geom.torsion(p_off, F, u, st)))), AMBIENT_IDENTITY_TOL)

        hom = geom.homogeneity_checks(p_off, np.random.default_rng(self.cfg.seed), st)
        res_hom = max(hom["metric_scaling"], hom["torsion_scaling"], hom["lift_homogeneity"])
        self.add("ambient-homogeneity", "metric degree 2, torsion degree 2, lifts degree -1",
                 res_hom, tol_t)
        self.add("ambient-dphi-closed", "dual form of the fundamental field is closed",
                 hom["dphi"], tol_t)
        self.add("ambient-nabF", "covariant derivative of the fundamental field is the identity",
                 geom.nabF_check(p_off, np.random.default_rng(self.cfg.seed), st),
                 AMBIENT_IDENTITY_TOL)

        # curvature block identity, Ricci, and F-row checks at the slice
        pairs = geom.curvature_all_pairs(self.abase)
        XYZ = rng.standard_normal((4, 3, n))
        X, Y, Z = XYZ[:, 0], XYZ[:, 1], XYZ[:, 2]
        R = np.einsum("ia,ib,abcd->icd", ambient_point(0.0, X, 0.0), ambient_point(0.0, Y, 0.0),
                      pairs)
        got = (R @ ambient_point(0.0, Z, 0.0)[..., None])[..., 0]
        want = np.zeros(got.shape)
        want[:, 1:-1] = (weyl_endomorphism(st, X, Y) @ Z[..., None])[..., 0]
        want[:, -1] = -np.einsum("ijk,ci,cj,ck->c", st.CY, X, Y, Z)
        self.add("ambient-curvature-block",
                 "curvature acts as the Weyl block plus a Cotton-York Q-component",
                 float(np.max(np.abs(got - want))), self.cfg.tol_transport)

        ric = geom.ricci(pairs)
        self.add("ambient-ricci-on-slice", "ambient Ricci vanishes on the embedded slice",
                 float(np.max(np.abs(ric))), self.cfg.tol_transport)

        F0 = geom.fundamental_field(self.abase)
        res_rf = float(np.max(np.abs(np.einsum("abcd,d->abc", pairs[1:-1, 1:-1], F0))))
        self.add("ambient-curvature-F", "curvature of slice-tangent pairs kills F",
                 res_rf, self.cfg.tol_transport)

        h0 = geom.metric(self.abase)
        draws = rng.standard_normal((4, 3 * n + 2))  # each round's Z, X and Y in turn
        Zv = draws[:, :n + 2]
        Xv, Yv = (ambient_point(0.0, V, 0.0) for V in (draws[:, n + 2:2 * n + 2],
                                                        draws[:, 2 * n + 2:]))
        RFZ = np.einsum("a,ib,abcd->icd", F0, Zv, pairs)
        RXY = np.einsum("ia,ib,abcd->icd", Xv, Yv, pairs)
        lhs = _bilinear((RFZ @ Xv[..., None])[..., 0], h0, Yv)
        rhs = _bilinear(RXY @ F0, h0, Zv)
        self.add("ambient-curvature-F-pairing",
                 "pairing symmetry between F-curvature and slice curvature",
                 float(np.max(np.abs(lhs - rhs))), self.cfg.tol_transport)

    # -- holonomy checks ------------------------------------------------------------------

    def holonomy_checks(self):
        loops = self.loops
        alg_t = hol.holonomy_algebra(self.tractor, self.base, loops, LOOP_TOL, self.cfg.tol_rank)
        alg_a = hol.holonomy_algebra(self.ambient, self.abase, self.off_loops, LOOP_TOL,
                                     self.cfg.tol_rank)

        cmp = hol.compare_holonomy(alg_t, alg_a)
        res = max(cmp["residual_a_in_b"], cmp["residual_b_in_a"])
        if cmp["dim_a"] != cmp["dim_b"]:
            res = float("inf")
        self.add("holonomy-tractor-vs-ambient",
                 "tractor holonomy equals ambient holonomy on loops that leave the slice",
                 res, cmp["tol"])
        self.add("holonomy-loop-logs",
                 "each loop transport's log lies in the estimated algebra",
                 max(_worst(alg_t.log_residuals), _worst(alg_a.log_residuals)), 1e-6)

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
            res_fix = _worst(alg_t.basis @ v)
            self.add("holonomy-parallel-tractor",
                     "holonomy annihilates the Einstein-scale tractor", res_fix, 1e-6)

        # the off-slice loop transports: each preserves the ambient metric at
        # (0, base, 1), the estimate's fiber metric, and, starting and ending
        # there, equals the tractor transport of its chart loop
        h0 = alg_a.fiber_metric
        Ga, Gt = alg_a.loop_transports, alg_t.loop_transports
        self.add("ambient-metric-compatibility",
                 "transport around loops that leave the slice preserves the ambient metric",
                 _worst(Ga.swapaxes(1, 2) @ h0 @ Ga - h0), self.cfg.tol_transport)
        self.add("transport-scale-lift",
                 "a loop lifted off the slice transports as its chart loop does",
                 _worst(Ga - Gt), 1e-6)

        # plumbing invariants on the tractor estimate's transport G of the
        # last loop: its reverse transport Gi is the ordered product over the
        # loop's pieces, split as the estimate splits it, each reversed and in
        # reverse order a lane of one lockstep transport; and G preserves the
        # estimate's fiber metric
        G = alg_t.loop_transports[-1]
        back = [tp.reverse_path(piece) for piece in reversed(hol._pieces(loops[-1]))]
        eye = np.eye(self.spec.n + 2)
        Gi = eye
        for T in tp.parallel_transport(self.tractor, back,
                                       np.broadcast_to(eye, (len(back),) + eye.shape), LOOP_TOL):
            Gi = T @ Gi
        H = alg_t.fiber_metric
        self.add("transport-reversal", "reverse transport inverts the loop transport",
                 float(np.max(np.abs(Gi @ G - eye))), self.cfg.tol_transport)
        self.add("transport-metric-preservation",
                 "loop transport is an isometry of the fiber metric",
                 float(np.max(np.abs(G.T @ H @ G - H))), self.cfg.tol_transport)


def run_verify(cfg: RunConfig) -> VerifyReport:
    suite = _Suite(cfg)
    suite.timed(suite.tensor_checks)
    suite.timed(suite.tractor_checks)
    suite.timed(suite.ambient_checks)
    suite.timed(suite.holonomy_checks)
    return VerifyReport(config=suite.cfg.to_dict(), checks=suite.checks)


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


def report_emit(report, fmt: str, out: str | None) -> str:
    """Serialize a report; writes to `out` unless it is None or "", returns the text.

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

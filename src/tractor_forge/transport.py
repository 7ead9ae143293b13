"""Parallel transport along expression-defined paths.

A PathSpec is a chain of segments, each a tuple of Expr curves in the
single parameter t (Var(0)) mapping [0,1] into the chart (dimension n)
or into the ambient coordinates (dimension n+2).  Tangents are exact
symbolic derivatives.

A connection oracle is any object with:
    point_dim   -- dimension of the curve's coordinate space,
    fiber_dim   -- size of the transported vectors,
    omega_nodes(points, tangents) -> (k, fiber_dim, fiber_dim) stack of
                   connection matrices at k nodes, given as (k, point_dim)
                   stacks of points and tangents,
    omega(point, tangent) -> (fiber_dim x fiber_dim) matrix, the k = 1
                   case of omega_nodes,
    fiber_metric(point) -> matrix H (for metric-preservation checks),
and optionally curvature_pairs(point) -> [point_dim, point_dim, ...]
curvature matrices for holonomy generator harvesting.  Each row of
`omega_nodes` equals the `omega` call at that node exactly.

Transport solves vdot = -Omega(gamma(t), gammadot(t)) v with an adaptive
embedded Dormand-Prince 5(4) step.  Omega depends only on t, so each
distinct node time costs one connection matrix: a segment's first node
goes through `omega`, and the five new nodes of each step attempt through
one `omega_nodes` call.  Every transport goes through `parallel_transport`;
transports chained over consecutive sub-paths equal the transport of the
whole path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .ambient import AmbientGeometry
from .curvature import connection_at, stack_at
from .metric import MetricError, MetricSpec
from .tractor import connection_matrix, curvature_all_pairs, tractor_metric

__all__ = [
    "PathSpec",
    "Segment",
    "TransportError",
    "segment_from_points",
    "path_from_waypoints",
    "rectangle_loop",
    "trig_loop",
    "loop_family",
    "reverse_path",
    "scale_path",
    "lift_loop",
    "parallel_transport",
    "transport_matrix",
    "TractorOracle",
    "AmbientOracle",
    "CrudeOracle",
    "LeviCivitaOracle",
]

_T = ex.var(0)


class TransportError(RuntimeError):
    """Integration failure (step underflow or oracle singularity)."""


@dataclass(frozen=True)
class Segment:
    """One smooth piece: coordinate Exprs in t with exact tangents.

    Coordinates and tangents are compiled once, on construction, by
    `expr.compile_exprs`; `point` and `tangent` call the compiled code.
    """

    coords: tuple  # tuple of Expr in Var(0)
    tangents: tuple = field(default=None)
    _point: object = field(default=None, init=False, repr=False, compare=False)
    _tangent: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tangents is None:
            object.__setattr__(
                self, "tangents", tuple(c.diff(0) for c in self.coords))
        object.__setattr__(self, "_point", ex.compile_exprs(self.coords))
        object.__setattr__(self, "_tangent", ex.compile_exprs(self.tangents))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def point(self, t: float) -> np.ndarray:
        return np.array(self._point((t,)))

    def tangent(self, t: float) -> np.ndarray:
        return np.array(self._tangent((t,)))

    def reversed(self) -> "Segment":
        flip = ex.sub(ex.const(1.0), _T)
        return Segment(tuple(ex.substitute(c, 0, flip) for c in self.coords))


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-smooth path: consecutive segments with matching endpoints."""

    segments: tuple
    gap_tol: float = 1e-12

    def __post_init__(self):
        if not self.segments:
            raise MetricError("path needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            gap = np.max(np.abs(a.point(1.0) - b.point(0.0)))
            if gap > self.gap_tol:
                raise MetricError(f"segment endpoints mismatch (gap {gap:.2e})")

    @property
    def dim(self) -> int:
        return self.segments[0].dim

    @property
    def base(self) -> np.ndarray:
        return self.segments[0].point(0.0)

    @property
    def end(self) -> np.ndarray:
        return self.segments[-1].point(1.0)

    def is_loop(self) -> bool:
        return bool(np.max(np.abs(self.end - self.base)) <= self.gap_tol)


def segment_from_points(p0, p1) -> Segment:
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    coords = tuple(ex.add(ex.const(a), ex.mul(ex.const(b - a), _T))
                   for a, b in zip(p0, p1))
    return Segment(coords)


def path_from_waypoints(points) -> PathSpec:
    points = [np.asarray(p, dtype=float) for p in points]
    return PathSpec(tuple(segment_from_points(a, b)
                          for a, b in zip(points, points[1:])))


def rectangle_loop(base, i: int, j: int, radius: float) -> PathSpec:
    """Coordinate-plane rectangle through base in the (i, j) plane."""
    if radius <= 0:
        raise MetricError("loop radius must be positive")
    base = np.asarray(base, dtype=float)
    corners = [base.copy() for _ in range(5)]
    corners[1][i] += radius
    corners[2][i] += radius
    corners[2][j] += radius
    corners[3][j] += radius
    return path_from_waypoints(corners)


def trig_loop(base, radius: float, rng: np.random.Generator,
              harmonics: int = 2) -> PathSpec:
    """Smooth random loop: trigonometric coordinates with amplitude <= radius."""
    if radius <= 0:
        raise MetricError("loop radius must be positive")
    base = np.asarray(base, dtype=float)
    two_pi = 2.0 * np.pi
    coords = []
    amps = rng.uniform(-1.0, 1.0, size=(len(base), harmonics, 2))
    for b, rows in zip(base, amps):
        # (cos - 1) ranges over [-2, 0], so it counts twice toward the bound
        reach = float(np.sum(np.abs(rows[:, 0])) + 2.0 * np.sum(np.abs(rows[:, 1])))
        scale = radius / max(1.0, reach)
        e = ex.const(b)
        for k, (ca, cb) in enumerate(rows, start=1):
            angle = ex.mul(ex.const(two_pi * k), _T)
            e = ex.add(e, ex.mul(ex.const(ca * scale), ex.call("sin", angle)))
            e = ex.add(e, ex.mul(ex.const(cb * scale),
                                 ex.sub(ex.call("cos", angle), ex.const(1.0))))
        coords.append(e)
    return PathSpec((Segment(tuple(coords)),))


def loop_family(base, count: int, radius: float,
                rng: np.random.Generator | None = None) -> list:
    """Coordinate-pair rectangles plus `count` smooth random loops at base."""
    if radius <= 0:
        raise MetricError("loop radius must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    base = np.asarray(base, dtype=float)
    n = len(base)
    loops = [rectangle_loop(base, i, j, radius)
             for i in range(n) for j in range(i + 1, n)]
    loops.extend(trig_loop(base, radius, rng) for _ in range(count))
    return loops


def reverse_path(path: PathSpec) -> PathSpec:
    return PathSpec(tuple(seg.reversed() for seg in reversed(path.segments)))


def scale_path(path: PathSpec, base, factor: float) -> PathSpec:
    """Shrink the path toward `base`: gamma -> base + factor*(gamma - base)."""
    base = np.asarray(base, dtype=float)
    segs = []
    for seg in path.segments:
        coords = tuple(
            ex.add(ex.const(b), ex.mul(ex.const(factor), ex.sub(c, ex.const(b))))
            for c, b in zip(seg.coords, base))
        segs.append(Segment(coords))
    return PathSpec(tuple(segs))


def lift_loop(path: PathSpec, s_expr: ex.Expr | None = None,
              q_expr: ex.Expr | None = None) -> PathSpec:
    """Embed a chart path into ambient coordinates with s(t), q(t) profiles.

    The profiles are global in the path parameter; each segment of the base
    path occupies an equal sub-interval.
    """
    k = len(path.segments)
    if s_expr is None:
        s_expr = ex.const(0.0)
    if q_expr is None:
        q_expr = ex.const(1.0)
    segs = []
    for idx, seg in enumerate(path.segments):
        # global parameter u = (idx + t)/k for local t in [0,1]
        glob = ex.div(ex.add(ex.const(float(idx)), _T), ex.const(float(k)))
        s_loc = ex.substitute(s_expr, 0, glob)
        q_loc = ex.substitute(q_expr, 0, glob)
        segs.append(Segment((s_loc,) + seg.coords + (q_loc,)))
    return PathSpec(tuple(segs))


# -- connection oracles ---------------------------------------------------------


def _omega_at_node(self, point, tangent) -> np.ndarray:
    """The connection matrix at one node: the k = 1 case of `omega_nodes`.

    Every oracle binds it as its own `omega` attribute.
    """
    return self.omega_nodes(np.asarray(point)[None], np.asarray(tangent)[None])[0]


class TractorOracle:
    """The normal tractor connection over chart points.

    `variant` names the connection; "induced" is its only value, and any
    other raises ValueError.
    """

    def __init__(self, spec: MetricSpec, variant: str = "induced"):
        if variant != "induced":
            raise ValueError(f"unknown tractor variant {variant!r}")
        self.spec = spec
        self.point_dim = spec.n
        self.fiber_dim = spec.n + 2
        self.name = "tractor-induced"

    def omega_nodes(self, points, tangents) -> np.ndarray:
        return connection_matrix(connection_at(self.spec, points), tangents)

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return tractor_metric(connection_at(self.spec, point).g)

    def curvature_pairs(self, point) -> np.ndarray:
        return curvature_all_pairs(stack_at(self.spec, point))


class AmbientOracle:
    """Lifted ambient connection over (s, x, q) points."""

    def __init__(self, spec: MetricSpec):
        self.geom = AmbientGeometry(spec)
        self.point_dim = spec.n + 2
        self.fiber_dim = spec.n + 2
        self.name = "ambient"
        self.spec = spec

    def omega_nodes(self, points, tangents) -> np.ndarray:
        """On the slice s = 0 the order-2 connection data suffices; off it
        the nodes share one batched order-3 stack."""
        points = np.asarray(points, dtype=float)
        if np.all(points[:, 0] == 0.0):
            return self.geom.omega(points, tangents, connection_at(self.spec, points[:, 1:-1]))
        return self.geom.omega(points, tangents)

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return self.geom.metric(point)

    def curvature_pairs(self, point) -> np.ndarray:
        return self.geom.curvature_all_pairs(point)


class CrudeOracle:
    """Crude alternative connection over (s, x, q) points."""

    def __init__(self, spec: MetricSpec):
        self.geom = AmbientGeometry(spec)
        self.point_dim = spec.n + 2
        self.fiber_dim = spec.n + 2
        self.name = "crude"
        self.spec = spec

    def omega_nodes(self, points, tangents) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.geom.omega_crude(points, tangents,
                                     connection_at(self.spec, points[:, 1:-1]))

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return self.geom.metric(point)

    def curvature_pairs(self, point) -> np.ndarray:
        return self.geom.curvature_all_pairs(point, crude=True)


class LeviCivitaOracle:
    """Plain Levi-Civita connection on TM; fiber dimension n."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.point_dim = spec.n
        self.fiber_dim = spec.n
        self.name = "levi-civita"

    def omega_nodes(self, points, tangents) -> np.ndarray:
        return np.einsum("...kij,...i->...kj", connection_at(self.spec, points).Gamma,
                         np.asarray(tangents, dtype=float))

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return connection_at(self.spec, point).g

    def curvature_pairs(self, point) -> np.ndarray:
        stack = stack_at(self.spec, point)
        return np.einsum("lijk->ijlk", stack.Riem)


# -- integrator ------------------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _integrate_segment(oracle, seg: Segment, v: np.ndarray, tol: float) -> np.ndarray:
    """One DP5(4) pass over a segment, one connection matrix per distinct node.

    Omega depends only on t, so the stage with c7 = c6 = 1 reuses stage 6,
    an accepted step's last node (t + 1.0*h, bit for bit the new t) is the
    next step's first, and a rejected step keeps its first node.  The
    segment's first node goes through `oracle.omega`; the five new nodes of
    each attempt, known before any stage is computed, through one
    `oracle.omega_nodes` call.
    """
    t = 0.0
    h = 0.1
    min_h = 1e-10
    scale_ref = max(1.0, float(np.max(np.abs(v))))
    first = oracle.omega(seg.point(t), seg.tangent(t))  # Omega at the step's first node
    while t < 1.0:
        h = min(h, 1.0 - t)
        nodes = [t + c * h for c in _DP_C[1:6]]
        new = oracle.omega_nodes(np.array([seg.point(tn) for tn in nodes]),
                                 np.array([seg.tangent(tn) for tn in nodes]))
        mats = [first, *new, new[4]]
        ks = []
        for stage, mat in enumerate(mats):
            y = v.copy()
            for a, k in zip(_DP_A[stage], ks):
                y = y + h * a * k
            ks.append(-(mat @ y))
        v5 = v + h * sum(b * k for b, k in zip(_DP_B5, ks))
        v4 = v + h * sum(b * k for b, k in zip(_DP_B4, ks))
        err = float(np.max(np.abs(v5 - v4))) / scale_ref
        if err <= tol or h <= min_h:
            if h <= min_h and err > tol:
                raise TransportError(f"step underflow at t={t:.6f} (err {err:.2e})")
            t += h
            v = v5
            first = new[4]
            scale_ref = max(scale_ref, float(np.max(np.abs(v))))
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h = max(min_h, h * min(5.0, max(0.2, factor)))
    return v


def parallel_transport(oracle, path: PathSpec, v0, tol: float = 1e-10) -> np.ndarray:
    """Transport the fiber vector v0 along the path; local error per step <= tol.

    v0 is one fiber vector, or a matrix whose columns are fiber vectors.
    """
    if path.dim != oracle.point_dim:
        raise MetricError(
            f"path dimension {path.dim} != oracle point dimension {oracle.point_dim}")
    v = np.asarray(v0, dtype=float).copy()
    if v.ndim not in (1, 2) or v.shape[0] != oracle.fiber_dim:
        raise MetricError(f"fiber vectors must have shape ({oracle.fiber_dim},) or "
                          f"({oracle.fiber_dim}, k), not {v.shape}")
    for seg in path.segments:
        v = _integrate_segment(oracle, seg, v, tol)
    return v


def transport_matrix(oracle, path: PathSpec, tol: float = 1e-10) -> np.ndarray:
    """Full transport operator: columns are transported basis vectors."""
    return parallel_transport(oracle, path, np.eye(oracle.fiber_dim), tol)

"""Parallel transport along expression-defined paths.

A PathSpec is a chain of segments, each a tuple of Expr curves in the
single parameter t (Var(0)) mapping [0,1], or a sub-range of it, into the
chart (dimension n) or into the ambient coordinates (dimension n+2).
Tangents are exact symbolic derivatives.

A connection oracle is any object with:
    point_dim   -- dimension of the curve's coordinate space,
    fiber_dim   -- size of the transported vectors,
    omega_nodes(points, tangents) -> (k, fiber_dim, fiber_dim) stack of
                   connection matrices at k nodes, given as (k, point_dim)
                   stacks of points and tangents,
    omega(point, tangent) -> (fiber_dim x fiber_dim) matrix, the k = 1
                   case of omega_nodes,
    fiber_metric(point) -> matrix H (for metric-preservation checks),
    curvature_pairs(point) -> [point_dim, point_dim, ...] curvature
                   matrices for holonomy generator harvesting.
Each row of `omega_nodes` equals the `omega` call at that node exactly.

Transport solves vdot = -Omega(gamma(t), gammadot(t)) v with an adaptive
embedded Dormand-Prince 5(4) step.  Omega depends only on t, so each
distinct node time costs one connection matrix: a segment's first node
goes through `omega`, and the five new nodes of each step attempt through
`omega_nodes`.  Every transport goes through `parallel_transport`, which
also takes a list of paths and integrates them in lockstep: each path
keeps its own step control, and each round makes one `omega_nodes` call
over the new nodes of every path still running.  Transports chained over
consecutive sub-paths equal the transport of the whole path exactly, and
a path transported in a list equals its transport alone exactly.
"""

from __future__ import annotations

import copy
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .ambient import AmbientGeometry
from .curvature import _christoffel_matrices, connection_at, stack_at
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
_HARMONICS = 2  # harmonics per coordinate of a `trig_loop`, each a sine and a cosine


class TransportError(RuntimeError):
    """Integration failure (step underflow or oracle singularity)."""


@dataclass(frozen=True)
class Segment:
    """One smooth piece: coordinate Exprs in t with exact tangents.

    Coordinates and tangents are compiled together, once, on construction,
    into one `expr.compile_exprs` table; `_columns[0]` and `_columns[1]`
    are the columns of the coordinates and of the tangents in a row of it.
    `span` = (t0, t1) restricts the segment to that range of the
    expressions' parameter: `point(u)` is the coordinates at
    t0 + (t1 - t0) u and `tangent(u)` their derivative there, scaled by
    t1 - t0.  `sub` cuts such a piece out of a segment and shares its
    compiled table.  `nodes` evaluates many u at once into (k, dim) arrays
    of points and tangents, with the scale applied as one array product;
    `point` and `tangent` read one row, which for one u is cheaper than
    `nodes`' buffer, and give the same values.
    """

    coords: tuple  # tuple of Expr in Var(0)
    tangents: tuple = field(default=None)
    span: tuple = (0.0, 1.0)
    _table: object = field(default=None, init=False, repr=False, compare=False)
    _columns: object = field(default=None, init=False, repr=False, compare=False)
    _pick: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tangents is None:
            object.__setattr__(
                self, "tangents", tuple(c.diff(0) for c in self.coords))
        table = ex.compile_exprs(self.coords + self.tangents)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_columns",
                           np.array(table.columns, dtype=np.intp).reshape(2, self.dim))
        # itemgetter of one column returns the value itself, not a tuple
        object.__setattr__(self, "_pick", tuple(
            operator.itemgetter(*cols) if len(cols) > 1
            else (lambda row, cols=cols: tuple(row[c] for c in cols))
            for cols in self._columns.tolist()))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _param(self, u: float) -> float:
        """The expressions' parameter at u: the one place the span maps it."""
        t0, t1 = self.span
        return t0 + (t1 - t0) * u

    def _row(self, u: float) -> tuple:
        """The table's values at u, then its constants."""
        return self._table((self._param(u),)) + self._table.constants

    def nodes(self, us) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and tangents at each u of `us`, as two (k, dim) arrays."""
        flat = np.fromiter(itertools.chain.from_iterable([self._row(u) for u in us]), float)
        rows = flat.reshape(len(us), -1).take(self._columns, axis=1)
        return rows[:, 0], (self.span[1] - self.span[0]) * rows[:, 1]

    def point(self, u: float) -> np.ndarray:
        return np.array(self._pick[0](self._row(u)))

    def tangent(self, u: float) -> np.ndarray:
        return (self.span[1] - self.span[0]) * np.array(self._pick[1](self._row(u)))

    def sub(self, u0: float, u1: float) -> "Segment":
        """The piece of this segment over its parameter range [u0, u1];
        nothing is compiled."""
        piece = copy.copy(self)
        object.__setattr__(piece, "span", (self._param(u0), self._param(u1)))
        return piece

    def reversed(self) -> "Segment":
        flip = ex.sub(ex.const(1.0), _T)
        t0, t1 = self.span
        return Segment(tuple(ex.substitute(c, 0, flip) for c in self.coords),
                       span=(1.0 - t1, 1.0 - t0))


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


def trig_loop(base, radius: float, rng: np.random.Generator) -> PathSpec:
    """Smooth random loop: trigonometric coordinates with amplitude <= radius."""
    if radius <= 0:
        raise MetricError("loop radius must be positive")
    base = np.asarray(base, dtype=float)
    two_pi = 2.0 * np.pi
    coords = []
    amps = rng.uniform(-1.0, 1.0, size=(len(base), _HARMONICS, 2))
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
        segs.append(Segment(coords, span=seg.span))
    return PathSpec(tuple(segs))


def lift_loop(path: PathSpec, s_expr: ex.Expr | None = None,
              q_expr: ex.Expr | None = None) -> PathSpec:
    """Embed a chart path into ambient coordinates with s(t), q(t) profiles.

    The profiles are global in the path parameter; each segment of the base
    path occupies an equal sub-interval, over the segment's own parameter u.
    """
    k = len(path.segments)
    if s_expr is None:
        s_expr = ex.const(0.0)
    if q_expr is None:
        q_expr = ex.const(1.0)
    segs = []
    for idx, seg in enumerate(path.segments):
        # global parameter (idx + u)/k, with u = (t - t0)/(t1 - t0) in [0, 1]
        t0, t1 = seg.span
        u = ex.div(ex.sub(_T, ex.const(t0)), ex.const(t1 - t0))
        glob = ex.div(ex.add(ex.const(float(idx)), u), ex.const(float(k)))
        s_loc = ex.substitute(s_expr, 0, glob)
        q_loc = ex.substitute(q_expr, 0, glob)
        segs.append(Segment((s_loc,) + seg.coords + (q_loc,), span=seg.span))
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
        the nodes share one batched order-3 stack.  A batch with nodes on
        both sides is split by the s == 0 mask."""
        points = np.asarray(points, dtype=float)
        tangents = np.asarray(tangents, dtype=float)
        on = points[:, 0] == 0.0
        if on.all():
            return self.geom.omega(points, tangents, connection_at(self.spec, points[:, 1:-1]))
        if not on.any():
            return self.geom.omega(points, tangents)
        out = np.empty((len(points), self.fiber_dim, self.fiber_dim))
        try:
            out[on] = self.omega_nodes(points[on], tangents[on])
            out[~on] = self.omega_nodes(points[~on], tangents[~on])
        except MetricError:
            # raise what the unsplit batch raises: the split must not change
            # which bad row an error names
            self.geom.omega(points, tangents)
            raise
        return out

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
        tangents = np.asarray(tangents, dtype=float)
        return _christoffel_matrices(connection_at(self.spec, points).Gamma,
                                     tangents[:, None, :])[:, 0]

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return connection_at(self.spec, point).g

    def curvature_pairs(self, point) -> np.ndarray:
        stack = stack_at(self.spec, point)
        return stack.Riem.transpose(1, 2, 0, 3)  # [i,j,l,k] = R^l_{ijk}


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


def _integrate(oracle, lanes, V: np.ndarray, tol: float) -> np.ndarray:
    """DP5(4) over the segments of every lane in lockstep, one connection
    matrix per distinct node.

    Lane l carries the (fiber, k) array V[l] over the segments lanes[l], each
    with its own t, h, error scale and accept/reject decision.  Omega
    depends only on t, so the stage with c7 = c6 = 1 reuses stage 6, an
    accepted step's last node (t + 1.0*h, bit for bit the new t) is the
    next step's first, and a rejected step keeps its first node.  A
    segment's first node goes through `oracle.omega`; each round, the five
    new nodes of every lane still running, known before any stage is
    computed, go through one `oracle.omega_nodes` call, with their points
    and tangents concatenated from the (5, dim) arrays of `Segment.nodes`,
    and the stages run on (lanes, fiber, k) stacks.  Stacking only
    batches the arithmetic, so each lane ends bit for bit where it would
    alone.
    """
    min_h = 1e-10
    fiber = oracle.fiber_dim
    V = V.copy()
    seg_index = [0] * len(lanes)
    t, h, scale_ref, first = ([None] * len(lanes) for _ in range(4))

    def begin(lane):  # start the lane's current segment
        seg = lanes[lane][seg_index[lane]]
        t[lane], h[lane] = 0.0, 0.1
        scale_ref[lane] = max(1.0, float(np.max(np.abs(V[lane]))))
        # Omega at the step's first node
        first[lane] = oracle.omega(seg.point(0.0), seg.tangent(0.0))

    for lane in range(len(lanes)):
        begin(lane)
    new_cs = _DP_C[1:6].tolist()
    active = list(range(len(lanes)))
    while active:
        points, tangents = [], []  # (5, dim) arrays of every lane's new nodes
        for lane in active:
            h[lane] = min(h[lane], 1.0 - t[lane])
            lane_points, lane_tangents = lanes[lane][seg_index[lane]].nodes(
                [t[lane] + c * h[lane] for c in new_cs])
            points.append(lane_points)
            tangents.append(lane_tangents)
        new = oracle.omega_nodes(np.concatenate(points), np.concatenate(tangents))
        new = new.reshape(len(active), 5, fiber, fiber)
        mats = [np.stack([first[lane] for lane in active]),
                *(new[:, j] for j in range(5)), new[:, 4]]
        hs = np.array([h[lane] for lane in active])[:, None, None]
        v = V[active]
        ks = []
        for stage, mat in enumerate(mats):
            y = v
            for a, k in zip(_DP_A[stage], ks):
                y = y + hs * a * k
            ks.append(-(mat @ y))
        v5 = v + hs * sum(b * k for b, k in zip(_DP_B5, ks))
        v4 = v + hs * sum(b * k for b, k in zip(_DP_B4, ks))
        errs = np.max(np.abs(v5 - v4), axis=(1, 2)).tolist()
        peaks = np.max(np.abs(v5), axis=(1, 2)).tolist()
        running = []
        for row, lane in enumerate(active):
            err = errs[row] / scale_ref[lane]
            if err <= tol or h[lane] <= min_h:
                if h[lane] <= min_h and err > tol:
                    raise TransportError(f"step underflow at t={t[lane]:.6f} (err {err:.2e})")
                t[lane] += h[lane]
                V[lane] = v5[row]
                first[lane] = new[row, 4]
                scale_ref[lane] = max(scale_ref[lane], peaks[row])
            factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
            h[lane] = max(min_h, h[lane] * min(5.0, max(0.2, factor)))
            if t[lane] >= 1.0:
                seg_index[lane] += 1
                if seg_index[lane] == len(lanes[lane]):
                    continue
                begin(lane)
            running.append(lane)
        active = running
    return V


def parallel_transport(oracle, path, v0, tol: float = 1e-10) -> np.ndarray:
    """Transport the fiber vector v0 along the path; local error per step <= tol.

    v0 is one fiber vector, or a matrix whose columns are fiber vectors.
    `path` may also be a list of L paths, transported in lockstep; v0 is
    then an (L, ...) stack of such arrays, one per path, and the result is
    the (L, ...) stack of transports, each bit for bit the transport of its
    path alone.
    """
    single = isinstance(path, PathSpec)
    paths = [path] if single else list(path)
    for p in paths:
        if p.dim != oracle.point_dim:
            raise MetricError(
                f"path dimension {p.dim} != oracle point dimension {oracle.point_dim}")
    fiber = oracle.fiber_dim
    v = np.asarray(v0, dtype=float)
    if single:
        v = v[np.newaxis]
    if v.ndim not in (2, 3) or v.shape[:2] != (len(paths), fiber):
        lead = "" if single else f"{len(paths)}, "
        raise MetricError(f"fiber vectors must have shape ({lead}{fiber},) or "
                          f"({lead}{fiber}, k), not {np.shape(v0)}")
    cols = 1 if v.ndim == 2 else v.shape[2]
    V = _integrate(oracle, [p.segments for p in paths], v.reshape(len(paths), fiber, cols), tol)
    V = V.reshape(v.shape)
    return V[0] if single else V


def transport_matrix(oracle, path: PathSpec, tol: float = 1e-10) -> np.ndarray:
    """Full transport operator: columns are transported basis vectors."""
    return parallel_transport(oracle, path, np.eye(oracle.fiber_dim), tol)

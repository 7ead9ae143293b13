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
    curvature_pairs(points) -> (k, point_dim, point_dim, fiber_dim,
                   fiber_dim) stack of curvature matrices R[a, b] at k
                   points, given as a (k, point_dim) stack, for holonomy
                   generator harvesting.
Each row of `omega_nodes` equals the `omega` call at that node exactly, and
each row of `curvature_pairs` the call on that point alone.

Transport solves vdot = -Omega(gamma(t), gammadot(t)) v with an adaptive
embedded Dormand-Prince 8(5,3) step (DOP853).  Omega depends only on t, so
each distinct node time costs one connection matrix: a segment's first
node goes through `omega`, and the eleven new nodes of each step attempt
through `omega_nodes`.  Every transport goes through `parallel_transport`, which
also takes a list of paths and integrates them in lockstep: each path
keeps its own step control, and each round makes one `omega_nodes` call
over the new nodes of every path still running.  Transports chained over
consecutive sub-paths equal the transport of the whole path exactly, and
a path transported in a list equals its transport alone exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .ambient import AmbientGeometry
from .curvature import _christoffel_matrices, compute_stack, connection_at, stack_at
from .metric import MetricError, MetricSpec, metric_jet
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

    Coordinates, then tangents, are compiled together, once, on
    construction, into one `expr.compile_exprs` table.  `span` = (t0, t1)
    restricts the segment to that range of the expressions' parameter:
    `point(u)` is the coordinates at t0 + (t1 - t0) u and `tangent(u)`
    their derivative there, scaled by t1 - t0.  `sub` cuts such a piece
    out of a segment and shares its compiled table.  `nodes` evaluates
    many u at once into (k, dim) arrays of points and tangents, slices of
    the table's rows with the scale applied as one array product, and
    `point` and `tangent` read one row of `nodes`.
    """

    coords: tuple  # tuple of Expr in Var(0)
    tangents: tuple = field(default=None)
    span: tuple = (0.0, 1.0)
    _table: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tangents is None:
            object.__setattr__(
                self, "tangents", tuple(c.diff(0) for c in self.coords))
        object.__setattr__(self, "_table", ex.compile_exprs(self.coords + self.tangents))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _param(self, u: float) -> float:
        """The expressions' parameter at u: the one place the span maps it."""
        t0, t1 = self.span
        return t0 + (t1 - t0) * u

    def nodes(self, us) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates and tangents at each u of `us`, as two (k, dim) arrays."""
        rows = self._table.rows([(self._param(u),) for u in us])
        return rows[:, :self.dim], (self.span[1] - self.span[0]) * rows[:, self.dim:]

    def point(self, u: float) -> np.ndarray:
        return self.nodes((u,))[0][0]

    def tangent(self, u: float) -> np.ndarray:
        return self.nodes((u,))[1][0]

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
        segs.append(Segment((s_loc,) + seg.coords + (q_loc,),
                            (s_loc.diff(0),) + seg.tangents + (q_loc.diff(0),), seg.span))
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

    name = "tractor-induced"

    def __init__(self, spec: MetricSpec, variant: str = "induced"):
        if variant != "induced":
            raise ValueError(f"unknown tractor variant {variant!r}")
        self.spec = spec
        self.point_dim = spec.n
        self.fiber_dim = spec.n + 2

    def omega_nodes(self, points, tangents) -> np.ndarray:
        return connection_matrix(connection_at(self.spec, points), tangents)

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return tractor_metric(connection_at(self.spec, point).g)

    def curvature_pairs(self, points) -> np.ndarray:
        # one `stack_at` per point: perfbench's stack latencies sample these calls
        return np.stack([curvature_all_pairs(stack_at(self.spec, x)) for x in points])


class AmbientOracle:
    """Lifted ambient connection over (s, x, q) points.

    `AmbientGeometry.omega` picks each node's data: the order-2
    `connection_at` on the slice s = 0, the order-3 one off it.
    """

    name = "ambient"

    def __init__(self, spec: MetricSpec):
        self.geom = AmbientGeometry(spec)
        self.point_dim = spec.n + 2
        self.fiber_dim = spec.n + 2
        self.spec = spec

    def omega_nodes(self, points, tangents) -> np.ndarray:
        return self.geom.omega(points, tangents)

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return self.geom.metric(point)

    def curvature_pairs(self, points) -> np.ndarray:
        return self.geom.curvature_all_pairs(points)


def _positive_q(points) -> np.ndarray:
    """The q column of a (k, n+2) stack of points, each q checked to be > 0."""
    q = points[:, -1]
    if not np.all(q > 0):  # NaN fails the test too
        raise MetricError("crude connection requires q > 0")
    return q


def _gauge(M, q) -> np.ndarray:
    """L^{-1} M L for L = diag(1/q, Id_n, 1/q), each point's q on its matrices.

    M is a (k, ..., n+2, n+2) stack and q the (k,) values: rows 0 and n+1
    are multiplied by q, and columns 0 and n+1 divided by q.
    """
    q = np.reshape(q, (-1,) + (1,) * (M.ndim - 1))
    M = M.copy()
    M[..., [0, -1], :] *= q
    M[..., :, [0, -1]] /= q
    return M


class CrudeOracle:
    """Crude alternative connection over (s, x, q) points: the tractor
    connection in the gauge L = diag(1/q, Id_n, 1/q), plus b/q on the
    tangent diagonal along u = (a, U, b) (the identity is proved in the
    `ambient` module).  So its curvature is the gauged tractor curvature,
    and the fiber metric it preserves is tractor_metric(q^2 g).
    """

    name = "crude"

    def __init__(self, spec: MetricSpec):
        self.tractor = TractorOracle(spec)
        self.point_dim = spec.n + 2
        self.fiber_dim = spec.n + 2
        self.spec = spec

    def omega_nodes(self, points, tangents) -> np.ndarray:
        points, tangents = np.asarray(points, dtype=float), np.asarray(tangents, dtype=float)
        q = _positive_q(points)
        Omega = _gauge(self.tractor.omega_nodes(points[:, 1:-1], tangents[:, 1:-1]), q)
        Omega[:, 1:-1, 1:-1] += (tangents[:, -1] / q)[:, None, None] * np.eye(self.spec.n)
        return Omega

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        q = _positive_q(point[None])[0]
        return tractor_metric(q * q * connection_at(self.spec, point[1:-1]).g)

    def curvature_pairs(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        q = _positive_q(points)
        dim = self.point_dim
        R = np.zeros((len(points), dim, dim, dim, dim))
        R[:, 1:-1, 1:-1] = _gauge(self.tractor.curvature_pairs(points[:, 1:-1]), q)
        return R


class LeviCivitaOracle:
    """Plain Levi-Civita connection on TM; fiber dimension n."""

    name = "levi-civita"

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.point_dim = spec.n
        self.fiber_dim = spec.n

    def omega_nodes(self, points, tangents) -> np.ndarray:
        tangents = np.asarray(tangents, dtype=float)
        return _christoffel_matrices(connection_at(self.spec, points).Gamma,
                                     tangents[:, None, :])[:, 0]

    omega = _omega_at_node

    def fiber_metric(self, point) -> np.ndarray:
        return connection_at(self.spec, point).g

    def curvature_pairs(self, points) -> np.ndarray:
        Riem = compute_stack(metric_jet(self.spec, points)).Riem
        return Riem.transpose(0, 2, 3, 1, 4)  # [., i,j,l,k] = R^l_{ijk}


# -- integrator ------------------------------------------------------------------

# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett and Wanner, Solving Ordinary
# Differential Equations I, sec. II.10): the nodes _C and the rows _A of its 12
# stages, the 8th-order weights _B, and the weights _E5 and _E3 of its 5th- and
# 3rd-order error estimates; the 13th (FSAL) stage of the published pair weighs
# nothing in either estimate and is not computed.  The literals are copied from
# SciPy's scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause license;
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), and _E3 is
# formed the same way as there, as _B minus three corrections.  Each row of _A and
# each weight vector is a (1, s) matrix, for the stage sums over the (lanes, s,
# fiber*cols) stack of stage derivatives.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0
])
_A = [np.array([row]) for row in (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)]
_B = np.array([[
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2
]])
_E3 = _B - np.array([[
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1
]])
_E5 = np.array([[
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1
]])


def _integrate(oracle, lanes, V: np.ndarray, tol: float) -> np.ndarray:
    """DOP853 over the segments of every lane in lockstep, one connection
    matrix per distinct node.

    Lane l carries the (fiber, k) array V[l] over the segments lanes[l], each
    with its own t, h, error scale and accept/reject decision.  Omega
    depends only on t, so an accepted step's last node (c = 1: t + 1.0*h,
    bit for bit the new t) is the next step's first, and a rejected step
    keeps its first node.  A segment's first node goes through
    `oracle.omega`; each round, the eleven new nodes of every lane still
    running, known before any stage is computed, go through one
    `oracle.omega_nodes` call, with their points and tangents concatenated
    from the (11, dim) arrays of `Segment.nodes`, and the stages run on
    (lanes, fiber, k) stacks.  A step's error is h e5^2 / sqrt(e5^2 +
    0.01 e3^2), where e5 and e3 are the max-norms of the two error
    estimates over the lane's error scale.  Stacking only batches the
    arithmetic, and each stage sum is one lane's (1, s) @ (s, fiber*k)
    product, so each lane ends bit for bit where it would alone.
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
        point, tangent = seg.nodes((0.0,))
        first[lane] = oracle.omega(point[0], tangent[0])

    for lane in range(len(lanes)):
        begin(lane)
    new_cs = _C[1:].tolist()
    stages = len(_C)
    active = list(range(len(lanes)))
    while active:
        points, tangents = [], []  # (11, dim) arrays of every lane's new nodes
        for lane in active:
            h[lane] = min(h[lane], 1.0 - t[lane])
            lane_points, lane_tangents = lanes[lane][seg_index[lane]].nodes(
                [t[lane] + c * h[lane] for c in new_cs])
            points.append(lane_points)
            tangents.append(lane_tangents)
        new = oracle.omega_nodes(np.concatenate(points), np.concatenate(tangents))
        new = new.reshape(len(active), stages - 1, fiber, fiber)
        hs = np.array([h[lane] for lane in active])[:, None, None]
        v = V[active]
        ks = np.empty((len(active), stages) + v.shape[1:])
        flat = ks.reshape(len(active), stages, -1)  # a view: row s is stage s
        ks[:, 0] = -(np.stack([first[lane] for lane in active]) @ v)
        for stage in range(1, stages):
            y = v + hs * (_A[stage - 1] @ flat[:, :stage]).reshape(v.shape)
            ks[:, stage] = -(new[:, stage - 1] @ y)
        v8 = v + hs * (_B @ flat).reshape(v.shape)
        e5s = np.max(np.abs(_E5 @ flat), axis=(1, 2)).tolist()
        e3s = np.max(np.abs(_E3 @ flat), axis=(1, 2)).tolist()
        peaks = np.max(np.abs(v8), axis=(1, 2)).tolist()
        running = []
        for row, lane in enumerate(active):
            e5, e3 = e5s[row] / scale_ref[lane], e3s[row] / scale_ref[lane]
            denom = e5 * e5 + 0.01 * e3 * e3
            err = h[lane] * e5 * e5 / denom ** 0.5 if denom > 0 else 0.0
            if err <= tol or h[lane] <= min_h:
                if h[lane] <= min_h and err > tol:
                    raise TransportError(f"step underflow at t={t[lane]:.6f} (err {err:.2e})")
                t[lane] += h[lane]
                V[lane] = v8[row]
                first[lane] = new[row, -1]
                scale_ref[lane] = max(scale_ref[lane], peaks[row])
            factor = 0.9 * (tol / err) ** 0.125 if err > 0 else 5.0
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

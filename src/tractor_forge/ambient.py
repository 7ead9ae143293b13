"""Ambient manifold R x M x R+ with its metric, connection, and torsion.

Points are (n+2)-vectors (s, x_1..x_n, q) with q > 0.  Tangent vectors in
the coordinate basis (S = d/ds, d/dx_i, Q = d/dq) are (n+2)-vectors
(a, V, b).  The bundle map m = s*Psharp + q*Id identifies coordinate
tangent vectors with lifted base fields: V corresponds to the lift of
m(V), and f = m^{-1} lifts a base vector X to X~ = f(X).

Connection rules, for base fields X, Y and the lift tilde:
    nabla_X Y~ = (nabla_X Y)~ - g(X,Y) S - P(X,Y) Q
    nabla_X Q = X~,  nabla_X S = (P(X))~,
    nabla_Q X = X~,  nabla_S X = (P(X))~,
all other S and Q derivatives zero.  Along a curve the covariant
derivative acts as D_t v = vdot + Omega(point, tangent) v, so parallel
transport solves vdot = -Omega v.

The crude connection of the alternative construction keeps q explicit:
    nabla_X Y = nabla_X Y - q g(X,Y) S - q P(X,Y) Q,
    nabla_X Q = X/q,  nabla_X S = P(X)/q,  nabla_Q X = X/q,  nabla_S X = 0.

Both are the normal tractor connection Omega_T in a point-dependent gauge
(the gauge law of Bailey, Eastwood and Gover; see docs/conventions.md),
and both are built that way from `tractor.connection_matrix`.  With
u = (a, U, b), G = diag(1, f, 1) and L = diag(1/q, Id_n, 1/q),
    Omega(u) = G Omega_T(U) G^{-1} + G d(G^{-1})(u),
    Omega_crude(u) = L^{-1} Omega_T(U) L + L^{-1} dL(u) + (b/q) Id,
where d(G^{-1})(u) = diag(0, dm(u), 0) with dm(u) = a*Psharp + b*Id +
s*dPsharp(U), and (b/q) Id = d(log q)(u) Id is closed.  The ambient metric
is the tractor metric in the same gauge, tractor_metric(m^T g m).  So the
exact curvatures are G R_T G^{-1} and L^{-1} R_T L on chart-chart pairs
and 0 on every pair with S or Q; the crude connection preserves
tractor_metric(q^2 g), is regular for all q > 0, and coincides with the
ambient one on the slice q = 1, s = 0.

The curvature R[a, b] of the ambient connection differentiates its
connection matrices by a finite-difference stencil (`curvature_from_omega`)
and assembles them by the formula the tractor curvature also uses,
`curvature.connection_curvature`.  The stencils run in chunks of whole
base points, at most `_NODE_CHUNK` stencil rows a chunk, with one
`connection_at` row per distinct chart point: a base point's centre, S-
and Q-shifted rows share its chart point.  The Ricci tensor is its trace,
Ric(u, v) = tr(w -> R(w, u) v).  Every evaluator also takes stacks of
points and of directions (see `AmbientGeometry`), each row equal to its
one-point call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .curvature import CurvatureStack, _repeat_rows, connection_at, connection_curvature
from .metric import ChartDomainError, MetricError, MetricSpec
from .tractor import connection_matrix, tractor_metric

__all__ = [
    "SingularMapError",
    "AmbientGeometry",
    "ambient_point",
    "curvature_from_omega",
]

_FD_STEP = 2e-3
# Rows per batched connection evaluation: transport's node batches and the
# FD stencil's chunks, whose jets would otherwise all be held at once.  Rows
# are independent, so the chunks change no value.
_NODE_CHUNK = 128
_DET_TOL = 1e-10  # |det m| at or below this counts as a singular bundle map
_SCALES = (0.5, 2.0)  # the dilations t of phi_t that `homogeneity_checks` tests


class SingularMapError(MetricError):
    """The bundle map s*Psharp + q*Id is singular at the requested point.

    Carries the offending Psharp eigenvalue(s) and a description of the
    singular locus, the ray family R+({1} x M x {-1/eigenvalue}).
    """

    def __init__(self, point, eigenvalues):
        self.point = np.asarray(point, dtype=float)
        self.eigenvalues = [float(ev) for ev in np.atleast_1d(eigenvalues)]
        ev_text = ", ".join(f"{ev:g}" for ev in self.eigenvalues)
        self.singular_locus = (
            "rays R+((1, x, -1/lambda)) for Psharp eigenvalues lambda in {" + ev_text + "}"
        )
        s, q = float(self.point[0]), float(self.point[-1])
        super().__init__(
            f"bundle map s*Psharp + q*Id singular at (s={s:g}, q={q:g}): "
            f"-s/q matches 1/eigenvalue for Psharp eigenvalue(s) {ev_text}; "
            f"singular locus {self.singular_locus}"
        )


def ambient_point(s, x, q) -> np.ndarray:
    """(s, x, q); for a (k, n) stack x, one row per point, s and q broadcast."""
    x = np.asarray(x, dtype=float)
    p = np.empty(x.shape[:-1] + (x.shape[-1] + 2,))
    p[..., 0], p[..., 1:-1], p[..., -1] = s, x, q
    return p


def _per_point(a, p, u) -> np.ndarray:
    """a, one array per point of p, with an axis added for the directions
    when u holds several at each point (p and u batched as in `omega`)."""
    a, lead = np.asarray(a), np.ndim(p) - 1  # 1 for a stack of points
    return a.reshape(np.shape(p)[:lead] + (1,) * (np.ndim(u) - 1 - lead) + a.shape[lead:])


def _stencil(points: np.ndarray, dim: int, h: float) -> np.ndarray:
    """For each of the (k, dim) points: the point, then point + j h e_a for a
    in range(dim) and j in (-2, -1, 1, 2); a (k, 1 + 4 dim, dim) array."""
    stencil = np.repeat(points[:, None], 1 + 4 * dim, axis=1)
    for a in range(dim):
        for i, j in enumerate((-2, -1, 1, 2)):
            stencil[:, 1 + 4 * a + i, a] += j * h
    return stencil


def curvature_from_omega(omega_fn, point, dim: int, h: float = _FD_STEP) -> np.ndarray:
    """R[a,b] = d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b] for all pairs.

    Coordinate partials of the connection matrices use 4th-order central
    differences with step `h`, and `connection_curvature` assembles R from
    them.  `point` is one point or a (k, dim) stack of points, and the
    result is (dim, dim, fiber, fiber) or (k, dim, dim, fiber, fiber).
    `omega_fn(points, directions)` is called once, with the (m, dim) stack
    of the m = k (1 + 4 dim) stencil points and an (m, dim, dim) stack of
    the coordinate directions at each, and must return their (m, dim,
    fiber, fiber) connection matrices; each row of the result is then the
    one-point result of its point.
    """
    point = np.asarray(point, dtype=float)
    points = _stencil(point.reshape(-1, dim), dim, h)
    k, m = points.shape[:2]
    omegas = omega_fn(points.reshape(k * m, dim), np.broadcast_to(np.eye(dim), (k * m, dim, dim)))
    fiber = omegas.shape[-1]
    omegas = omegas.reshape(k, m, dim, fiber, fiber)
    shifts = omegas[:, 1:].reshape(k, dim, 4, dim, fiber, fiber)  # [., a, j, c] at j*h*e_a
    # [., a, c] = d_a Omega_c
    dOmega = (-shifts[:, :, 3] + 8 * shifts[:, :, 2] - 8 * shifts[:, :, 1]
              + shifts[:, :, 0]) / (12 * h)
    R = connection_curvature(omegas[:, 0], dOmega)
    return R.reshape(point.shape[:-1] + R.shape[1:])


def _gather(parts, rows) -> SimpleNamespace:
    """The fields `AmbientGeometry.omega` reads (g, P, Psharp, Gamma and
    dPsharp) at `rows` of the batched connection data `parts`, laid end to
    end.  dPsharp is zero on the rows of an order-2 part: `omega` reads it
    off the slice only, where the data is of order 3."""
    fields = {name: np.concatenate([getattr(d, name) for d in parts])[rows]
              for name in ("g", "P", "Psharp", "Gamma")}
    fields["dPsharp"] = np.concatenate([np.zeros_like(d.Gamma) if d.dPsharp is None
                                        else d.dPsharp for d in parts])[rows]
    return SimpleNamespace(**fields)


@dataclass
class AmbientGeometry:
    """Point-wise evaluators for the ambient construction over one metric.

    Each takes one point or a (k, n+2) stack, the caller's curvature data
    `stack` batched like it, and its vectors batched, and broadcast, as u is
    in `omega`; each row of a batched call equals the call on its row
    alone, bit for bit.  Only `metric` and `omega` build the data when no
    `stack` is given."""

    spec: MetricSpec

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def dim(self) -> int:
        return self.spec.n + 2

    # -- the bundle map and metric -------------------------------------------

    def f_map(self, p, stack):
        """(f, m) with m = s*Psharp + q*Id and f = m^{-1}; raises when singular.

        For a stack of points f and m are (k, n, n) stacks.  Only g and
        Psharp are read, so an order-2 `ConnectionPoint` serves as well as
        a full stack.  A non-finite s, or a q that is not finite and > 0,
        lies outside the domain R x M x R+ (`ChartDomainError`); next, a
        point whose det m or m^T g m overflows cannot be represented
        (`MetricError`); then comes the singularity check.  A stack raises
        the error of its first bad row, in that order of checks, as that
        row's own call would.
        """
        return self._bundle_map(p, stack)[:2]

    def _bundle_map(self, p, stack):
        """`f_map`'s (f, m) and the block m^T g m, which its overflow check
        computes and `metric` reads; batched like f and m."""
        p = np.asarray(p, dtype=float)
        points = p.reshape(-1, self.dim)
        inside = np.isfinite(points[:, [0, -1]]).all(axis=1) & (points[:, -1] > 0.0)
        if not inside.all():
            bad = points[np.argmin(inside)]
            raise ChartDomainError(f"ambient point {bad.tolist()} outside the domain: "
                                   "s and q must be finite, and q > 0")
        n = self.n
        Psharp = np.reshape(stack.Psharp, (len(points), n, n))
        m = points[:, 0, None, None] * Psharp + points[:, -1, None, None] * np.eye(n)
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(m)
            block = np.swapaxes(m, -2, -1) @ np.reshape(stack.g, m.shape) @ m
        finite = np.isfinite(det) & np.isfinite(block).all(axis=(1, 2))
        if not finite.all():
            bad = points[np.argmin(finite)]
            raise MetricError(f"ambient point {bad.tolist()} cannot be represented: "
                              "det m or m^T g m of the bundle map m overflows")
        singular = np.abs(det) <= _DET_TOL
        if singular.any():
            row = int(np.argmax(singular))
            s, q = points[row, 0], points[row, -1]
            evals = np.real_if_close(np.linalg.eigvals(Psharp[row]), tol=1e6)
            bad = [ev for ev in evals if abs(s * ev + q) <= 1e-6 * max(1.0, abs(q))]
            raise SingularMapError(points[row], bad if bad else evals)
        f = np.linalg.inv(m)
        return (f, m, block) if p.ndim == 2 else (f[0], m[0], block[0])

    def lift(self, p, X, stack) -> np.ndarray:
        """Lift of a base vector X: the ambient vector (0, f(X), 0)."""
        p, X = np.asarray(p, dtype=float), np.asarray(X, dtype=float)
        v = np.zeros(X.shape[:-1] + (self.dim,))
        v[..., 1:-1] = (_per_point(self.f_map(p, stack)[0], p, X) @ X[..., None])[..., 0]
        return v

    def metric(self, p, stack: CurvatureStack | None = None) -> np.ndarray:
        """Ambient metric h = tractor_metric(m^T g m) in the coordinate basis
        (S, d_i, Q); reads g and Psharp."""
        p = np.asarray(p, dtype=float)
        if stack is None:
            stack = connection_at(self.spec, p[..., 1:-1])
        return tractor_metric(self._bundle_map(p, stack)[2])

    def fundamental_field(self, p) -> np.ndarray:
        """F = s S + q Q."""
        p = np.asarray(p, dtype=float)
        F = np.zeros(p.shape)
        F[..., 0], F[..., -1] = p[..., 0], p[..., -1]
        return F

    def phi(self, p, stack) -> np.ndarray:
        """Covector h(F, .); closed form q ds + s dq."""
        return (self.metric(p, stack) @ self.fundamental_field(p)[..., None])[..., 0]

    def scale_tangent(self, u, t: float) -> np.ndarray:
        """Differential of phi_t(s, x, q) = (ts, x, tq) applied to u; on a
        point, phi_t itself."""
        u = np.array(u, dtype=float)
        u[..., 0] *= t
        u[..., -1] *= t
        return u

    # -- connections -----------------------------------------------------------

    def omega(self, p, u, stack: CurvatureStack | None = None) -> np.ndarray:
        """Connection matrix for direction u = (a, U, b): D_t v = vdot + Omega v.

        p is one point or a (k, n+2) stack of points (with `stack`, if given,
        batched like it).  At one point u is one direction or a (c, n+2)
        stack; at k points it is one direction per point, (k, n+2), or
        (k, c, n+2).  The result has shape u.shape[:-1] + (n+2, n+2), and
        each matrix equals the one for its point and direction alone.

        Without a `stack`, points on the slice s = 0 read the order-2
        `connection_at` data, and points off it the order-3 `connection_at`
        with dPsharp along the chart part U of their own directions, which is
        all the s*dPsharp(U) term needs; several directions at a point off the
        slice go in as one row each, so that each reads its own.  A batch with
        points on both sides is evaluated in those two parts and raises the
        error of its first bad row, as that row's own call would.  A caller's
        `stack` carries the full dPsharp, contracted with U here.
        """
        p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
        points = p.reshape(-1, self.dim)
        dirs = u.reshape(len(points), -1, self.dim)
        k, n = len(points), self.n
        dPsharp_U = None  # set when omega builds its order-3 data along U
        if stack is None:
            on = points[:, 0] == 0.0
            if on.any() and not on.all():
                return self._omega_in_parts(p, u, on)
            if on.all():
                stack = connection_at(self.spec, p[..., 1:-1])
            elif dirs.shape[1] > 1:  # a row per direction
                rows = np.repeat(points, dirs.shape[1], axis=0)
                return self.omega(rows, dirs.reshape(-1, self.dim)).reshape(
                    u.shape[:-1] + (self.dim, self.dim))
            else:
                stack = connection_at(self.spec, p[..., 1:-1], order=3,
                                      directions=dirs[..., 1:-1])
                dPsharp_U = np.reshape(stack.dPsharp, (k, 1, n, n))
        s = points[:, 0]
        a, U, b = dirs[..., 0, None, None], dirs[..., 1:-1], dirs[..., -1, None, None]
        f, m = (arr.reshape(k, 1, n, n) for arr in self.f_map(points, stack))
        # G (Omega_T(U) G^-1 + d(G^-1)(u)) with G = diag(1, f, 1), G^-1 = diag(1, m, 1)
        Omega = connection_matrix(stack, U)
        Omega[..., :, 1:-1] = Omega[..., :, 1:-1] @ m
        dm = a * np.reshape(stack.Psharp, (k, 1, n, n)) + b * np.eye(n)
        off = s != 0.0
        if dPsharp_U is not None:
            dm = dm + s[:, None, None, None] * dPsharp_U
        elif off.any():
            # dPsharp(U)[i,j] = U^k d_k Psharp^i_j: one (1, n) @ (n, n*n) product per direction
            dPsharp, U_off = np.reshape(stack.dPsharp, (k, 1, n, n * n))[off], U[off]
            dm[off] = dm[off] + s[off, None, None, None] * (
                U_off[..., None, :] @ dPsharp).reshape(U_off.shape + (n,))
        Omega[..., 1:-1, 1:-1] += dm
        Omega[..., 1:-1, :] = f @ Omega[..., 1:-1, :]
        return Omega.reshape(u.shape[:-1] + (self.dim, self.dim))

    def _omega_in_parts(self, points, dirs, on) -> np.ndarray:
        """`omega` of a (k, n+2) stack of points, the rows on the slice (`on`)
        and those off it each with their own data."""
        out = np.empty(dirs.shape[:-1] + (self.dim, self.dim))
        try:
            for rows in (on, ~on):
                out[rows] = self.omega(points[rows], dirs[rows])
        except MetricError:
            self._raise_first_bad_row(points, dirs)
            raise
        return out

    def _raise_first_bad_row(self, points, dirs) -> None:
        """`omega` row by row, so the first bad row raises its own error."""
        for point, d in zip(points, dirs):
            self.omega(point, d)

    def covariant_derivative(self, p, u, w, dw, stack) -> np.ndarray:
        """D_u w for an ambient vector w with directional component derivative dw."""
        u = np.asarray(u, dtype=float)
        w = np.broadcast_to(np.asarray(w, dtype=float), u.shape)
        return (self.omega(p, u, stack) @ w[..., None])[..., 0] + np.asarray(dw, dtype=float)

    # -- torsion ----------------------------------------------------------------

    def torsion_terms(self, p, u, w, stack) -> tuple:
        """(Omega(u) w, Omega(w) u) for coordinate-constant directions: one
        `omega` call on the directions of u and w together."""
        u, w = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(w, dtype=float))
        Om = self.omega(p, np.stack([u, w], axis=-2), stack)
        return (Om[..., 0, :, :] @ w[..., None])[..., 0], (Om[..., 1, :, :] @ u[..., None])[..., 0]

    def torsion(self, p, u, w, stack) -> np.ndarray:
        """T(u, w) = Omega(u) w - Omega(w) u for coordinate-constant
        directions, from the rules alone."""
        uw, wu = self.torsion_terms(p, u, w, stack)
        return uw - wu

    def torsion_closed_form(self, p, X, Y, stack: CurvatureStack) -> np.ndarray:
        """s * (lift of CYsharp(X, Y)); the independent oracle for torsion."""
        p, X = np.asarray(p, dtype=float), np.asarray(X, dtype=float)
        cy = np.einsum("...ijk,...i,...j->...k", _per_point(stack.CYsharp, p, X), X, Y)
        return _per_point(p[..., :1], p, X) * self.lift(p, cy, stack)

    def torsion_lowered(self, p, u, w, z, stack):
        """T*(u, w, z) = h(T(u, w), z): a float, or an array for batched input."""
        p = np.asarray(p, dtype=float)
        T = self.torsion(p, u, w, stack)
        h = _per_point(self.metric(p, stack), p, T)
        low = (T[..., None, :] @ h @ np.asarray(z, dtype=float)[..., None])[..., 0, 0]
        return float(low) if low.ndim == 0 else low

    # -- curvature and Ricci ------------------------------------------------------

    def curvature_all_pairs(self, p) -> np.ndarray:
        """Finite-difference curvature R[a, b] at p, by `curvature_from_omega`.

        p is one point or a (k, n+2) stack of points, each row of the
        result equal to the one-point result.  The points go in chunks of
        as many whole stencils as fit in `_NODE_CHUNK` rows (at least one),
        one `curvature_from_omega` call a chunk, whose connection matrices
        `_stencil_omega` evaluates.
        """
        p = np.asarray(p, dtype=float)
        points = p.reshape(-1, self.dim)
        per = max(1, _NODE_CHUNK // (1 + 4 * self.dim))
        R = np.concatenate([curvature_from_omega(self._stencil_omega, points[lo:lo + per],
                                                 self.dim) for lo in range(0, len(points), per)])
        return R.reshape(p.shape[:-1] + R.shape[1:])

    def _stencil_omega(self, rows, dirs) -> np.ndarray:
        """`omega` over the rows of whole `_stencil`s, with one `connection_at`
        row per distinct chart point.

        A base point's centre, S- and Q-shifted rows share its chart point,
        which reads the order-3 data (its S-shifted rows lie off the slice);
        each chart-shifted row reads its own chart point, at order 3 off the
        slice and order 2 on it.  One `connection_at` call per order, then
        one `omega` call on every row, built from that data; each row equals
        `omega` at its point alone, and a bad row raises the error of the
        first bad row, as in `omega`.
        """
        m = 1 + 4 * self.dim
        src = np.arange(len(rows)).reshape(-1, m)  # the row whose chart point each row reads
        src[:, np.r_[1:5, m - 4:m]] = src[:, :1]
        src = src.ravel()
        order3 = np.zeros(len(rows), dtype=bool)
        order3[src[rows[:, 0] != 0.0]] = True  # read by a row off the slice
        own = src == np.arange(len(rows))
        sources = [np.flatnonzero(own & order3), np.flatnonzero(own & ~order3)]
        placed = np.concatenate(sources)
        at = np.empty(len(rows), dtype=int)  # a source row's place in the data
        at[placed] = np.arange(len(placed))
        try:
            parts = [connection_at(self.spec, rows[x, 1:-1], order=order)
                     for order, x in zip((3, 2), sources) if len(x)]
            return self.omega(rows, dirs, _gather(parts, at[src]))
        except MetricError:
            self._raise_first_bad_row(rows, dirs)
            raise

    def ricci(self, pairs: np.ndarray) -> np.ndarray:
        """Ricci matrix over the coordinate basis, Ric(u, v) = tr(w -> R(w, u) v),
        from the curvature `pairs` of `curvature_all_pairs`."""
        return np.einsum("cacb->ab", pairs)

    # -- structural checks ---------------------------------------------------------

    def default_s_bound(self, x, q=1.0):
        """Safe |s| bound 0.5*q / max|eig(Psharp)| (inf where Psharp vanishes)."""
        top = np.max(np.abs(np.linalg.eigvals(connection_at(self.spec, x).Psharp)), axis=-1)
        with np.errstate(divide="ignore"):
            bound = np.where(top < 1e-12, np.inf, 0.5 * np.asarray(q, dtype=float) / top)
        return float(bound) if bound.ndim == 0 else bound

    def homogeneity_checks(self, p, rng: np.random.Generator, stack) -> dict:
        """Degree bookkeeping under phi_t(s, x, q) = (ts, x, tq), at p and its
        dilations by `_SCALES`, the three points in one batch: the largest
        residual over the dilations of each check.  `stack` is the one-point
        stack at p's chart point, of order 3 off the slice."""
        p = np.asarray(p, dtype=float)
        stack = _repeat_rows(stack, 1 + len(_SCALES))  # a row per point
        vecs = rng.standard_normal((4, self.dim))

        def pushed(u):  # u at p, then pushed forward by each dilation
            return np.stack([u] + [self.scale_tangent(u, t) for t in _SCALES])

        pts, t = pushed(p), np.array(_SCALES)[:, None, None]
        # metric degree 2: h_t(dphi u, dphi v) = t^2 h(u, v), over all pairs
        h = self.metric(pts, stack)
        u = pushed(vecs)
        pair = (u[:, :, None, None, :] @ h[:, None, None] @ u[:, None, :, :, None])[..., 0, 0]
        rhs = t * t * pair[0]
        res_h = np.max(np.abs(pair[1:] - rhs) / np.maximum(1.0, np.abs(rhs)))
        # lowered torsion degree 2, on the pairs (u, v) of vecs[:2] x vecs[2:]
        low = self.torsion_lowered(pts, u[:, [0, 0, 1, 1]], u[:, [2, 3, 2, 3]],
                                   pushed(vecs[0] + vecs[3])[:, None], stack)
        res_t = np.max(np.abs(low[1:] - t[..., 0] * t[..., 0] * low[0]))
        # phi = h(F, .) equals q ds + s dq = d(sq) at p and its dilations, so dphi = 0
        d_sq = self.fundamental_field(pts)[:, ::-1]  # (q, 0, ..., 0, s)
        res_phi = np.max(np.abs(self.phi(pts, stack) - d_sq))
        # lifted fields have homogeneity -1: lift at phi_t(p) = (1/t) * lift at p
        lifts = self.lift(pts, np.broadcast_to(np.eye(self.n), (len(pts), self.n, self.n)), stack)
        res_lift = np.max(np.abs(lifts[1:] - lifts[0] / t))
        return {"metric_scaling": float(res_h), "torsion_scaling": float(res_t),
                "lift_homogeneity": float(res_lift), "dphi": float(res_phi)}

    def nabF_check(self, p, rng: np.random.Generator, stack) -> float:
        """max residual of nabla_u F = u over random directions u; `stack` as
        in `homogeneity_checks`."""
        u = rng.standard_normal((6, self.dim))
        dF = self.fundamental_field(u)  # coefficient derivatives of (s, 0, q)
        cov = self.covariant_derivative(p, u, self.fundamental_field(p), dF, stack)
        return float(np.max(np.abs(cov - u)))

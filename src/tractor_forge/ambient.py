"""Ambient manifold R x M x R+ with its metric, connection, and torsion.

Points are (n+2)-vectors (s, x_1..x_n, q) with q > 0.  Tangent vectors in
the coordinate basis (S = d/ds, d/dx_i, Q = d/dq) are (n+2)-vectors
(a, V, b).  The bundle map m = s*Psharp + q*Id identifies coordinate
tangent vectors with lifted base fields: V corresponds to the lift of
m(V), and f = m^{-1} lifts a base vector X to X~ = f(X).

The ambient metric pairs lifted fields to g, so its coordinate TM-block
is m^T g m; h(S,Q) = 1 and all other S,Q pairings vanish.

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
It is regular for all q > 0 and coincides with the lifted connection on
the slice q = 1, s = 0.

The curvature R[a, b] of either connection differentiates its connection
matrices by a finite-difference stencil (`curvature_from_omega`) and
assembles them by the formula the tractor curvature also uses,
`curvature.connection_curvature`.  The Ricci tensor is its trace,
Ric(u, v) = tr(w -> R(w, u) v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (CurvatureStack, _christoffel_matrices, compute_stack, connection_at,
                        connection_curvature, stack_at)
from .metric import ChartDomainError, MetricError, MetricSpec, metric_jet

__all__ = [
    "SingularMapError",
    "AmbientGeometry",
    "ambient_point",
    "split_point",
    "curvature_from_omega",
]

_FD_STEP = 2e-3
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


def ambient_point(s: float, x, q: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.concatenate(([float(s)], x, [float(q)]))


def split_point(p):
    p = np.asarray(p, dtype=float)
    return float(p[0]), p[1:-1], float(p[-1])


def _stencil(point: np.ndarray, dim: int, h: float) -> np.ndarray:
    """point, then point + k h e_a for a in range(dim) and k in (-2, -1, 1, 2)."""
    points = np.repeat(point[None], 1 + 4 * dim, axis=0)
    for a in range(dim):
        for j, k in enumerate((-2, -1, 1, 2)):
            points[1 + 4 * a + j, a] += k * h
    return points


def curvature_from_omega(omega_fn, point, dim: int, h: float = _FD_STEP) -> np.ndarray:
    """R[a,b] = d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b] for all pairs.

    Coordinate partials of the connection matrices use 4th-order central
    differences with step `h`, and `connection_curvature` assembles R from
    them.  `omega_fn(points, directions)` is called once, with the (m, dim)
    stack of the m = 1 + 4 dim stencil points and an (m, dim, dim) stack
    of the coordinate directions at each, and must return their (m, dim,
    fiber, fiber) connection matrices.
    """
    points = _stencil(np.asarray(point, dtype=float), dim, h)
    omegas = omega_fn(points, np.broadcast_to(np.eye(dim), (len(points), dim, dim)))
    fiber = omegas.shape[-1]
    shifts = omegas[1:].reshape(dim, 4, dim, fiber, fiber)  # [a, k, c] at k*h*e_a
    # [a, c] = d_a Omega_c
    dOmega = (-shifts[:, 3] + 8 * shifts[:, 2] - 8 * shifts[:, 1] + shifts[:, 0]) / (12 * h)
    return connection_curvature(omegas[0], dOmega)


@dataclass
class AmbientGeometry:
    """Point-wise evaluators for the ambient construction over one metric."""

    spec: MetricSpec

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def dim(self) -> int:
        return self.spec.n + 2

    def stack(self, x) -> CurvatureStack:
        return stack_at(self.spec, x)

    # -- the bundle map and metric -------------------------------------------

    def f_map(self, p, stack: CurvatureStack | None = None):
        """(f, m) with m = s*Psharp + q*Id and f = m^{-1}; raises when singular.

        p may be a (k, n+2) stack of points with a stack batched like it;
        f and m are then (k, n, n) stacks.  Only Psharp is read, so a
        `ConnectionPoint` serves as well as a full stack (and is the default).
        A non-finite s or q lies outside the domain (`ChartDomainError`); that
        check precedes the singularity check, and a stack raises the error of
        its first bad row, as that row's own call would.
        """
        p = np.asarray(p, dtype=float)
        if stack is None:
            stack = connection_at(self.spec, p[..., 1:-1])
        points = p.reshape(-1, self.dim)
        finite = np.isfinite(points[:, [0, -1]]).all(axis=1)
        if not finite.all():
            bad = points[np.argmin(finite)]
            raise ChartDomainError(f"ambient point {bad.tolist()} outside the domain: "
                                   "s and q must be finite")
        n = self.n
        Psharp = np.reshape(stack.Psharp, (len(points), n, n))
        m = points[:, 0, None, None] * Psharp + points[:, -1, None, None] * np.eye(n)
        singular = np.abs(np.linalg.det(m)) <= _DET_TOL
        if singular.any():
            row = int(np.argmax(singular))
            s, q = points[row, 0], points[row, -1]
            evals = np.real_if_close(np.linalg.eigvals(Psharp[row]), tol=1e6)
            bad = [ev for ev in evals if abs(s * ev + q) <= 1e-6 * max(1.0, abs(q))]
            raise SingularMapError(points[row], bad if bad else evals)
        f = np.linalg.inv(m)
        return (f, m) if p.ndim == 2 else (f[0], m[0])

    def lift(self, p, X, stack: CurvatureStack | None = None) -> np.ndarray:
        """Lift of a base vector X: the ambient vector (0, f(X), 0)."""
        f, _ = self.f_map(p, stack)
        v = np.zeros(self.dim)
        v[1:-1] = f @ np.asarray(X, dtype=float)
        return v

    def metric(self, p, stack: CurvatureStack | None = None) -> np.ndarray:
        """Ambient metric h in the coordinate basis (S, d_i, Q); reads g and Psharp."""
        s, x, q = split_point(p)
        if stack is None:
            stack = connection_at(self.spec, x)
        _, m = self.f_map(p, stack)
        h = np.zeros((self.dim, self.dim))
        h[0, -1] = h[-1, 0] = 1.0
        h[1:-1, 1:-1] = m.T @ stack.g @ m
        return h

    def fundamental_field(self, p) -> np.ndarray:
        s, x, q = split_point(p)
        F = np.zeros(self.dim)
        F[0], F[-1] = s, q
        return F

    def phi(self, p, stack: CurvatureStack | None = None) -> np.ndarray:
        """Covector h(F, .); closed form q ds + s dq."""
        return self.metric(p, stack) @ self.fundamental_field(p)

    def scale_point(self, p, t: float) -> np.ndarray:
        s, x, q = split_point(p)
        return ambient_point(t * s, x, t * q)

    def scale_tangent(self, u, t: float) -> np.ndarray:
        """Differential of (s, x, q) -> (ts, x, tq) applied to u."""
        u = np.asarray(u, dtype=float).copy()
        u[0] *= t
        u[-1] *= t
        return u

    # -- connections -----------------------------------------------------------

    def _batch(self, p, u, stack):
        """Points as (k, n+2), directions as (k, c, n+2), the stack's g, P and
        Psharp as (k, 1, n, n) arrays that broadcast over c, and its Gamma as
        a (k, n, n, n) array."""
        points = np.asarray(p, dtype=float).reshape(-1, self.dim)
        dirs = np.asarray(u, dtype=float).reshape(len(points), -1, self.dim)
        k, n = len(points), self.n
        fields = [np.reshape(arr, (k, 1, n, n)) for arr in (stack.g, stack.P, stack.Psharp)]
        fields.append(np.reshape(stack.Gamma, (k, n, n, n)))
        return points, dirs, fields

    def omega(self, p, u, stack: CurvatureStack | None = None) -> np.ndarray:
        """Connection matrix for direction u = (a, U, b): D_t v = vdot + Omega v.

        p is one point or a (k, n+2) stack of points (with `stack`, if given,
        batched like it).  At one point u is one direction or a (c, n+2)
        stack; at k points it is one direction per point, (k, n+2), or
        (k, c, n+2).  The result has shape u.shape[:-1] + (n+2, n+2), and
        each matrix equals the one for its point and direction alone.

        Without a `stack`, points on the slice s = 0 read the order-2
        `connection_at` data, and points off it the order-3 stack that the
        s*dPsharp term needs: `stack_at` for one point, one batched
        `compute_stack` for many.  A batch with points on both sides is
        evaluated in those two parts and raises the error of its first bad
        row, as that row's own call would.
        """
        p = np.asarray(p, dtype=float)
        if stack is None:
            on = p[..., 0] == 0.0
            if on.all():
                stack = connection_at(self.spec, p[..., 1:-1])
            elif not on.any():
                stack = (self.stack(p[1:-1]) if p.ndim == 1
                         else compute_stack(metric_jet(self.spec, p[:, 1:-1])))
            else:
                return self._omega_in_parts(p, np.asarray(u, dtype=float), on)
        points, dirs, (g, P, Psharp, Gamma) = self._batch(p, u, stack)
        k, n = len(points), self.n
        s = points[:, 0]
        a, U, b = dirs[..., 0, None, None], dirs[..., 1:-1], dirs[..., -1, None, None]
        Ucol = U[..., None]
        f, m = (arr.reshape(k, 1, n, n) for arr in self.f_map(points, stack))
        Omega = np.zeros(dirs.shape[:2] + (self.dim, self.dim))
        Omega[..., 0, 1:-1] = -(U[..., None, :] @ (g @ m))[..., 0, :]
        Omega[..., -1, 1:-1] = -(U[..., None, :] @ (P @ m))[..., 0, :]
        Omega[..., 1:-1, 0] = (f @ (Psharp @ Ucol))[..., 0]
        Omega[..., 1:-1, -1] = (f @ Ucol)[..., 0]
        tm_block = _christoffel_matrices(Gamma, U) @ m + a * Psharp + b * np.eye(n)
        off = s != 0.0
        if off.any():
            # dPsharp(U)[i,j] = U^k d_k Psharp^i_j: one (1, n) @ (n, n*n) product per direction
            dPsharp, U_off = np.reshape(stack.dPsharp, (k, 1, n, n * n))[off], U[off]
            tm_block[off] = tm_block[off] + s[off, None, None, None] * (
                U_off[..., None, :] @ dPsharp).reshape(U_off.shape + (n,))
        Omega[..., 1:-1, 1:-1] = f @ tm_block
        return Omega.reshape(np.shape(u)[:-1] + (self.dim, self.dim))

    def _omega_in_parts(self, points, dirs, on) -> np.ndarray:
        """`omega` of a (k, n+2) stack of points, the rows on the slice (`on`)
        and those off it each with their own data."""
        out = np.empty(dirs.shape[:-1] + (self.dim, self.dim))
        try:
            for rows in (on, ~on):
                out[rows] = self.omega(points[rows], dirs[rows])
        except MetricError:
            for point, d in zip(points, dirs):
                self.omega(point, d)  # the first bad row raises its own error
            raise
        return out

    def omega_crude(self, p, u, stack: CurvatureStack | None = None) -> np.ndarray:
        """Connection matrix of the crude alternative; regular for all q > 0.

        Accepts stacks of points and directions like `omega`.  It has no
        s*dPsharp term, so without a `stack` every point reads `connection_at`.
        """
        p = np.asarray(p, dtype=float)
        if not np.all(p[..., -1] > 0):  # NaN fails the test too
            raise MetricError("crude connection requires q > 0")
        if stack is None:
            stack = connection_at(self.spec, p[..., 1:-1])
        points, dirs, (g, P, Psharp, Gamma) = self._batch(p, u, stack)
        q = points[:, -1, None, None]
        U, b = dirs[..., 1:-1], dirs[..., -1, None, None]
        Ucol = U[..., None]
        Omega = np.zeros(dirs.shape[:2] + (self.dim, self.dim))
        Omega[..., 0, 1:-1] = -q * (g @ Ucol)[..., 0]
        Omega[..., -1, 1:-1] = -q * (P @ Ucol)[..., 0]
        Omega[..., 1:-1, 0] = (Psharp @ Ucol)[..., 0] / q
        Omega[..., 1:-1, -1] = U / q
        Omega[..., 1:-1, 1:-1] = (_christoffel_matrices(Gamma, U)
                                  + (b / q[..., None]) * np.eye(self.n))
        return Omega.reshape(np.shape(u)[:-1] + (self.dim, self.dim))

    def covariant_derivative(self, p, u, w, dw=None, stack=None) -> np.ndarray:
        """D_u w for an ambient vector w with directional component derivative dw."""
        out = self.omega(p, u, stack) @ np.asarray(w, dtype=float)
        if dw is not None:
            out = out + np.asarray(dw, dtype=float)
        return out

    # -- torsion ----------------------------------------------------------------

    def torsion(self, p, u, w, stack: CurvatureStack | None = None) -> np.ndarray:
        """T(u, w) for coordinate-constant directions, from the rules alone."""
        return self.omega(p, u, stack) @ np.asarray(w, dtype=float) \
            - self.omega(p, w, stack) @ np.asarray(u, dtype=float)

    def torsion_closed_form(self, p, X, Y, stack: CurvatureStack | None = None) -> np.ndarray:
        """s * (lift of CYsharp(X, Y)); the independent oracle for torsion."""
        s, x, q = split_point(p)
        if stack is None:
            stack = self.stack(x)
        cy = np.einsum("ijk,i,j->k", stack.CYsharp, np.asarray(X, float), np.asarray(Y, float))
        return s * self.lift(p, cy, stack)

    def torsion_lowered(self, p, u, w, z, stack: CurvatureStack | None = None) -> float:
        """T*(u, w, z) = h(T(u, w), z)."""
        if stack is None:
            stack = self.stack(split_point(p)[1])
        T = self.torsion(p, u, w, stack)
        return float(T @ self.metric(p, stack) @ np.asarray(z, dtype=float))

    # -- curvature and Ricci ------------------------------------------------------

    def curvature_all_pairs(self, p, crude: bool = False) -> np.ndarray:
        """Finite-difference curvature R[a, b] at p, by `curvature_from_omega`.

        The stencil's connection matrices come from its one batched omega
        call, which picks each stencil point's data itself: at a point on
        the slice, only the four S-shifted points of the ambient stencil are
        off it and read the order-3 stack, and the crude connection reads
        none.
        """
        return curvature_from_omega(self.omega_crude if crude else self.omega, p, self.dim)

    def ricci(self, p, pairs: np.ndarray | None = None) -> np.ndarray:
        """Ricci matrix over the coordinate basis: Ric(u, v) = tr(w -> R(w, u) v)."""
        if pairs is None:
            pairs = self.curvature_all_pairs(p)
        return np.einsum("cacb->ab", pairs)

    # -- structural checks ---------------------------------------------------------

    def default_s_bound(self, x, q: float = 1.0) -> float:
        """Safe |s| bound 0.5*q / max|eig(Psharp)| to stay clear of singular f."""
        top = float(np.max(np.abs(np.linalg.eigvals(connection_at(self.spec, x).Psharp))))
        if top < 1e-12:
            return np.inf
        return 0.5 * q / top

    def homogeneity_checks(self, p, rng=None) -> dict:
        """Degree bookkeeping under phi_t(s, x, q) = (ts, x, tq)."""
        s, x, q = split_point(p)
        stack = self.stack(x)
        if rng is None:
            rng = np.random.default_rng(0)
        results = {}
        h0 = self.metric(p, stack)
        vecs = rng.standard_normal((4, self.dim))
        for t in _SCALES:
            pt = self.scale_point(p, t)
            ht = self.metric(pt, stack)
            # metric degree 2: h_t(dphi u, dphi v) = t^2 h(u, v)
            res_h = 0.0
            for u in vecs:
                for v in vecs:
                    lhs = float(self.scale_tangent(u, t) @ ht @ self.scale_tangent(v, t))
                    rhs = t * t * float(u @ h0 @ v)
                    res_h = max(res_h, abs(lhs - rhs) / max(1.0, abs(rhs)))
            # lowered torsion degree 2
            res_t = 0.0
            for u in vecs[:2]:
                for v in vecs[2:]:
                    z = vecs[0] + vecs[3]
                    lhs = self.torsion_lowered(pt, self.scale_tangent(u, t),
                                               self.scale_tangent(v, t),
                                               self.scale_tangent(z, t), stack)
                    rhs = t * t * self.torsion_lowered(p, u, v, z, stack)
                    res_t = max(res_t, abs(lhs - rhs))
            results[t] = {"metric_scaling": res_h, "torsion_scaling": res_t}
        # phi = h(F, .) equals q ds + s dq = d(sq) at p and its dilations, so dphi = 0
        res_dphi = 0.0
        for pt in [p] + [self.scale_point(p, t) for t in _SCALES]:
            d_sq = self.fundamental_field(pt)[::-1]  # (q, 0, ..., 0, s)
            res_dphi = max(res_dphi, float(np.max(np.abs(self.phi(pt, stack) - d_sq))))
        results["dphi"] = res_dphi
        # lifted fields have homogeneity -1: lift at phi_t(p) = (1/t) * lift at p
        res_lift = 0.0
        for t in _SCALES:
            pt = self.scale_point(p, t)
            for X in np.eye(self.n):
                lhs = self.lift(pt, X, stack)
                rhs = self.lift(p, X, stack) / t
                res_lift = max(res_lift, float(np.max(np.abs(lhs - rhs))))
        results["lift_homogeneity"] = res_lift
        return results

    def nabF_check(self, p, rng=None) -> float:
        """max residual of nabla_u F = u over random directions u."""
        s, x, q = split_point(p)
        stack = self.stack(x)
        if rng is None:
            rng = np.random.default_rng(0)
        F = self.fundamental_field(p)
        dF = np.zeros(self.dim)
        res = 0.0
        for u in rng.standard_normal((6, self.dim)):
            dF[0], dF[-1] = u[0], u[-1]  # coefficient derivatives of (s, 0, q)
            cov = self.covariant_derivative(p, u, F, dF, stack)
            res = max(res, float(np.max(np.abs(cov - u))))
        return res

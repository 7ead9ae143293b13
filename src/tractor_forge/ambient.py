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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureStack, stack_at
from .metric import MetricError, MetricSpec

__all__ = [
    "SingularMapError",
    "AmbientGeometry",
    "ambient_point",
    "split_point",
    "orthonormal_frame",
    "curvature_from_omega",
]

_FD_STEP = 2e-3


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


def orthonormal_frame(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal frame columns E and signs eps with E^T g E = diag(eps).

    Gram-Schmidt over eigenvector seeds, timelike directions first, each
    vector normalized to |g(E,E)| = 1.
    """
    n = g.shape[0]
    evals, evecs = np.linalg.eigh(g)
    order = np.argsort(evals)  # negative (timelike) directions first
    seeds = evecs[:, order]
    frame = []
    signs = []
    for k in range(n):
        v = seeds[:, k].copy()
        for u, eps in zip(frame, signs):
            v = v - eps * float(u @ g @ v) * u
        norm2 = float(v @ g @ v)
        if abs(norm2) < 1e-12:
            raise MetricError("degenerate metric: cannot build an orthonormal frame")
        v = v / np.sqrt(abs(norm2))
        frame.append(v)
        signs.append(1.0 if norm2 > 0 else -1.0)
    return np.column_stack(frame), np.array(signs)


def curvature_from_omega(omega_fn, point, dim: int, h: float = _FD_STEP) -> np.ndarray:
    """R[a,b] = d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b] for all pairs.

    Coordinate partials of the connection matrices use 4th-order central
    differences with step `h`.  `omega_fn(point, directions)` must accept
    any point near `point` and a (dim, dim) stack of directions, and return
    their (dim, fiber, fiber) stack of connection matrices: one call per
    stencil point.
    """
    point = np.asarray(point, dtype=float)
    basis = np.eye(dim)
    omegas = omega_fn(point, basis)
    fiber = omegas.shape[-1]
    dOmega = np.zeros((dim, dim, fiber, fiber))  # [a, c] = d_a Omega_c
    for a in range(dim):
        shifts = {}
        for k in (-2, -1, 1, 2):
            pk = point.copy()
            pk[a] += k * h
            shifts[k] = omega_fn(pk, basis)
        dOmega[a] = (-shifts[2] + 8 * shifts[1] - 8 * shifts[-1] + shifts[-2]) / (12 * h)
    products = omegas[:, None] @ omegas[None, :]  # [a, b] = Omega_a Omega_b
    return (dOmega - dOmega.transpose(1, 0, 2, 3)
            + products - products.transpose(1, 0, 2, 3))


@dataclass
class AmbientGeometry:
    """Point-wise evaluators for the ambient construction over one metric."""

    spec: MetricSpec
    det_tol: float = 1e-10

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
        """(f, m) with m = s*Psharp + q*Id and f = m^{-1}; raises when singular."""
        s, x, q = split_point(p)
        if stack is None:
            stack = self.stack(x)
        m = s * stack.Psharp + q * np.eye(self.n)
        if abs(np.linalg.det(m)) <= self.det_tol:
            evals = np.linalg.eigvals(stack.Psharp)
            evals = np.real_if_close(evals, tol=1e6)
            bad = [ev for ev in evals if abs(s * ev + q) <= 1e-6 * max(1.0, abs(q))]
            raise SingularMapError(p, bad if bad else evals)
        return np.linalg.inv(m), m

    def lift(self, p, X, stack: CurvatureStack | None = None) -> np.ndarray:
        """Lift of a base vector X: the ambient vector (0, f(X), 0)."""
        f, _ = self.f_map(p, stack)
        v = np.zeros(self.dim)
        v[1:-1] = f @ np.asarray(X, dtype=float)
        return v

    def metric(self, p, stack: CurvatureStack | None = None) -> np.ndarray:
        """Ambient metric h in the coordinate basis (S, d_i, Q)."""
        s, x, q = split_point(p)
        if stack is None:
            stack = self.stack(x)
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

    def omega(self, p, u, stack: CurvatureStack | None = None) -> np.ndarray:
        """Connection matrix for direction u = (a, U, b): D_t v = vdot + Omega v.

        u may also be a (k, n+2) stack of directions; the result is then the
        (k, n+2, n+2) stack of their matrices, each equal to the one for
        that direction alone.
        """
        s, x, q = split_point(p)
        if stack is None:
            stack = self.stack(x)
        n = self.n
        u = np.asarray(u, dtype=float)
        dirs = u.reshape(-1, self.dim)
        a, U, b = dirs[:, 0, None, None], dirs[:, 1:-1], dirs[:, -1, None, None]
        Ucol = U[:, :, None]
        f, m = self.f_map(p, stack)
        gm = stack.g @ m
        Pm = stack.P @ m
        GammaU = np.einsum("kij,ci->ckj", stack.Gamma, U)
        Omega = np.zeros((len(dirs), self.dim, self.dim))
        Omega[:, 0, 1:-1] = -(U[:, None, :] @ gm)[:, 0]
        Omega[:, -1, 1:-1] = -(U[:, None, :] @ Pm)[:, 0]
        Omega[:, 1:-1, 0] = (f @ (stack.Psharp @ Ucol))[:, :, 0]
        Omega[:, 1:-1, -1] = (f @ Ucol)[:, :, 0]
        tm_block = GammaU @ m + a * stack.Psharp + b * np.eye(n)
        if s != 0.0:
            tm_block = tm_block + s * np.einsum("kij,ck->cij", stack.dPsharp, U)
        Omega[:, 1:-1, 1:-1] = f @ tm_block
        return Omega if u.ndim == 2 else Omega[0]

    def omega_crude(self, p, u, stack: CurvatureStack | None = None) -> np.ndarray:
        """Connection matrix of the crude alternative; regular for all q > 0.

        Accepts a (k, n+2) stack of directions like `omega`.
        """
        s, x, q = split_point(p)
        if q <= 0:
            raise MetricError("crude connection requires q > 0")
        if stack is None:
            stack = self.stack(x)
        u = np.asarray(u, dtype=float)
        dirs = u.reshape(-1, self.dim)
        U, b = dirs[:, 1:-1], dirs[:, -1, None, None]
        Ucol = U[:, :, None]
        GammaU = np.einsum("kij,ci->ckj", stack.Gamma, U)
        Omega = np.zeros((len(dirs), self.dim, self.dim))
        Omega[:, 0, 1:-1] = -q * (stack.g @ Ucol)[:, :, 0]
        Omega[:, -1, 1:-1] = -q * (stack.P @ Ucol)[:, :, 0]
        Omega[:, 1:-1, 0] = (stack.Psharp @ Ucol)[:, :, 0] / q
        Omega[:, 1:-1, -1] = U / q
        Omega[:, 1:-1, 1:-1] = GammaU + (b / q) * np.eye(self.n)
        return Omega if u.ndim == 2 else Omega[0]

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

    def curvature_all_pairs(self, p, crude: bool = False, step: float = _FD_STEP) -> np.ndarray:
        fn = self.omega_crude if crude else self.omega
        cache = {}

        def omega_fn(pt, u):
            key = pt[1:-1].tobytes()
            stack = cache.get(key)
            if stack is None:
                stack = self.stack(pt[1:-1])
                cache[key] = stack
            return fn(pt, u, stack)

        return curvature_from_omega(omega_fn, p, self.dim, step)

    def curvature(self, p, u, w, pairs: np.ndarray | None = None) -> np.ndarray:
        if pairs is None:
            pairs = self.curvature_all_pairs(p)
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        return np.einsum("a,b,abcd->cd", u, w, pairs)

    def ricci(self, p, pairs: np.ndarray | None = None) -> np.ndarray:
        """Ricci matrix Ric(u, v) over the coordinate basis, via a lifted frame.

        Contraction over the h-dual frame (S, E~_1..E~_n, Q):
        Ric(u,v) = h(R(S,u)v, Q) + h(R(Q,u)v, S) + sum_i eps_i h(R(E~_i,u)v, E~_i).
        """
        s, x, q = split_point(p)
        stack = self.stack(x)
        if pairs is None:
            pairs = self.curvature_all_pairs(p)
        h = self.metric(p, stack)
        E, eps = orthonormal_frame(stack.g)
        frame = [self.fundamental_field(ambient_point(1.0, x, 0.0))]  # S
        duals = [self.fundamental_field(ambient_point(0.0, x, 1.0))]  # Q, h(S,Q)=1
        weights = [1.0]
        for i in range(self.n):
            lifted = self.lift(p, E[:, i], stack)
            frame.append(lifted)
            duals.append(lifted)
            weights.append(eps[i])
        frame.append(duals[0])
        duals.append(frame[0])
        weights.append(1.0)
        ric = np.zeros((self.dim, self.dim))
        basis = np.eye(self.dim)
        for a in range(self.dim):
            Rua = np.einsum("b,abcd->acd", basis[a], pairs)  # R(e_c-family, e_a)
            for bcol in range(self.dim):
                total = 0.0
                for Ea, Da, wgt in zip(frame, duals, weights):
                    REa = np.einsum("a,acd,d->c", Ea, Rua, basis[bcol])
                    total += wgt * float(REa @ h @ Da)
                ric[a, bcol] = total
        return ric

    # -- structural checks ---------------------------------------------------------

    def default_s_bound(self, x, q: float = 1.0) -> float:
        """Safe |s| bound 0.5*q / max|eig(Psharp)| to stay clear of singular f."""
        stack = self.stack(x)
        top = float(np.max(np.abs(np.linalg.eigvals(stack.Psharp))))
        if top < 1e-12:
            return np.inf
        return 0.5 * q / top

    def homogeneity_checks(self, p, scales=(0.5, 2.0), rng=None) -> dict:
        """Degree bookkeeping under phi_t(s, x, q) = (ts, x, tq)."""
        s, x, q = split_point(p)
        stack = self.stack(x)
        if rng is None:
            rng = np.random.default_rng(0)
        results = {}
        h0 = self.metric(p, stack)
        vecs = rng.standard_normal((4, self.dim))
        for t in scales:
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
        # F-contractions of the torsion
        F = self.fundamental_field(p)
        res_f = 0.0
        for u in vecs:
            res_f = max(res_f, float(np.max(np.abs(self.torsion(p, F, u, stack)))))
        results["torsion_F_contraction"] = res_f
        # dphi = 0 by 4th-order finite differences of the components of phi
        step = _FD_STEP
        res_dphi = 0.0
        dphi = np.zeros((self.dim, self.dim))
        for a in range(self.dim):
            for k, wgt in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
                pk = np.asarray(p, dtype=float).copy()
                pk[a] += k * step
                dphi[a] += wgt * self.phi(pk) / (12 * step)
        res_dphi = float(np.max(np.abs(dphi - dphi.T)))
        results["dphi"] = res_dphi
        # lifted fields have homogeneity -1: lift at phi_t(p) = (1/t) * lift at p
        res_lift = 0.0
        for t in scales:
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

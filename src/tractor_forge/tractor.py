"""Rank-(n+2) standard tractor bundle in a fixed scale.

Fiber vectors are (alpha, A, beta) laid out as a flat (n+2)-vector with
alpha in slot 0, the tangent part A in slots 1..n, and beta in slot n+1.
The connection is the normal tractor connection of Bailey, Eastwood and
Gover, written with the standard Schouten tensor P:

    alpha' = X(alpha) - g(X,A)
    A'     = nabla_X A + alpha Psharp(X) + beta X
    beta'  = X(beta) - P(X,A)

It preserves the fiber metric H(alpha,beta) = 1, H(A,A) = g, and it is
the restriction of the explicit ambient connection to the slice under the
identification S <-> (1,0,0), Q <-> (0,0,1).

Along a curve, covariant differentiation acts as D_t v = vdot + Omega v,
so parallel transport solves vdot = -Omega(t) v.

The curvature R(e_i, e_j) = d_i Omega_j - d_j Omega_i + [Omega_i, Omega_j]
takes exact partials of the connection matrices from the order-3 stack;
the formula itself is `curvature.connection_curvature`, shared with the
ambient curvature.
"""

from __future__ import annotations

import numpy as np

from .curvature import CurvatureStack, _christoffel_matrices, connection_curvature

__all__ = [
    "tractor_metric",
    "connection_matrix",
    "curvature_all_pairs",
    "normality_check",
]


def tractor_metric(g: np.ndarray) -> np.ndarray:
    """Fiber metric H: H(alpha,beta) = 1, H(A,A) = g (each of a stack of g)."""
    n = g.shape[-1]
    H = np.zeros(g.shape[:-2] + (n + 2, n + 2))
    H[..., 0, n + 1] = H[..., n + 1, 0] = 1.0
    H[..., 1:n + 1, 1:n + 1] = g
    return H


def connection_matrix(stack: CurvatureStack, X) -> np.ndarray:
    """Omega with D_X v = X(v) + Omega v for constant component functions.

    For a batched stack (or connection point) of k points, X is the (k, n)
    stack of their directions, or (k, c, n) with c at each, and each of the
    resulting matrices equals the single-point matrix.
    """
    n = stack.n
    X = np.asarray(X, dtype=float)
    each = (slice(None), None) if stack.g.ndim == 3 and X.ndim == 3 else ()  # c per point
    g, P, Psharp, Gamma = (a[each] for a in (stack.g, stack.P, stack.Psharp, stack.Gamma))
    Xcol = X[..., None]
    Omega = np.zeros(X.shape[:-1] + (n + 2, n + 2))
    Omega[..., 0, 1:n + 1] = -(g @ Xcol)[..., 0]
    Omega[..., n + 1, 1:n + 1] = -(P @ Xcol)[..., 0]
    Omega[..., 1:n + 1, 0] = (Psharp @ Xcol)[..., 0]
    Omega[..., 1:n + 1, n + 1] = X
    Omega[..., 1:n + 1, 1:n + 1] = _christoffel_matrices(Gamma, X[..., None, :]
                                                         ).reshape(X.shape + (n,))
    return Omega


def _connection_matrix_partials(stack: CurvatureStack) -> np.ndarray:
    """dOmega[p, j] = d_p of the Omega matrix for direction e_j, per point."""
    n = stack.n
    dOmega = np.zeros(stack.dP.shape[:-1] + (n + 2, n + 2))
    dOmega[..., 0, 1:n + 1] = -stack.jet.dg
    dOmega[..., n + 1, 1:n + 1] = -stack.dP
    dOmega[..., 1:n + 1, 0] = np.swapaxes(stack.dPsharp, -2, -1)
    dOmega[..., 1:n + 1, 1:n + 1] = stack.dGamma.swapaxes(-3, -2)
    return dOmega


def curvature_all_pairs(stack: CurvatureStack) -> np.ndarray:
    """R[i,j] = R(e_i, e_j) for all coordinate pairs; antisymmetric in (i,j).

    The commutator of covariant derivatives in coordinate directions, by
    `connection_curvature` with exact partials of the connection matrices.
    Its A-block is the Weyl endomorphism and its beta-row -CY(e_i,e_j,.).
    A batched stack gives one such (n, n, n+2, n+2) array per point.
    """
    omegas = connection_matrix(stack, np.zeros(stack.g.shape) + np.eye(stack.n))  # e_j at each point
    return connection_curvature(omegas, _connection_matrix_partials(stack))


def normality_check(stack: CurvatureStack, tol: float = 1e-8) -> dict:
    """Numerical form of the two normality conditions on the curvature.

    (a) the curvature preserves the distinguished null direction: the
        column over the beta slot has no alpha- or A-components;
    (b) the Ricci contraction of the A-block family vanishes.
    Failures are reported as findings, not raised.  On a batched stack
    each residual is the largest over the points (0 for none).
    """
    n = stack.n
    R = curvature_all_pairs(stack).reshape((-1, n, n, n + 2, n + 2))
    scale = np.maximum(1.0, np.max(np.abs(R), axis=(1, 2, 3, 4)))
    beta_col = R[..., :n + 1, n + 1]  # alpha and A entries of the beta column
    res_a = float(np.max(np.max(np.abs(beta_col), axis=(1, 2, 3)) / scale, initial=0.0))

    a_block = R[..., 1:n + 1, 1:n + 1]  # [i,j,row,col] endomorphism family
    ric_contraction = np.einsum("...axay->...xy", a_block)
    res_b = float(np.max(np.max(np.abs(ric_contraction), axis=(1, 2)) / scale, initial=0.0))

    return {
        "preserves_null_direction": {"residual": res_a, "tol": tol, "pass": res_a <= tol},
        "ricci_contraction_vanishes": {"residual": res_b, "tol": tol, "pass": res_b <= tol},
        "pass": res_a <= tol and res_b <= tol,
    }

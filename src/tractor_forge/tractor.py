"""Rank-(n+2) standard tractor bundle in a fixed scale.

Fiber vectors are (alpha, A, beta) laid out as a flat (n+2)-vector with
alpha in slot 0, the tangent part A in slots 1..n, and beta in slot n+1.
Two connection variants are provided:

  * "induced"  -- the pushforward of the explicit ambient connection to
    the slice identification S <-> (1,0,0), Q <-> (0,0,1); this is the
    canonical variant for all holonomy comparisons.
  * "paper"    -- the literal transcription of the action-table rules
    nabla_X + X + P(X); it differs from the induced variant in the sign
    of the alpha- and beta-row couplings and is metric for the pairing
    with flipped alpha-beta sign.

Along a curve, covariant differentiation acts as D_t v = vdot + Omega v,
so parallel transport solves vdot = -Omega(t) v.
"""

from __future__ import annotations

import numpy as np

from .curvature import CurvatureStack

__all__ = [
    "VARIANTS",
    "tractor_metric",
    "connection_matrix",
    "covariant_derivative",
    "tractor_curvature",
    "curvature_all_pairs",
    "normality_check",
]

VARIANTS = ("induced", "paper")


def tractor_metric(g: np.ndarray, variant: str = "induced") -> np.ndarray:
    """Fiber metric H: H(alpha,beta)=+1 (induced) or -1 (paper), H(A,A)=g."""
    n = g.shape[0]
    H = np.zeros((n + 2, n + 2))
    corner = 1.0 if variant == "induced" else -1.0
    H[0, n + 1] = H[n + 1, 0] = corner
    H[1:n + 1, 1:n + 1] = g
    return H


def connection_matrix(stack: CurvatureStack, X, variant: str = "induced") -> np.ndarray:
    """Omega with D_X v = X(v) + Omega v for constant component functions.

    induced:  alpha' = X(alpha) - g(X,A),   beta' = X(beta) - P(X,A)
    paper:    alpha' = X(alpha) + g(X,A),   beta' = X(beta) + P(X,A)
    both:     A'     = nabla_X A + alpha Psharp(X) + beta X

    For a batched stack (or connection point) of k points, X is the (k, n)
    stack of their directions and the result the (k, n+2, n+2) stack of
    matrices, each row equal to the single-point matrix.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown tractor variant {variant!r}")
    n = stack.n
    X = np.asarray(X, dtype=float)
    Xcol = X[..., None]
    sign = -1.0 if variant == "induced" else 1.0
    Omega = np.zeros(X.shape[:-1] + (n + 2, n + 2))
    Omega[..., 0, 1:n + 1] = sign * (stack.g @ Xcol)[..., 0]
    Omega[..., n + 1, 1:n + 1] = sign * (stack.P @ Xcol)[..., 0]
    Omega[..., 1:n + 1, 0] = (stack.Psharp @ Xcol)[..., 0]
    Omega[..., 1:n + 1, n + 1] = X
    Omega[..., 1:n + 1, 1:n + 1] = np.einsum("...kij,...i->...kj", stack.Gamma, X)
    return Omega


def _connection_matrix_partials(stack: CurvatureStack, variant: str) -> np.ndarray:
    """dOmega[p, :, :, j] = d_p of the Omega matrix for direction e_j."""
    n = stack.n
    sign = -1.0 if variant == "induced" else 1.0
    dOmega = np.zeros((n, n + 2, n + 2, n))
    dOmega[:, 0, 1:n + 1, :] = sign * np.einsum("pjk->pkj", stack.jet.dg)
    dOmega[:, n + 1, 1:n + 1, :] = sign * np.einsum("pjk->pkj", stack.dP)
    dOmega[:, 1:n + 1, 0, :] = np.einsum("pmj->pmj", stack.dPsharp)
    dOmega[:, 1:n + 1, 1:n + 1, :] = np.einsum("pkjm->pkmj", stack.dGamma)
    return dOmega


def tractor_curvature(stack: CurvatureStack, X, Y, variant: str = "induced") -> np.ndarray:
    """Curvature endomorphism R(X,Y) as an (n+2) matrix.

    Computed as the commutator of covariant derivatives in coordinate
    directions: R(e_i,e_j) = d_i Omega_j - d_j Omega_i + [Omega_i, Omega_j],
    contracted with X and Y.  For the induced variant the block content is
    the Weyl endomorphism in the A-block and -CY(X,Y,.) in the beta-row.
    """
    pairs = curvature_all_pairs(stack, variant)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.einsum("i,j,ijab->ab", X, Y, pairs)


def curvature_all_pairs(stack: CurvatureStack, variant: str = "induced") -> np.ndarray:
    """R[i,j] matrices for all coordinate pairs; antisymmetric in (i,j)."""
    n = stack.n
    omegas = np.stack([connection_matrix(stack, np.eye(n)[j], variant) for j in range(n)])
    dOmega = _connection_matrix_partials(stack, variant)  # [p,a,b,j]
    R = np.zeros((n, n, n + 2, n + 2))
    for i in range(n):
        for j in range(n):
            R[i, j] = (dOmega[i, :, :, j] - dOmega[j, :, :, i]
                       + omegas[i] @ omegas[j] - omegas[j] @ omegas[i])
    return R


def covariant_derivative(stack: CurvatureStack, X, t: np.ndarray, dt: np.ndarray | None = None,
                         variant: str = "induced") -> np.ndarray:
    """D_X t for a fiber vector with directional component derivative dt."""
    Omega = connection_matrix(stack, X, variant)
    base = Omega @ np.asarray(t, dtype=float)
    if dt is not None:
        base = base + np.asarray(dt, dtype=float)
    return base


def normality_check(stack: CurvatureStack, variant: str = "induced",
                    tol: float = 1e-8) -> dict:
    """Numerical form of the two normality conditions on the curvature.

    (a) the curvature preserves the distinguished null direction: the
        column over the beta slot has no alpha- or A-components;
    (b) the Ricci contraction of the A-block family vanishes.
    Failures are reported as findings, not raised.
    """
    n = stack.n
    R = curvature_all_pairs(stack, variant)
    scale = max(1.0, float(np.max(np.abs(R))))
    beta_col = R[:, :, :n + 1, n + 1]  # alpha and A entries of the beta column
    res_a = float(np.max(np.abs(beta_col))) / scale

    a_block = R[:, :, 1:n + 1, 1:n + 1]  # [i,j,row,col] endomorphism family
    ric_contraction = np.einsum("axay->xy", a_block)
    res_b = float(np.max(np.abs(ric_contraction))) / scale

    return {
        "variant": variant,
        "preserves_null_direction": {"residual": res_a, "tol": tol, "pass": res_a <= tol},
        "ricci_contraction_vanishes": {"residual": res_b, "tol": tol, "pass": res_b <= tol},
        "pass": res_a <= tol and res_b <= tol,
    }

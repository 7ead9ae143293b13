"""Holonomy Lie-algebra estimation from transported curvature.

By Ambrose-Singer the holonomy algebra at a base point is spanned by the
curvature endomorphisms conjugated by transports from the base point,
P^-1 R(X, Y) P; these are the only generators.  They are taken at the base
point and at partial points of each loop: each loop is split into pieces
that end at those partial points, and every piece of every loop is a lane
of one lockstep `parallel_transport` call, started from the identity.
Transport is linear, so the ordered products of the piece transports are
the prefix transports, and the product over all pieces is the loop
transport.  The curvature at those points is grouped by piece index: one
`curvature_pairs` call on the stack of each index's piece ends, a loop's
last end left out (and one call for the base point), each row equal to
the call on its point alone.  The generators are closed under
brackets; the dimension is the rank of the flattened set under a
singular-value cut (relative threshold plus a small absolute floor, so a
flat connection whose curvature is zero up to noise reports dimension 0).

Each loop transport G is independent evidence: the residual of matrix_log(G)
off the estimated algebra is reported per loop (inf where the log series
does not converge), and never feeds the generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport as tp
from .metric import MetricError

__all__ = [
    "HolonomyAlgebra",
    "matrix_log",
    "closed_span",
    "holonomy_algebra",
    "compare_holonomy",
    "fixed_vectors",
]

_ABS_FLOOR = 1e-8
_SPAN_TOL = 1e-5      # `compare_holonomy`: the largest residual of one basis in the other's span
_FIXED_TOL = 1e-6     # `fixed_vectors`: singular values below this times the largest are null
_LOG_TOL = 1e-15      # the log series stops at a term below this
_LOG_MAX_TERMS = 80


class LogConvergenceError(RuntimeError):
    """Loop transport too far from identity for the log series."""


def matrix_log(G: np.ndarray) -> np.ndarray:
    """log(G) by the series in X = G - I.

    Raises LogConvergenceError when the Frobenius norm ||X||_F >= 0.5, or
    when the series has not converged after `_LOG_MAX_TERMS` terms.
    ||X||_F bounds the operator norm, so below the gate the k-th term is
    under 0.5^k / k and the series converges well within the cap; only a
    non-finite G reaches it.
    """
    X = G - np.eye(G.shape[0])
    norm = float(np.linalg.norm(X))
    if norm >= 0.5:
        raise LogConvergenceError(f"||G - I||_F = {norm:.3f} >= 0.5")
    term = X.copy()
    out = X.copy()
    for k in range(2, _LOG_MAX_TERMS):
        term = term @ X
        contrib = ((-1) ** (k + 1)) * term / k
        out += contrib
        if float(np.max(np.abs(contrib))) < _LOG_TOL:
            return out
    raise LogConvergenceError(f"log series not converged after {_LOG_MAX_TERMS} terms "
                              f"(||G - I||_F = {norm:.3f})")


@dataclass
class HolonomyAlgebra:
    """Estimated holonomy Lie algebra at a base point."""

    generators: list        # conjugated curvature matrices
    basis: list             # orthonormal (Frobenius) spanning matrices
    dim: int
    sv_profile: np.ndarray  # singular values behind the rank decision
    rank_tol: float
    base: np.ndarray
    fiber_metric: np.ndarray
    loop_transports: list   # each loop's transport
    log_residuals: list     # per loop: ||log G off span(basis)||_F, inf if no log series


def _orthonormal_span(mats, rank_tol: float):
    """Orthonormal basis of span(mats) with the rank cut; (basis, svals).

    Matrices of Frobenius norm at or below the absolute floor are left out,
    all filtered in one norm over the stacked rows."""
    if not len(mats):
        return [], np.zeros(0)
    shape = mats[0].shape
    A = np.reshape(mats, (len(mats), -1))
    A = A[np.linalg.norm(A, axis=1) > _ABS_FLOOR]
    if not len(A):
        return [], np.zeros(0)
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    cut = max(rank_tol * svals[0], _ABS_FLOOR)
    keep = int(np.sum(svals > cut))
    basis = [vt[k].reshape(shape) for k in range(keep)]
    return basis, svals


def closed_span(generators, rank_tol: float):
    """Orthonormal basis of the Lie algebra the generators span, and the
    singular values behind its rank cut: the span, closed under brackets
    to a fixed point (at most 8 rounds)."""
    basis, svals = _orthonormal_span(generators, rank_tol)
    for _ in range(8):
        brackets = [a @ b - b @ a for ai, a in enumerate(basis)
                    for b in basis[ai + 1:]]
        new_basis, new_svals = _orthonormal_span(basis + brackets, rank_tol)
        if len(new_basis) == len(basis):
            return new_basis, new_svals
        basis, svals = new_basis, new_svals
    return basis, svals


def _pieces(path: tp.PathSpec) -> list:
    """Consecutive sub-paths of `path` that end at its conjugation points.

    A one-segment path splits at its parameter midpoint, into two halves
    that share the segment's compiled code; a longer one after segments
    k//2 and k-1.  The ordered products of the pieces' transports are the
    prefix transports, and the product over all of them is the transport
    of `path`.
    """
    segs = path.segments
    if len(segs) == 1:
        return [tp.PathSpec((segs[0].sub(0.0, 0.5),)), tp.PathSpec((segs[0].sub(0.5, 1.0),))]
    cuts = sorted({len(segs) // 2, len(segs) - 1})
    return [tp.PathSpec(segs[a:b]) for a, b in zip([0] + cuts, cuts + [len(segs)])]


def holonomy_algebra(oracle, base, loops, tol: float, rank_tol: float) -> HolonomyAlgebra:
    """Estimate the holonomy algebra of `oracle` from loops based at `base`.

    Every piece of every loop is a lane of one `parallel_transport` call,
    started from the identity; a loop's prefix transports P_k ... P_1 and
    its loop transport are ordered products of its pieces' transports.  The
    base point has one `curvature_pairs` call, and each piece index one
    more on the stack of that index's piece ends that are conjugation
    points (every end but a loop's last).  Each loop's prefixes are
    inverted in one batched call and its i < j curvature pairs conjugated
    in one broadcast product.  The generators are the conjugated curvatures
    alone; each loop transport's log is then measured against their closed
    span (`log_residuals`).
    """
    base = np.asarray(base, dtype=float)
    for loop in loops:
        if np.max(np.abs(loop.base - base)) > 1e-9:
            raise MetricError("loop is not based at the requested base point")
        if not loop.is_loop():
            raise MetricError("open path passed to holonomy estimation")
    pieces = [_pieces(loop) for loop in loops]
    lanes = [piece for p in pieces for piece in p]
    eye = np.eye(oracle.fiber_dim)
    ends = iter(tp.parallel_transport(
        oracle, lanes, np.broadcast_to(eye, (len(lanes),) + eye.shape), tol))
    prefixes = []  # per loop: at base, then each piece end
    for p in pieces:
        Ts = [eye]
        for _ in p:
            Ts.append(next(ends) @ Ts[-1])
        prefixes.append(Ts)
    base_pairs = oracle.curvature_pairs(base[None])[0]
    pairs = [[base_pairs] for _ in loops]  # at base, then each conjugation point
    for k in range(max((len(p) for p in pieces), default=1) - 1):
        # the last piece ends at the base
        inner = [i for i, p in enumerate(pieces) if k + 1 < len(p)]
        Rs = oracle.curvature_pairs(np.stack([pieces[i][k].end for i in inner]))
        for i, R in zip(inner, Rs):
            pairs[i].append(R)
    loop_transports = [Ts.pop() for Ts in prefixes]
    rows, cols = np.triu_indices(len(base_pairs), 1)
    generators = []
    for Ts, Rs in zip(prefixes, pairs):
        T = np.stack(Ts)
        conj = np.linalg.inv(T)[:, None] @ np.stack(Rs)[:, rows, cols] @ T[:, None]
        generators.extend(conj.reshape(-1, *eye.shape))

    basis, svals = closed_span(generators, rank_tol)
    return HolonomyAlgebra(
        generators=generators, basis=basis, dim=len(basis),
        sv_profile=svals, rank_tol=rank_tol, base=base,
        fiber_metric=oracle.fiber_metric(base), loop_transports=loop_transports,
        log_residuals=[_log_residual(G, basis) for G in loop_transports])


def _off_span(mats, basis) -> list:
    """Frobenius norm of each matrix minus its projection onto span(basis)."""
    if not basis:
        return [float(np.linalg.norm(m)) for m in mats]
    B = np.stack([b.ravel() for b in basis])
    return [float(np.linalg.norm(m.ravel() - B.T @ (B @ m.ravel()))) for m in mats]


def _log_residual(G, basis) -> float:
    """How far log(G) lies off span(basis); inf where the log series fails."""
    try:
        L = matrix_log(G)
    except LogConvergenceError:
        return float("inf")
    return _off_span([L], basis)[0]


def algebra_metric_residual(alg: HolonomyAlgebra) -> float:
    """max of ||B^T H + H B|| over basis elements (orthogonal-algebra check)."""
    H = alg.fiber_metric
    B = np.reshape(alg.basis, (-1,) + H.shape)
    res = (np.max(np.abs(B.swapaxes(1, 2) @ H + H @ B), axis=(1, 2))
           / np.maximum(1.0, np.max(np.abs(B), axis=(1, 2))))
    return float(np.max(res, initial=0.0))


def bracket_closure_residual(alg: HolonomyAlgebra) -> float:
    """max projection residual of basis brackets onto the span, all pairs at once."""
    H = alg.fiber_metric
    A = np.reshape(alg.basis, (-1,) + H.shape)
    B = A.reshape(len(A), H.size)
    i, j = np.triu_indices(len(A), 1)
    W = (A[i] @ A[j] - A[j] @ A[i]).reshape(len(i), H.size, 1)  # each bracket as a column
    res = (np.max(np.abs(W - B.T @ (B @ W)), axis=(1, 2))
           / np.maximum(1.0, np.max(np.abs(W), axis=(1, 2))))
    return float(np.max(res, initial=0.0))


def span_residual(algA: HolonomyAlgebra, algB: HolonomyAlgebra) -> float:
    """max Frobenius residual of A-basis elements projected onto span(B)."""
    return max(_off_span(algA.basis, algB.basis), default=0.0)


def compare_holonomy(algA: HolonomyAlgebra, algB: HolonomyAlgebra) -> dict:
    """Dimension and mutual-span comparison of two holonomy algebras; "tol"
    bounds each span residual."""
    if algA.basis and algB.basis and algA.basis[0].shape != algB.basis[0].shape:
        raise MetricError("holonomy algebras live in different matrix sizes")
    res_ab = span_residual(algA, algB)
    res_ba = span_residual(algB, algA)
    equal = algA.dim == algB.dim and res_ab <= _SPAN_TOL and res_ba <= _SPAN_TOL
    return {
        "dim_a": algA.dim,
        "dim_b": algB.dim,
        "residual_a_in_b": res_ab,
        "residual_b_in_a": res_ba,
        "tol": _SPAN_TOL,
        "verdict": "equal" if equal else "different",
    }


def fixed_vectors(alg: HolonomyAlgebra) -> list:
    """Orthonormal basis of the joint null space of all basis generators."""
    size = alg.fiber_metric.shape[0]
    if not alg.basis:
        return [np.eye(size)[:, k] for k in range(size)]
    stacked = np.vstack(alg.basis)
    _, svals, vt = np.linalg.svd(stacked)
    svals = np.concatenate([svals, np.zeros(size - len(svals))])
    keep = [k for k in range(size) if svals[k] <= _FIXED_TOL * svals[0]]
    return [vt[k] for k in keep]


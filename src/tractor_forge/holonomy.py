"""Holonomy Lie-algebra estimation from transported curvature.

By Ambrose-Singer the holonomy algebra at a base point is spanned by the
curvature endomorphisms conjugated by transports from the base point,
P^-1 R(X, Y) P; these are the only generators.  They are taken at the base
point and at partial points of each loop: each loop is split into pieces
that end at those partial points, and every piece of every loop is a lane
of one lockstep `parallel_transport` call, started from the identity.
Transport is linear, so the ordered products of the piece transports are
the prefix transports, and the product over all pieces is the loop
transport.  The curvature at those points comes from one
`curvature_pairs` call on the stack of the base point and every piece end
but a loop's last, each row equal to the call on its point alone.  The
generators are closed under brackets; the dimension is the rank of the
flattened set under a singular-value cut (relative threshold plus a small
absolute floor, so a flat connection whose curvature is zero up to noise
reports dimension 0).

Each loop transport G is independent evidence: the residual of matrix_log(G)
off the estimated algebra is reported per loop (inf where the log series
does not converge), and never feeds the generators.

After the transports every step runs on stacked arrays, each member bit
for bit what a loop over the members gives: the conjugation of every
prefix, each closure round's i < j brackets, the log series of every loop
transport and their projections onto the algebra.
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
    """log(G) by the series in X = G - I, for one matrix or a (k, f, f) stack.

    Raises LogConvergenceError when the Frobenius norm ||X||_F >= 0.5, or
    when the series has not converged after `_LOG_MAX_TERMS` terms; a
    stack raises when any member does.  ||X||_F bounds the operator norm,
    so below the gate the k-th term is under 0.5^k / k and the series
    converges well within the cap; only a non-finite G reaches it.  Each
    member of a stack stops at its own last term, so it equals the call on
    that member alone.
    """
    X = G - np.eye(G.shape[-1])
    Xs = X.reshape((-1,) + X.shape[-2:])
    flat = Xs.reshape(len(Xs), X.shape[-1] ** 2)
    norms = np.sqrt(np.vecdot(flat, flat))  # np.linalg.norm of each member
    if np.any(norms >= 0.5):
        raise LogConvergenceError(f"||G - I||_F = {norms[norms >= 0.5][0]:.3f} >= 0.5")
    term = Xs.copy()
    out = Xs.copy()
    live, Xl = np.arange(len(Xs)), Xs  # the members whose series runs on, and their X
    for k in range(2, _LOG_MAX_TERMS):
        term = term @ Xl
        contrib = ((-1) ** (k + 1)) * term / k
        out[live] += contrib
        done = np.max(np.abs(contrib), axis=(1, 2)) < _LOG_TOL
        if done.all():
            return out.reshape(X.shape)
        if done.any():
            live, term, Xl = live[~done], term[~done], Xl[~done]
    raise LogConvergenceError(f"log series not converged after {_LOG_MAX_TERMS} terms "
                              f"(||G - I||_F = {norms[live[0]]:.3f})")


@dataclass
class HolonomyAlgebra:
    """Estimated holonomy Lie algebra at a base point."""

    generators: list        # conjugated curvature matrices
    basis: list             # orthonormal (Frobenius) spanning matrices
    dim: int
    sv_profile: np.ndarray  # singular values after bracket closure (not of the raw
                            # generators), behind the rank cut
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
    to a fixed point (at most 8 rounds).  Each round forms its i < j
    brackets in one batched product."""
    basis, svals = _orthonormal_span(generators, rank_tol)
    for _ in range(8):
        if not basis:
            break
        B = np.stack(basis)
        i, j = np.triu_indices(len(B), 1)
        new_basis, new_svals = _orthonormal_span(
            np.concatenate([B, B[i] @ B[j] - B[j] @ B[i]]), rank_tol)
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
    its loop transport are ordered products of its pieces' transports.  One
    `curvature_pairs` call takes the base point and every conjugation point
    (every piece end but a loop's last).  The prefixes of every loop are
    inverted in one batched call and the i < j curvature pairs at their
    points conjugated in one broadcast product.  The generators are the
    conjugated curvatures alone; each loop transport's log is then measured
    against their closed span (`log_residuals`).
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
    # each loop's prefix transports: at the base point, then at each piece
    # end but the last; `at` is the curvature row of each prefix's point
    prefixes, at, loop_transports, row = [], [], [], 0
    for p in pieces:
        T = eye
        prefixes.append(T)
        at.append(0)
        for _ in p[:-1]:
            T, row = next(ends) @ T, row + 1
            prefixes.append(T)
            at.append(row)
        loop_transports.append(next(ends) @ T)
    # the base point, then each loop's piece ends but the last, which is the base
    R = oracle.curvature_pairs(np.stack([base] + [piece.end for p in pieces for piece in p[:-1]]))
    rows, cols = np.triu_indices(R.shape[1], 1)
    T = np.reshape(prefixes, (-1,) + eye.shape)
    generators = (np.linalg.inv(T)[:, None] @ R[:, rows, cols][at] @ T[:, None]
                  ).reshape((-1,) + eye.shape)

    basis, svals = closed_span(generators, rank_tol)
    return HolonomyAlgebra(
        generators=list(generators), basis=basis, dim=len(basis),
        sv_profile=svals, rank_tol=rank_tol, base=base,
        fiber_metric=oracle.fiber_metric(base), loop_transports=loop_transports,
        log_residuals=_log_residuals(np.reshape(loop_transports, (-1,) + eye.shape), basis))


def _off_span(mats, basis) -> list:
    """Frobenius norm of each matrix minus its projection onto span(basis),
    all in one product."""
    if not len(mats):
        return []
    M = np.reshape(mats, (len(mats), -1))
    if len(basis):
        B = np.reshape(basis, (len(basis), -1))
        M = M - (B.T @ (B @ M[..., None]))[..., 0]
    return np.sqrt(np.vecdot(M, M)).tolist()  # np.linalg.norm of each row


def _log_residuals(Gs: np.ndarray, basis) -> list:
    """How far each log(G) of the stack Gs lies off span(basis), from one
    log series over the stack; inf where a loop has no log series, which
    one call per loop then finds."""
    try:
        return _off_span(matrix_log(Gs), basis)
    except LogConvergenceError:
        pass
    res = []
    for G in Gs:
        try:
            res += _off_span(matrix_log(G)[None], basis)
        except LogConvergenceError:
            res.append(float("inf"))
    return res


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


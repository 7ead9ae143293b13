"""The holonomy estimate after the transports, one loop and one matrix at a time.

This is the reference for `tractor_forge.holonomy`, which runs the same
steps on stacked arrays and must agree with it bit for bit: the
conjugation of each loop's prefixes, the bracket closure one pair at a
time, and one log series per loop transport.
"""

import numpy as np

from tractor_forge import holonomy as hol

_LOG_TOL = 1e-15
_LOG_MAX_TERMS = 80


def matrix_log(G):
    """log(G) of one matrix by the series in X = G - I; None where the
    series is gated off or does not converge."""
    X = G - np.eye(G.shape[0])
    if float(np.linalg.norm(X)) >= 0.5:
        return None
    term = X.copy()
    out = X.copy()
    for k in range(2, _LOG_MAX_TERMS):
        term = term @ X
        contrib = ((-1) ** (k + 1)) * term / k
        out += contrib
        if float(np.max(np.abs(contrib))) < _LOG_TOL:
            return out
    return None


def orthonormal_span(mats, rank_tol):
    """Orthonormal basis of span(mats) under the rank cut, and the singular values."""
    if not len(mats):
        return [], np.zeros(0)
    shape = mats[0].shape
    A = np.reshape(mats, (len(mats), -1))
    A = A[np.linalg.norm(A, axis=1) > hol._ABS_FLOOR]
    if not len(A):
        return [], np.zeros(0)
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    keep = int(np.sum(svals > max(rank_tol * svals[0], hol._ABS_FLOOR)))
    return [vt[k].reshape(shape) for k in range(keep)], svals


def closed_span(generators, rank_tol):
    """The span closed under brackets, each bracket one product at a time."""
    basis, svals = orthonormal_span(generators, rank_tol)
    for _ in range(8):
        brackets = [a @ b - b @ a for ai, a in enumerate(basis) for b in basis[ai + 1:]]
        new_basis, new_svals = orthonormal_span(basis + brackets, rank_tol)
        if len(new_basis) == len(basis):
            return new_basis, new_svals
        basis, svals = new_basis, new_svals
    return basis, svals


def log_residual(G, basis):
    """||log G - its projection onto span(basis)||_F; inf without a log series."""
    L = matrix_log(G)
    if L is None:
        return float("inf")
    if not basis:
        return float(np.linalg.norm(L))
    B = np.stack([b.ravel() for b in basis])
    return float(np.linalg.norm(L.ravel() - B.T @ (B @ L.ravel())))


def estimate(piece_counts, ends, R, rank_tol):
    """(generators, basis, svals, loop transports, log residuals) from each
    loop's piece count, the lane transports `ends` in lane order and the
    curvature rows `R` at the base point and each piece end but a loop's last."""
    eye = np.eye(ends.shape[-1])
    ends = iter(ends)
    prefixes = []
    for count in piece_counts:
        Ts = [eye]
        for _ in range(count):
            Ts.append(next(ends) @ Ts[-1])
        prefixes.append(Ts)
    rows, cols = np.triu_indices(R.shape[1], 1)
    R = R[:, rows, cols]
    loop_transports = [Ts.pop() for Ts in prefixes]
    generators, lo = [], 1
    for Ts in prefixes:
        T, hi = np.stack(Ts), lo + len(Ts) - 1
        conj = np.linalg.inv(T)[:, None] @ np.concatenate([R[:1], R[lo:hi]]) @ T[:, None]
        generators.extend(conj.reshape(-1, *eye.shape))
        lo = hi
    basis, svals = closed_span(generators, rank_tol)
    return (generators, basis, svals, loop_transports,
            [log_residual(G, basis) for G in loop_transports])

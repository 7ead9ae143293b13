"""Holonomy Lie-algebra estimation from loop transports and curvature.

Generators come from two mechanisms: truncated matrix logs of small-loop
transport operators, and curvature endomorphisms conjugated by transports
to partial points of each loop.  Each loop is transported once, as a chain
over pieces that end at those partial points, so the running products are
the prefix transports and the last is the loop transport; the loops of one
estimate advance together, one lockstep `parallel_transport` call per piece
index, with results equal to one loop at a time.  Both mechanisms
feed one bracket closure; the dimension is the rank of the flattened
generator set under a singular-value cut (relative threshold plus a small
absolute floor, so a flat connection whose transports are
identity-plus-integrator-noise reports dimension 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import transport as tp
from .metric import MetricError

__all__ = [
    "HolonomyAlgebra",
    "matrix_log",
    "closed_span",
    "holonomy_algebra",
    "compare_holonomy",
    "fixed_vectors",
    "lift_transport_check",
]

_ABS_FLOOR = 1e-8
_LOG_TOL = 1e-15      # the log series stops at a term below this
_LOG_MAX_TERMS = 80
_MAX_HALVINGS = 5     # shrinkings of a loop whose transport has no log series


class LogConvergenceError(RuntimeError):
    """Loop transport too far from identity for the log series."""


def matrix_log(G: np.ndarray) -> np.ndarray:
    """log(G) by the series in X = G - I.

    Raises LogConvergenceError when max|X| >= 0.5, or when the series has
    not converged after `_LOG_MAX_TERMS` terms (max|X| does not bound the
    norm).
    """
    X = G - np.eye(G.shape[0])
    norm = float(np.max(np.abs(X)))
    if norm >= 0.5:
        raise LogConvergenceError(f"||G - I|| = {norm:.3f} >= 0.5")
    term = X.copy()
    out = X.copy()
    for k in range(2, _LOG_MAX_TERMS):
        term = term @ X
        contrib = ((-1) ** (k + 1)) * term / k
        out += contrib
        if float(np.max(np.abs(contrib))) < _LOG_TOL:
            return out
    raise LogConvergenceError(f"log series not converged after {_LOG_MAX_TERMS} terms "
                              f"(max|G - I| = {norm:.3f})")


@dataclass
class HolonomyAlgebra:
    """Estimated holonomy Lie algebra at a base point."""

    generators: list        # raw generator matrices
    basis: list             # orthonormal (Frobenius) spanning matrices
    dim: int
    sv_profile: np.ndarray  # singular values behind the rank decision
    rank_tol: float
    base: np.ndarray
    fiber_metric: np.ndarray
    loop_transports: list   # each loop's transport, on the loop as given


def _orthonormal_span(mats, rank_tol: float):
    """Orthonormal basis of span(mats) with the rank cut; (basis, svals)."""
    mats = [m for m in mats if np.linalg.norm(m) > _ABS_FLOOR]
    if not mats:
        return [], np.zeros(0)
    shape = mats[0].shape
    A = np.stack([m.ravel() for m in mats])
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
    k//2 and k-1.  Transports chained over the pieces give the prefix
    transports, and the last of them is the transport of `path`.
    """
    segs = path.segments
    if len(segs) == 1:
        return [tp.PathSpec((segs[0].sub(0.0, 0.5),)), tp.PathSpec((segs[0].sub(0.5, 1.0),))]
    cuts = sorted({len(segs) // 2, len(segs) - 1})
    return [tp.PathSpec(segs[a:b]) for a, b in zip([0] + cuts, cuts + [len(segs)])]


def holonomy_algebra(oracle, base, loops, tol: float = 1e-10,
                     rank_tol: float = 1e-6) -> HolonomyAlgebra:
    """Estimate the holonomy algebra of `oracle` from loops based at `base`.

    All loops are transported in lockstep, one `parallel_transport` call per
    piece index: the k-th pieces of every loop, from their (k-1)-th prefix
    transports.  Transports that land too far from the identity are retried
    on the loop shrunk toward the base point (factor 1/2, up to
    `_MAX_HALVINGS` times).
    """
    base = np.asarray(base, dtype=float)
    for loop in loops:
        if np.max(np.abs(loop.base - base)) > 1e-9:
            raise MetricError("loop is not based at the requested base point")
        if not loop.is_loop():
            raise MetricError("open path passed to holonomy estimation")
    base_pairs = oracle.curvature_pairs(base)
    pieces = [_pieces(loop) for loop in loops]
    prefixes = [[np.eye(oracle.fiber_dim)] for _ in loops]  # at base, then each piece end
    for k in range(max((len(p) for p in pieces), default=0)):
        lanes = [i for i, p in enumerate(pieces) if k < len(p)]
        ends = tp.parallel_transport(oracle, [pieces[i][k] for i in lanes],
                                     np.stack([prefixes[i][-1] for i in lanes]), tol)
        for i, T in zip(lanes, ends):
            prefixes[i].append(T)
    generators = []
    loop_transports = []
    for loop, loop_pieces, Ts in zip(loops, pieces, prefixes):
        G = Ts.pop()
        conj = list(zip([base] + [piece.end for piece in loop_pieces], Ts))
        loop_transports.append(G)
        current = loop
        for attempt in range(_MAX_HALVINGS + 1):
            try:
                generators.append(matrix_log(G))
                break
            except LogConvergenceError:
                if attempt == _MAX_HALVINGS:
                    raise
                current = tp.scale_path(current, base, 0.5)
                G = tp.transport_matrix(oracle, current, tol)
        for k, (point, T) in enumerate(conj):
            Tinv = np.linalg.inv(T)
            pairs = base_pairs if k == 0 else oracle.curvature_pairs(point)
            d = pairs.shape[0]
            for i in range(d):
                for j in range(i + 1, d):
                    generators.append(Tinv @ pairs[i, j] @ T)

    basis, svals = closed_span(generators, rank_tol)
    return HolonomyAlgebra(
        generators=generators, basis=basis, dim=len(basis),
        sv_profile=svals, rank_tol=rank_tol, base=base,
        fiber_metric=oracle.fiber_metric(base), loop_transports=loop_transports)


def algebra_metric_residual(alg: HolonomyAlgebra) -> float:
    """max of ||B^T H + H B|| over basis elements (orthogonal-algebra check)."""
    H = alg.fiber_metric
    res = 0.0
    for B in alg.basis:
        scale = max(1.0, float(np.max(np.abs(B))))
        res = max(res, float(np.max(np.abs(B.T @ H + H @ B))) / scale)
    return res


def bracket_closure_residual(alg: HolonomyAlgebra) -> float:
    """max projection residual of basis brackets onto the span."""
    if not alg.basis:
        return 0.0
    B = np.stack([b.ravel() for b in alg.basis])
    res = 0.0
    for i, a in enumerate(alg.basis):
        for b in alg.basis[i + 1:]:
            w = (a @ b - b @ a).ravel()
            scale = max(1.0, float(np.max(np.abs(w))))
            proj = B.T @ (B @ w)
            res = max(res, float(np.max(np.abs(w - proj))) / scale)
    return res


def span_residual(algA: HolonomyAlgebra, algB: HolonomyAlgebra) -> float:
    """max Frobenius residual of A-basis elements projected onto span(B)."""
    if not algA.basis:
        return 0.0
    if not algB.basis:
        return max(float(np.linalg.norm(a)) for a in algA.basis)
    B = np.stack([b.ravel() for b in algB.basis])
    res = 0.0
    for a in algA.basis:
        w = a.ravel()
        proj = B.T @ (B @ w)
        res = max(res, float(np.linalg.norm(w - proj)))
    return res


def compare_holonomy(algA: HolonomyAlgebra, algB: HolonomyAlgebra,
                     tol: float = 1e-5) -> dict:
    """Dimension and mutual-span comparison of two holonomy algebras."""
    if algA.basis and algB.basis and algA.basis[0].shape != algB.basis[0].shape:
        raise MetricError("holonomy algebras live in different matrix sizes")
    res_ab = span_residual(algA, algB)
    res_ba = span_residual(algB, algA)
    equal = algA.dim == algB.dim and res_ab <= tol and res_ba <= tol
    return {
        "dim_a": algA.dim,
        "dim_b": algB.dim,
        "residual_a_in_b": res_ab,
        "residual_b_in_a": res_ba,
        "tol": tol,
        "verdict": "equal" if equal else "different",
    }


def fixed_vectors(alg: HolonomyAlgebra, tol: float = 1e-6) -> list:
    """Orthonormal basis of the joint null space of all basis generators."""
    size = alg.fiber_metric.shape[0]
    if not alg.basis:
        return [np.eye(size)[:, k] for k in range(size)]
    stacked = np.vstack(alg.basis)
    _, svals, vt = np.linalg.svd(stacked)
    svals = np.concatenate([svals, np.zeros(size - len(svals))])
    keep = [k for k in range(size) if svals[k] <= tol * svals[0]]
    return [vt[k] for k in keep]


def lift_transport_check(spec, loop: tp.PathSpec, q_expr, v0,
                         tol: float = 1e-10, s_amplitude: float = 0.2) -> dict:
    """Scale-lift transport tests on one chart loop.

    Compares ambient transport along the slice embedding (0, gamma, 1)
    against (a) the reparameterized lift (0, gamma, f(t)) with f(0)=f(1)=1
    and (b) a loop pushed into general (s, q) fibers with s(0)=s(1)=0.
    Also reports the geodesic-flow residual nabla_F F - F at a point of
    the lifted loop.
    """
    oracle = tp.AmbientOracle(spec)
    v0 = np.asarray(v0, dtype=float)
    t = ex.var(0)
    pi_t = ex.mul(ex.const(np.pi), t)
    s_expr = ex.mul(ex.const(s_amplitude), ex.pow_(ex.call("sin", pi_t), 2))
    tilted = tp.lift_loop(loop, s_expr=s_expr, q_expr=q_expr)
    # the slice embedding, the reparameterized lift and the tilted lift, in lockstep
    ref, got_q, got_sq = tp.parallel_transport(
        oracle, [tp.lift_loop(loop), tp.lift_loop(loop, q_expr=q_expr), tilted],
        np.broadcast_to(v0, (3,) + v0.shape), tol)
    res_reparam = float(np.max(np.abs(got_q - ref)))
    res_fiber = float(np.max(np.abs(got_sq - ref)))

    geom = oracle.geom
    p = tilted.segments[0].point(0.37)
    F = geom.fundamental_field(p)
    dF = np.zeros(geom.dim)
    dF[0], dF[-1] = F[0], F[-1]
    res_geo = float(np.max(np.abs(geom.covariant_derivative(p, F, F, dF) - F)))

    return {
        "reparameterized_lift_residual": res_reparam,
        "fiber_loop_residual": res_fiber,
        "geodesic_flow_residual": res_geo,
    }

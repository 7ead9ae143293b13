"""Levi-Civita connection and the curvature stack at a point.

Conventions (pinned by the unit-sphere tests):
  Gamma^k_ij   = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)
  R^l_{ijk}    : R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                 - nabla_[X,Y] Z, components
                 R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                             + Gamma^l_{im} Gamma^m_{jk}
                             - Gamma^l_{jm} Gamma^m_{ik}
  riem_low[i,j,k,l] = <R(e_i,e_j) e_l, e_k>   (unit sphere: riem_low[0,1,0,1] > 0)
  Ric_{jk}     = R^i_{ijk}  (unit n-sphere: Ric = (n-1) g, Scal = n(n-1))
  P            = 1/(n-2) (Ric - Scal/(2n-2) g)   (unit n-sphere: P = g/2)
  W            = riem_low - P (x) g   (Kulkarni-Nomizu; zero for round metrics)
  CY_{ijk}     = (nabla_i P)_{jk} - (nabla_j P)_{ik}

Contractions: the chain runs over a leading batch axis (one point is a
batch of one) and every multi-index contraction is one batched matmul per
point: the free index axes fold into matrix rows or columns, the summed
index is the inner dimension, and index orders change by `transpose`.  So
Gamma^k_ij = 1/2 g^{kl} B_ijl is B as an (n*n, n) matrix times g^{-1}
transposed, then k moved to the front; Gamma.Gamma in Riemann is one
(n*n, n) @ (n, n*n) product.  Only the Ricci traces stay `np.einsum`
calls on this path (`weyl_endomorphism`, a one-point check, keeps its
einsum).  The fields agree with the einsum formulas, which the tests keep
as a reference, to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import MetricJet, MetricSpec, metric_jet

__all__ = [
    "CurvatureStack",
    "ConnectionPoint",
    "compute_stack",
    "stack_at",
    "connection_at",
    "kulkarni_nomizu",
    "connection_curvature",
    "weyl_endomorphism",
]


@dataclass
class CurvatureStack:
    """All point-wise curvature data derived from one metric jet.

    The slot layouts below are per point; the stack of a batched jet puts
    a leading batch axis on every array.
    """

    jet: MetricJet
    Gamma: np.ndarray       # [k,i,j] = Gamma^k_ij
    dGamma: np.ndarray      # [l,k,i,j] = d_l Gamma^k_ij
    Riem: np.ndarray        # [l,i,j,k] = R^l_{ijk}
    riem_low: np.ndarray    # [i,j,k,l] = <R(e_i,e_j)e_l, e_k>
    Ric: np.ndarray
    Scal: float             # a (k,) array for a batch of points
    P: np.ndarray
    Psharp: np.ndarray      # P^i_j = g^{ik} P_kj
    dP: np.ndarray          # [k,i,j] = d_k P_ij
    dPsharp: np.ndarray     # [k,i,j] = d_k Psharp^i_j
    covP: np.ndarray        # [k,i,j] = (nabla_k P)_ij
    W: np.ndarray           # lowered, same slot layout as riem_low
    CY: np.ndarray          # [i,j,k] = (nabla_i P)_jk - (nabla_j P)_ik
    CYsharp: np.ndarray     # [i,j,k] with last slot raised
    dginv: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.jet.n

    @property
    def g(self) -> np.ndarray:
        return self.jet.g

    @property
    def ginv(self) -> np.ndarray:
        return self.jet.ginv


def _batched(jet: MetricJet) -> tuple:
    """The jet's g, ginv, dg, d2g and d3g, each with a leading batch axis;
    d3g is None for an order-2 jet."""
    arrays = (jet.g, jet.ginv, jet.dg, jet.d2g, jet.d3g)
    return arrays if jet.g.ndim == 3 else tuple(None if a is None else a[None] for a in arrays)


def _batched_like(jet: MetricJet, fields: dict) -> dict:
    """`fields`, computed over a leading batch axis, batched like the jet:
    row 0 of every array for one point, with Scal a float."""
    if jet.g.ndim == 3:
        return fields
    fields = {name: value[0] for name, value in fields.items()}
    fields["Scal"] = float(fields["Scal"])
    return fields


def _christoffel(ginv, dg, d2g) -> dict:
    """Gamma, dGamma and dginv over a leading batch axis, plus the
    intermediates the order-3 stack reuses: B = dg combination, its
    partials dB, ginv_dg[m,a,c] = g^{ab} d_m g_bc, and ginvT, the transpose
    of g^{-1} as a C-ordered array (matmul runs faster on it than on a
    transposed view)."""
    nb, n = ginv.shape[:2]
    ginvT = ginv.transpose(0, 2, 1).copy()
    # ginv_dg with rows (m,c) against a; dginv[m,a,d] = -ginv_dg[m,a,c] g^{cd}, rows (m,a)
    ginv_dg = ((dg.transpose(0, 1, 3, 2).reshape(nb, n * n, n) @ ginvT)
               .reshape(nb, n, n, n).transpose(0, 1, 3, 2))
    dginv = -(ginv_dg.reshape(nb, n * n, n) @ ginv).reshape(nb, n, n, n)
    # B[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    B = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    B_rows = B.reshape(nb, n * n, n)  # rows (i,j) against l
    # Gamma[k,i,j] = 1/2 g^{kl} B[i,j,l]: rows (i,j) against k, then k to the front
    Gamma = 0.5 * (B_rows @ ginvT).reshape(nb, n, n, n).transpose(0, 3, 1, 2)
    dB = d2g + d2g.transpose(0, 1, 3, 2, 4) - d2g.transpose(0, 1, 3, 4, 2)
    # dGamma[m,k,i,j] = 1/2 (d_m g^{kl} B[i,j,l] + g^{kl} dB[m,i,j,l]): rows (i,j)
    # against columns (m,k), and rows (m,i,j) against k
    from_dginv = B_rows @ dginv.transpose(0, 3, 1, 2).reshape(nb, n, n * n)
    from_dB = dB.reshape(nb, n ** 3, n) @ ginvT
    dGamma = 0.5 * (from_dginv.reshape(nb, n, n, n, n).transpose(0, 3, 4, 1, 2)
                    + from_dB.reshape(nb, n, n, n, n).transpose(0, 1, 4, 2, 3))
    return dict(Gamma=Gamma, dGamma=dGamma, dginv=dginv, B=B, dB=dB, ginv_dg=ginv_dg,
                ginvT=ginvT)


def _second_christoffel(ginv, dg, d2g, d3g, c: dict):
    """d_p d_m Gamma^k_ij over a leading batch axis, needed for first
    derivatives of Ricci; `c` is the `_christoffel` of the same jet."""
    nb, n = ginv.shape[:2]
    dginv, ginv_dg, ginvT = c["dginv"], c["ginv_dg"], c["ginvT"]
    # d2ginv[p,m] = -(dginv[p] dg[m] ginv + ginv d2g[p,m] ginv + ginv dg[m] dginv[p])
    dg_ginv = (dg.reshape(nb, n * n, n) @ ginv).reshape(nb, n, n, n)  # [m,b,d]
    first = (dginv.reshape(nb, n * n, n)
             @ dg_ginv.transpose(0, 2, 1, 3).reshape(nb, n, n * n))  # [(p,a),(m,d)]
    last = (ginv_dg.reshape(nb, n * n, n)
            @ dginv.transpose(0, 2, 1, 3).reshape(nb, n, n * n))  # [(m,a),(p,d)]
    d2g_ginv = (d2g.reshape(nb, n ** 3, n) @ ginv).reshape(nb, n, n, n, n)  # [p,m,b,d]
    middle = d2g_ginv.transpose(0, 1, 2, 4, 3).reshape(nb, n ** 3, n) @ ginvT  # [(p,m,d),a]
    d2ginv = -(first.reshape(nb, n, n, n, n).transpose(0, 1, 3, 2, 4)
               + middle.reshape(nb, n, n, n, n).transpose(0, 1, 2, 4, 3)
               + last.reshape(nb, n, n, n, n).transpose(0, 3, 1, 2, 4))
    d2B = d3g + d3g.transpose(0, 1, 2, 4, 3, 5) - d3g.transpose(0, 1, 2, 4, 5, 3)
    # d2Gamma[p,m,k,i,j] = 1/2 (d_p d_m g^{kl} B[i,j,l] + d_m g^{kl} dB[p,i,j,l]
    #                           + d_p g^{kl} dB[m,i,j,l] + g^{kl} d2B[p,m,i,j,l])
    from_d2ginv = (c["B"].reshape(nb, n * n, n)
                   @ d2ginv.transpose(0, 4, 1, 2, 3).reshape(nb, n, n ** 3))
    # dB_dginv[a,i,j,c,k] = d_c g^{kl} dB[a,i,j,l] serves both middle terms
    dB_dginv = (c["dB"].reshape(nb, n ** 3, n)
                @ dginv.transpose(0, 3, 1, 2).reshape(nb, n, n * n)).reshape((nb,) + (n,) * 5)
    from_d2B = d2B.reshape(nb, n ** 4, n) @ ginvT
    return 0.5 * (from_d2ginv.reshape((nb,) + (n,) * 5).transpose(0, 3, 4, 5, 1, 2)
                  + dB_dginv.transpose(0, 1, 4, 5, 2, 3)
                  + dB_dginv.transpose(0, 4, 1, 5, 2, 3)
                  + from_d2B.reshape((nb,) + (n,) * 5).transpose(0, 1, 2, 5, 3, 4))


def _riemann(Gamma, dGamma):
    """R^l_{ijk} over a leading batch axis from Gamma and its first partials.

    A[l,i,j,k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk, with the product one
    (n*n, n) @ (n, n*n) GEMM per point, and R is A minus A with i, j swapped.
    """
    nb, n = Gamma.shape[:2]
    A = (dGamma.transpose(0, 2, 1, 3, 4)
         + (Gamma.reshape(nb, n * n, n) @ Gamma.reshape(nb, n, n * n)).reshape(nb, n, n, n, n))
    return A - A.transpose(0, 1, 3, 2, 4)


def _connection_fields(g, ginv, dg, d2g) -> dict:
    """Christoffel -> Riemann -> Ricci -> Schouten -> Psharp over a leading
    batch axis, from the order-2 part of a jet.

    The one copy of this chain: `connection_at` returns its fields and
    `compute_stack` extends them to order three.  Scal is a (k,) array.
    """
    nb, n = g.shape[:2]
    if n < 3:
        raise ValueError("Schouten tensor requires n >= 3")
    c = _christoffel(ginv, dg, d2g)
    Riem = _riemann(c["Gamma"], c["dGamma"])
    Ric = np.einsum("...iijk->...jk", Riem)
    Scal = (ginv.reshape(nb, 1, n * n) @ Ric.reshape(nb, n * n, 1))[:, 0, 0]
    P = (1.0 / (n - 2)) * (Ric - Scal[:, None, None] / (2 * n - 2) * g)
    return dict(c, Riem=Riem, Ric=Ric, Scal=Scal, P=P, Psharp=ginv @ P)


def kulkarni_nomizu(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) B)_{ijkl} = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.

    Each term is a transpose of the outer product T_ijkl = A_ik B_jl.
    """
    T = A[..., :, None, :, None] * B[..., None, :, None, :]
    return (T + T.swapaxes(-4, -3).swapaxes(-2, -1)
            - T.swapaxes(-2, -1) - T.swapaxes(-4, -3))


def compute_stack(jet: MetricJet) -> CurvatureStack:
    """The curvature stack of an order-3 jet, batched like the jet."""
    g, ginv, dg, d2g, d3g = _batched(jet)
    nb, n = g.shape[:2]
    c = _connection_fields(g, ginv, dg, d2g)
    dginv, Gamma, dGamma, Ric, Scal, P = (c[name] for name in ("dginv", "Gamma", "dGamma",
                                                               "Ric", "Scal", "P"))
    d2Gamma = _second_christoffel(ginv, dg, d2g, d3g, c)

    # dRiem[p,l,i,j,k] = A - A with i, j swapped, where
    # A = d_p d_i Gamma^l_jk + d_p Gamma^l_im Gamma^m_jk + Gamma^l_im d_p Gamma^m_jk
    A = (d2Gamma.transpose(0, 1, 3, 2, 4, 5)
         + (dGamma.reshape(nb, n ** 3, n) @ Gamma.reshape(nb, n, n * n)).reshape((nb,) + (n,) * 5)
         + (Gamma.reshape(nb, n * n, n) @ dGamma.transpose(0, 2, 1, 3, 4).reshape(nb, n, n ** 3))
         .reshape((nb,) + (n,) * 5).transpose(0, 3, 1, 2, 4, 5))
    dRiem = A - A.transpose(0, 1, 2, 4, 3, 5)
    dRic = np.einsum("...piijk->...pjk", dRiem)
    dScal = (dginv.reshape(nb, n, n * n) @ Ric.reshape(nb, n * n, 1)
             + dRic.reshape(nb, n, n * n) @ ginv.reshape(nb, n * n, 1))[..., 0]

    cP = 1.0 / (n - 2)
    cS = 1.0 / (2 * n - 2)
    dP = cP * (dRic - cS * (dScal[:, :, None, None] * g[:, None]
                            + Scal[:, None, None, None] * dg))
    # dPsharp[p,i,j] = d_p g^{ik} P_kj + g^{ik} d_p P_kj, the second with rows (p,j)
    dPsharp = ((dginv.reshape(nb, n * n, n) @ P).reshape(nb, n, n, n)
               + (dP.transpose(0, 1, 3, 2).reshape(nb, n * n, n) @ c["ginvT"])
               .reshape(nb, n, n, n).transpose(0, 1, 3, 2))

    # covP[k,i,j] = d_k P_ij - Gamma^m_ki P_mj - Gamma^m_kj P_im, rows (k,i) and (k,j)
    Gamma_rows = Gamma.transpose(0, 2, 3, 1).reshape(nb, n * n, n)
    covP = (dP - (Gamma_rows @ P).reshape(nb, n, n, n)
            - (Gamma_rows @ P.transpose(0, 2, 1)).reshape(nb, n, n, n).transpose(0, 1, 3, 2))
    CY = covP - covP.transpose(0, 2, 1, 3)
    CYsharp = (CY.reshape(nb, n * n, n) @ ginv).reshape(nb, n, n, n)

    # riem_low[i,j,k,l] = g_km R^m_ijl: one (n, n) @ (n, n**3) product per point
    riem_low = ((g @ c["Riem"].reshape(nb, n, n ** 3)).reshape(nb, n, n, n, n)
                .transpose(0, 2, 3, 1, 4))
    W = riem_low - kulkarni_nomizu(P, g)

    fields = _batched_like(jet, dict(
        Gamma=Gamma, dGamma=dGamma, Riem=c["Riem"], riem_low=riem_low, Ric=Ric, Scal=Scal,
        P=P, Psharp=c["Psharp"], dP=dP, dPsharp=dPsharp, covP=covP, W=W, CY=CY,
        CYsharp=CYsharp, dginv=dginv))
    return CurvatureStack(jet=jet, **fields)


def stack_at(spec: MetricSpec, x) -> CurvatureStack:
    """The curvature stack at one point x."""
    return compute_stack(metric_jet(spec, x))


@dataclass
class ConnectionPoint:
    """Light subset of the stack needed to evaluate connection matrices,
    plus the Riemann tensor the same chain computes.

    Built from an order-2 jet, so it is cheap enough for the inner loop of
    a transport integrator.  Field layout mirrors CurvatureStack.
    """

    jet: MetricJet
    Gamma: np.ndarray
    Riem: np.ndarray
    Ric: np.ndarray
    Scal: float             # a (k,) array for a batch of points
    P: np.ndarray
    Psharp: np.ndarray

    @property
    def n(self) -> int:
        return self.jet.n

    @property
    def g(self) -> np.ndarray:
        return self.jet.g

    @property
    def ginv(self) -> np.ndarray:
        return self.jet.ginv


def connection_at(spec: MetricSpec, x) -> ConnectionPoint:
    """Christoffel and Schouten data from the order-2 jet only.

    x is one point or a (k, n) stack of points, as for `metric_jet`.
    """
    jet = metric_jet(spec, x, order=2)
    c = _connection_fields(*_batched(jet)[:4])
    return ConnectionPoint(jet=jet, **_batched_like(jet, {
        name: c[name] for name in ("Gamma", "Riem", "Ric", "Scal", "P", "Psharp")}))


def _christoffel_matrices(Gamma, X) -> np.ndarray:
    """[..., c, k, j] = Gamma^k_ij X[..., c, i]: the Christoffel matrices of the
    c direction rows of X.

    Gamma is one point's (n, n, n) array or a (k, n, n, n) stack; X is
    (..., c, n), batched like Gamma.  Gamma's free indices fold into the
    rows of one fresh (n*n, n) matrix per point, whatever its memory
    layout, and each direction is one (n*n, n) @ (n, 1) product: a
    direction's matrix does not depend on how many directions share the call.
    """
    n = Gamma.shape[-1]
    rows = Gamma.swapaxes(-2, -1).reshape(Gamma.shape[:-3] + (1, n * n, n))  # [(k, j), i]
    return (rows @ X[..., :, None]).reshape(X.shape[:-1] + (n, n))


def connection_curvature(omegas: np.ndarray, dOmega: np.ndarray) -> np.ndarray:
    """R[a, b] = d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b] for all pairs.

    omegas[a] is the connection matrix of coordinate direction a and
    dOmega[a, b] = d_a Omega_b; the result is antisymmetric in (a, b).
    """
    products = omegas[:, None] @ omegas[None, :]  # [a, b] = Omega_a Omega_b
    return dOmega - np.swapaxes(dOmega, 0, 1) + products - np.swapaxes(products, 0, 1)


def weyl_endomorphism(stack: CurvatureStack, X, Y) -> np.ndarray:
    """Matrix of Z -> W(X,Y)Z with one index raised by g."""
    low = np.einsum("i,j,ijkl->kl", X, Y, stack.W)
    return stack.ginv @ low

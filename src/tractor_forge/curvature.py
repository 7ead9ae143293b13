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

Three routes share one Christoffel head (ginvT, B, Gamma) and one
Schouten tail (Scal, P, Psharp, and dP, dPsharp from dRic):
  - `compute_stack` (order-3 jet) adds the derivative part (dginv, dB,
    dGamma, d2Gamma), the Riemann tensor and its partials and the order-3
    fields, and takes Ric and dRic as traces of the Riemann tensor and its
    partials.  `stack_at` and every reader of Riem, W, covP or CY use it.
  - `connection_at` (order-2 jet) forms neither dGamma nor the Riemann
    tensor: it contracts Ricci straight from g^{-1}, dg and d2g
    (`_contracted_ricci`).  Tractor and on-slice ambient transport nodes
    use it.
  - `connection_at(..., order=3)` adds dGamma and contracts dRic straight
    from g^{-1}, dg, d2g and d3g (`_contracted_dricci`), for dPsharp; the
    order-2 fields stay bit for bit.  Along the coordinate directions it
    gives the full dPsharp, which the ambient FD stencil reads.  Given
    directions, every factor that carries the derivative index is
    contracted with them first (`_along`), so dGamma, dRic and dPsharp
    come along those directions only, at n**4 per direction rather than
    n**5 per point: each off-slice ambient transport node asks for its own
    tangent.  It is one formula; the coordinate directions skip the
    contraction.
The routes agree to rounding.  The caller's need picks the route: at one
point the number of numpy calls, not the array size, sets the cost, and
the contracted dRic made one-point `compute_stack` calls slower when tried
inside it.

Contractions: all three routes run over a leading batch axis (one point is a
batch of one) and every multi-index contraction is one batched matmul per
point: the free index axes fold into matrix rows or columns, the summed
index is the inner dimension, and index orders change by `transpose`.  So
Gamma^k_ij = 1/2 g^{kl} B_ijl is B as an (n*n, n) matrix times g^{-1}
transposed, then k moved to the front; Gamma.Gamma in Riemann is one
(n*n, n) @ (n, n*n) product.  Only the stack's Ricci and dRic traces stay
`np.einsum` calls on this path (`weyl_endomorphism`, a one-point check,
keeps its einsum).  The fields agree with the einsum formulas, which the
tests keep as a reference, to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .metric import MetricJet, MetricSpec, metric_jet

__all__ = [
    "CurvatureStack",
    "ConnectionPoint",
    "compute_stack",
    "stack_at",
    "take_rows",
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
    dginv: np.ndarray = field(repr=False)

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


def _christoffel(ginv, dg) -> dict:
    """The head both chains share, over a leading batch axis: Gamma, the dg
    combination B it contracts, and ginvT, the transpose of g^{-1} as a
    C-ordered array (matmul runs faster on it than on a transposed view)."""
    nb, n = ginv.shape[:2]
    ginvT = ginv.transpose(0, 2, 1).copy()
    # B[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    B = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    # Gamma[k,i,j] = 1/2 g^{kl} B[i,j,l]: rows (i,j) against k, then k to the front
    Gamma = 0.5 * (B.reshape(nb, n * n, n) @ ginvT).reshape(nb, n, n, n).transpose(0, 3, 1, 2)
    return dict(Gamma=Gamma, B=B, ginvT=ginvT)


def _along(a, dirs):
    """a with its derivative axis, the first after the batch axis,
    contracted with the (k, c, n) directions `dirs`: the derivative axis
    then holds the c directional derivatives.  dirs None stands for the
    coordinate directions, whose contraction is skipped: a itself."""
    if dirs is None:
        return a
    nb, n = a.shape[:2]
    return (dirs @ a.reshape(nb, n, -1)).reshape(dirs.shape[:2] + a.shape[2:])


def _christoffel_partials(ginv, dg, d2g, c: dict, dirs=None) -> dict:
    """dGamma along the directions `dirs` (`_along`) and dginv over a leading
    batch axis, plus the intermediates the order-3 stack and dRic reuse: dB
    along `dirs`, ginv_dg[m,a,c] = g^{ab} d_m g_bc, and dginv_u and d2g_u,
    dginv and d2g along `dirs`; `c` is the `_christoffel` head."""
    nb, n = ginv.shape[:2]
    ginvT = c["ginvT"]
    # ginv_dg with rows (m,c) against a; dginv[m,a,d] = -ginv_dg[m,a,c] g^{cd}, rows (m,a)
    ginv_dg = ((dg.transpose(0, 1, 3, 2).reshape(nb, n * n, n) @ ginvT)
               .reshape(nb, n, n, n).transpose(0, 1, 3, 2))
    dginv = -(ginv_dg.reshape(nb, n * n, n) @ ginv).reshape(nb, n, n, n)
    dginv_u, d2g_u = _along(dginv, dirs), _along(d2g, dirs)
    d = dginv_u.shape[1]  # the derivative axis: n coordinate directions, or c
    dB = d2g_u + d2g_u.transpose(0, 1, 3, 2, 4) - d2g_u.transpose(0, 1, 3, 4, 2)
    # dGamma[m,k,i,j] = 1/2 (d_m g^{kl} B[i,j,l] + g^{kl} dB[m,i,j,l]): rows (i,j)
    # against columns (m,k), and rows (m,i,j) against k
    from_dginv = (c["B"].reshape(nb, n * n, n)
                  @ dginv_u.transpose(0, 3, 1, 2).reshape(nb, n, d * n))
    from_dB = dB.reshape(nb, d * n * n, n) @ ginvT
    dGamma = 0.5 * (from_dginv.reshape(nb, n, n, d, n).transpose(0, 3, 4, 1, 2)
                    + from_dB.reshape(nb, d, n, n, n).transpose(0, 1, 4, 2, 3))
    return dict(dGamma=dGamma, dginv=dginv, dB=dB, ginv_dg=ginv_dg, dginv_u=dginv_u,
                d2g_u=d2g_u)


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


def _contracted_ricci(ginv, dg, d2g, c: dict):
    """Ric over a leading batch axis from the order-2 jet and the
    `_christoffel` head, without dGamma or the Riemann tensor:

      Ric_jk = d_i Gamma^i_jk - d_j c_k + c_m Gamma^m_jk - Gamma^i_jm Gamma^m_ik

    with c_k = Gamma^i_ik = 1/2 tr(g^{-1} d_k g),
    d_j c_k = 1/2 (tr(g^{-1} d_j d_k g) - tr(g^{-1} d_j g g^{-1} d_k g)) and
    d_i Gamma^i_jk = 1/2 (v^l B[j,k,l]
                          + g^{il} (d_i d_j g_kl + d_i d_k g_jl - d_i d_l g_jk)),
    v^l = d_i g^{il} = -g^{ia} d_i g_ab g^{bl}.  The symmetries of d2g put each
    contracted index pair side by side, so every term is one batched matmul.
    Returns Ric and a dict of the intermediates `_contracted_dricci` reuses:
    dg_ginv, v, trace (c_k as a column), d_trace (d_j c_k), inner and GammaT.
    """
    nb, n = ginv.shape[:2]
    Gamma = c["Gamma"]
    ginv_row = ginv.reshape(nb, 1, n * n)
    d2g_sq = d2g.reshape(nb, n * n, n * n)
    # dg_ginv[k,a,c] = d_k g_ab g^{bc}, so tr(g^{-1} d_j g g^{-1} d_k g) is
    # dg_ginv[j,a,c] dg_ginv[k,c,a], and v^l = -g^{ka} dg_ginv[k,a,l]
    dg_ginv = (dg.reshape(nb, n * n, n) @ ginv).reshape(nb, n, n, n)
    tr_dd = (dg_ginv.reshape(nb, n, n * n)
             @ dg_ginv.transpose(0, 3, 2, 1).reshape(nb, n * n, n))
    v = -(ginv_row @ dg_ginv.reshape(nb, n * n, n))
    trace = 0.5 * (dg.reshape(nb, n, n * n) @ ginv.reshape(nb, n * n, 1))  # c_k as a column
    d_trace = 0.5 * ((d2g_sq @ ginv.reshape(nb, n * n, 1)).reshape(nb, n, n) - tr_dd)
    # g^{il} d_i d_j g_kl = g^{il} d2g[j,i,l,k]: (i,l) the middle rows of each j
    inner = (ginv.reshape(nb, 1, 1, n * n) @ d2g.reshape(nb, n, n * n, n)).reshape(nb, n, n)
    box = (ginv_row @ d2g_sq).reshape(nb, n, n)  # g^{il} d_i d_l g_jk
    div_Gamma = 0.5 * ((c["B"].reshape(nb, n * n, n) @ v.reshape(nb, n, 1)).reshape(nb, n, n)
                       + inner + inner.transpose(0, 2, 1) - box)
    # c_m Gamma^m_jk: Gamma's rows (j,k) against m, a view of its memory
    trace_Gamma = (Gamma.transpose(0, 2, 3, 1).reshape(nb, n * n, n) @ trace).reshape(nb, n, n)
    # GammaT[j,i,m] = Gamma^i_jm: rows j against (i,m), and rows (i,m) against k
    GammaT = Gamma.transpose(0, 2, 1, 3).copy()
    quadratic = GammaT.reshape(nb, n, n * n) @ GammaT.reshape(nb, n * n, n)
    parts = dict(dg_ginv=dg_ginv, v=v, trace=trace, d_trace=d_trace, inner=inner, GammaT=GammaT)
    return div_Gamma - d_trace + trace_Gamma - quadratic, parts


def _contracted_dricci(ginv, dg, d2g, d3g, c: dict, parts: dict, dirs=None):
    """d_p Ric_jk over a leading batch axis from the order-3 jet, without
    d2Gamma or the Riemann tensor, along the directions `dirs` (`_along`);
    `c` is the `_christoffel` head with its `_christoffel_partials` along the
    same directions, and `parts` the intermediates `_contracted_ricci`
    returned with Ric:

      d_p Ric_jk = d_p d_i Gamma^i_jk - d_p d_j c_k + (d_p c_m) Gamma^m_jk
                   + c_m d_p Gamma^m_jk - d_p Gamma^i_jm Gamma^m_ik - Gamma^i_jm d_p Gamma^m_ik

    The last two terms are one product and its transpose in (j, k).  The
    traced second derivatives differentiate `_contracted_ricci`'s forms once
    more, with D_k = g^{-1} d_k g:
      d_p d_i Gamma^i_jk = 1/2 (d_p v^l B[j,k,l] + v^l dB[p,j,k,l]
                                + X_pjk + X_pkj - Y_pjk),
      X_pjk = d_p g^{il} d_i d_j g_kl + g^{il} d_p d_i d_j g_kl,
      Y_pjk = d_p g^{il} d_i d_l g_jk + g^{il} d_p d_i d_l g_jk,
      d_p v^l = -(d_p g^{ia} d_i g_ab + g^{ia} d_p d_i g_ab) g^{bl} - v^a d_p g_ab g^{bl};
      d_p d_j c_k = 1/2 (g^{ab} d_p d_j d_k g_ab + U_pjk + U_jpk + U_kpj
                         + tr(D_p D_j D_k) + tr(D_p D_k D_j)),
      U_pjk = d_p g^{ab} d_j d_k g_ab.
    Along directions u, p stands for u: every factor that carries it (the
    differentiated slot of d3g and d2g, dginv, dg_ginv, D, dB, dGamma and
    d_trace) is contracted with u before any product, so each term costs
    n**4 per direction, apart from D_j D_k, which no direction enters.  Each
    contraction is one batched matmul, and no array is larger than d3g.
    """
    nb, n = ginv.shape[:2]
    Gamma, dGamma, dginv, D = c["Gamma"], c["dGamma"], c["dginv"], c["ginv_dg"]
    v = parts["v"]
    dginv_u, D_u, d3g_u = c["dginv_u"], _along(D, dirs), _along(d3g, dirs)
    inner_u, dg_ginv_u, d_trace_u = (_along(parts[name], dirs)
                                     for name in ("inner", "dg_ginv", "d_trace"))
    d = dginv_u.shape[1]  # the derivative axis: n coordinate directions, or c
    ginv_row = ginv.reshape(nb, 1, 1, n * n)
    dginv_rows = dginv_u.reshape(nb, d, n * n)
    d2g_sq = d2g.reshape(nb, n * n, n * n)
    d3g_sq = d3g_u.reshape(nb, d, n * n, n * n)
    dv = (-((dginv_rows @ dg.reshape(nb, n * n, n) + inner_u) @ ginv)
          - (v[:, None] @ dg_ginv_u)[:, :, 0])
    # U[p,j,k] = U_pjk; XU[j,p,k] = d_p g^{il} d_i d_j g_kl - U_jpk, the first
    # with (i, l) the middle rows of each j in d2g[j,i,l,k]
    U = (dginv_rows @ d2g_sq.transpose(0, 2, 1)).reshape(nb, d, n, n)
    U_jpk = U if dirs is None else (dginv.reshape(nb, n, n * n) @ c["d2g_u"].reshape(
        nb, d * n, n * n).transpose(0, 2, 1)).reshape(nb, n, d, n)
    XU = (dginv_u.reshape(nb, 1, d, n * n) @ d2g.reshape(nb, n, n * n, n)) - U_jpk
    # DD[j,a,k,c] = (D_j D_k)[a,c], then tr(D_p D_j D_k) with rows (c,a)
    DD = D.reshape(nb, n * n, n) @ D.transpose(0, 2, 1, 3).reshape(nb, n, n * n)
    C = (D_u.reshape(nb, d, n * n)
         @ DD.reshape(nb, n, n, n, n).transpose(0, 4, 2, 1, 3).reshape(nb, n * n, n * n))
    # d_p Gamma^i_jm Gamma^m_ik: rows (p,j) against (i,m), and rows (i,m) against k
    quadratic = (dGamma.transpose(0, 1, 3, 2, 4).reshape(nb, d * n, n * n)
                 @ parts["GammaT"].reshape(nb, n * n, n))
    # W + W^T collects the terms that are not symmetric in (j, k) one by one
    W = (XU.transpose(0, 2, 1, 3)
         + (ginv_row @ d3g_u.reshape(nb, d * n, n * n, n)).reshape(nb, d, n, n)
         - C.reshape(nb, d, n, n) - 2.0 * quadratic.reshape(nb, d, n, n))
    # the symmetric terms, with rows p against (j,k)
    symmetric = (dv @ c["B"].reshape(nb, n * n, n).transpose(0, 2, 1)
                 + (c["dB"].reshape(nb, d, n * n, n) @ v.reshape(nb, 1, n, 1))[..., 0]
                 - dginv_rows @ d2g_sq - (ginv_row @ d3g_sq)[:, :, 0]
                 - (d3g_sq @ ginv.reshape(nb, 1, n * n, 1))[..., 0] - U.reshape(nb, d, n * n))
    # (d_p c_m) Gamma^m_jk + c_m d_p Gamma^m_jk
    trace_Gamma = ((d_trace_u @ Gamma.reshape(nb, n, n * n))
                   + (parts["trace"].reshape(nb, 1, 1, n)
                      @ dGamma.reshape(nb, d, n, n * n))[:, :, 0])
    return (0.5 * (symmetric.reshape(nb, d, n, n) + W + W.transpose(0, 1, 3, 2))
            + trace_Gamma.reshape(nb, d, n, n))


def _schouten(g, ginv, Ric) -> tuple:
    """The tail both chains share: Scal (a (k,) array), P and Psharp over a
    leading batch axis."""
    nb, n = g.shape[:2]
    if n < 3:
        raise ValueError("Schouten tensor requires n >= 3")
    Scal = (ginv.reshape(nb, 1, n * n) @ Ric.reshape(nb, n * n, 1))[:, 0, 0]
    P = (1.0 / (n - 2)) * (Ric - Scal[:, None, None] / (2 * n - 2) * g)
    return Scal, P, ginv @ P


def _schouten_partials(g, ginv, dg, Ric, Scal, P, dRic, c: dict, dirs=None) -> tuple:
    """dP and dPsharp over a leading batch axis from dRic and the Schouten
    tail, along the directions `dirs` of dRic (`_along`); `c` carries the
    jet's dginv along them and ginvT."""
    nb, n = g.shape[:2]
    dginv, dg = c["dginv_u"], _along(dg, dirs)
    d = dginv.shape[1]  # the derivative axis: n coordinate directions, or c
    dScal = (dginv.reshape(nb, d, n * n) @ Ric.reshape(nb, n * n, 1)
             + dRic.reshape(nb, d, n * n) @ ginv.reshape(nb, n * n, 1))[..., 0]
    cP = 1.0 / (n - 2)
    cS = 1.0 / (2 * n - 2)
    dP = cP * (dRic - cS * (dScal[:, :, None, None] * g[:, None]
                            + Scal[:, None, None, None] * dg))
    # dPsharp[p,i,j] = d_p g^{ik} P_kj + g^{ik} d_p P_kj, the second with rows (p,j)
    dPsharp = ((dginv.reshape(nb, d * n, n) @ P).reshape(nb, d, n, n)
               + (dP.transpose(0, 1, 3, 2).reshape(nb, d * n, n) @ c["ginvT"])
               .reshape(nb, d, n, n).transpose(0, 1, 3, 2))
    return dP, dPsharp


def kulkarni_nomizu(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) B)_{ijkl} = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.

    Each term is a transpose of the outer product T_ijkl = A_ik B_jl.
    """
    T = A[..., :, None, :, None] * B[..., None, :, None, :]
    return (T + T.swapaxes(-4, -3).swapaxes(-2, -1)
            - T.swapaxes(-2, -1) - T.swapaxes(-4, -3))


def compute_stack(jet: MetricJet) -> CurvatureStack:
    """The curvature stack of an order-3 jet, batched like the jet.

    Ric is the trace of the Riemann tensor, which the stack keeps."""
    g, ginv, dg, d2g, d3g = _batched(jet)
    nb, n = g.shape[:2]
    c = _christoffel(ginv, dg)
    c.update(_christoffel_partials(ginv, dg, d2g, c))
    Gamma, dGamma, dginv = c["Gamma"], c["dGamma"], c["dginv"]
    Riem = _riemann(Gamma, dGamma)
    Ric = np.einsum("...iijk->...jk", Riem)
    Scal, P, Psharp = _schouten(g, ginv, Ric)
    d2Gamma = _second_christoffel(ginv, dg, d2g, d3g, c)

    # dRiem[p,l,i,j,k] = A - A with i, j swapped, where
    # A = d_p d_i Gamma^l_jk + d_p Gamma^l_im Gamma^m_jk + Gamma^l_im d_p Gamma^m_jk
    A = (d2Gamma.transpose(0, 1, 3, 2, 4, 5)
         + (dGamma.reshape(nb, n ** 3, n) @ Gamma.reshape(nb, n, n * n)).reshape((nb,) + (n,) * 5)
         + (Gamma.reshape(nb, n * n, n) @ dGamma.transpose(0, 2, 1, 3, 4).reshape(nb, n, n ** 3))
         .reshape((nb,) + (n,) * 5).transpose(0, 3, 1, 2, 4, 5))
    dRiem = A - A.transpose(0, 1, 2, 4, 3, 5)
    dRic = np.einsum("...piijk->...pjk", dRiem)
    dP, dPsharp = _schouten_partials(g, ginv, dg, Ric, Scal, P, dRic, c)

    # covP[k,i,j] = d_k P_ij - Gamma^m_ki P_mj - Gamma^m_kj P_im, rows (k,i) and (k,j)
    Gamma_rows = Gamma.transpose(0, 2, 3, 1).reshape(nb, n * n, n)
    covP = (dP - (Gamma_rows @ P).reshape(nb, n, n, n)
            - (Gamma_rows @ P.transpose(0, 2, 1)).reshape(nb, n, n, n).transpose(0, 1, 3, 2))
    CY = covP - covP.transpose(0, 2, 1, 3)
    CYsharp = (CY.reshape(nb, n * n, n) @ ginv).reshape(nb, n, n, n)

    # riem_low[i,j,k,l] = g_km R^m_ijl: one (n, n) @ (n, n**3) product per point
    riem_low = ((g @ Riem.reshape(nb, n, n ** 3)).reshape(nb, n, n, n, n)
                .transpose(0, 2, 3, 1, 4))
    W = riem_low - kulkarni_nomizu(P, g)

    fields = _batched_like(jet, dict(
        Gamma=Gamma, dGamma=dGamma, Riem=Riem, riem_low=riem_low, Ric=Ric, Scal=Scal,
        P=P, Psharp=Psharp, dP=dP, dPsharp=dPsharp, covP=covP, W=W, CY=CY,
        CYsharp=CYsharp, dginv=dginv))
    return CurvatureStack(jet=jet, **fields)


def stack_at(spec: MetricSpec, x) -> CurvatureStack:
    """The curvature stack at one point x."""
    return compute_stack(metric_jet(spec, x))


def take_rows(data, rows):
    """A batched jet, stack or connection point cut to the batch `rows` (a
    slice or index list): each array, the jet's too, indexed alike."""
    values = {f.name: getattr(data, f.name) for f in fields(data)}
    return replace(data, **{name: v[rows] if isinstance(v, np.ndarray) else take_rows(v, rows)
                            for name, v in values.items()
                            if isinstance(v, (np.ndarray, MetricJet))})


def _repeat_rows(data, count: int):
    """A one-point jet, stack or connection point as a batch of `count`
    copies, each row the one-point data (its Scal a float) bit for bit."""
    values = {f.name: getattr(data, f.name) for f in fields(data)}
    return replace(data, **{name: _repeat_rows(v, count) if isinstance(v, MetricJet)
                            else np.repeat(np.asarray(v)[None], count, axis=0)
                            for name, v in values.items()
                            if isinstance(v, (np.ndarray, float, MetricJet))})


@dataclass
class ConnectionPoint:
    """Light subset of the stack needed to evaluate connection matrices.

    Built with Ricci by its contracted formula, so it forms neither the
    Riemann tensor nor, from an order-2 jet, dGamma, and is cheap enough for
    the inner loop of a transport integrator.  From an order-3 jet it also
    carries dPsharp, which the ambient connection needs off the slice: the
    full [p,i,j] = d_p Psharp^i_j, or [c,i,j] along the c directions that
    `connection_at` was given; from an order-2 jet dPsharp is None.  Field
    layout mirrors CurvatureStack.
    """

    jet: MetricJet
    Gamma: np.ndarray
    Ric: np.ndarray
    Scal: float             # a (k,) array for a batch of points
    P: np.ndarray
    Psharp: np.ndarray
    dPsharp: np.ndarray | None

    @property
    def n(self) -> int:
        return self.jet.n

    @property
    def g(self) -> np.ndarray:
        return self.jet.g

    @property
    def ginv(self) -> np.ndarray:
        return self.jet.ginv


def connection_at(spec: MetricSpec, x, order: int = 2, directions=None) -> ConnectionPoint:
    """Christoffel and Schouten data from the jet of the given order (2 or 3).

    x is one point or a (k, n) stack of points, as for `metric_jet`.  At
    order 3 dPsharp comes from the contracted dRic (`_contracted_dricci`);
    Gamma, Ric, P and Psharp are those of order 2, bit for bit.  With
    `directions` None, dPsharp[p] = d_p Psharp along the coordinate
    directions; given a (c, n) stack of directions u per point ((k, c, n)
    for k points), dPsharp[c] = u_c^p d_p Psharp, each factor contracted
    with the directions before any product (an order-2 call ignores them).
    """
    jet = metric_jet(spec, x, order=order)
    g, ginv, dg, d2g, d3g = _batched(jet)
    c = _christoffel(ginv, dg)
    Ric, parts = _contracted_ricci(ginv, dg, d2g, c)
    Scal, P, Psharp = _schouten(g, ginv, Ric)
    fields = dict(Gamma=c["Gamma"], Ric=Ric, Scal=Scal, P=P, Psharp=Psharp)
    if d3g is None:
        return ConnectionPoint(jet=jet, dPsharp=None, **_batched_like(jet, fields))
    dirs = None if directions is None else np.reshape(directions, (len(g), -1, jet.n))
    c.update(_christoffel_partials(ginv, dg, d2g, c, dirs))
    dRic = _contracted_dricci(ginv, dg, d2g, d3g, c, parts, dirs)
    fields["dPsharp"] = _schouten_partials(g, ginv, dg, Ric, Scal, P, dRic, c, dirs)[1]
    return ConnectionPoint(jet=jet, **_batched_like(jet, fields))


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
    Leading axes, the same on both, batch points; each row is the one-point
    result.
    """
    products = omegas[..., :, None, :, :] @ omegas[..., None, :, :, :]  # [a, b] = Omega_a Omega_b
    return dOmega - np.swapaxes(dOmega, -4, -3) + products - np.swapaxes(products, -4, -3)


def weyl_endomorphism(stack: CurvatureStack, X, Y) -> np.ndarray:
    """Matrix of Z -> W(X,Y)Z with one index raised by g; one per row of
    (c, n) stacks X and Y at one point."""
    low = np.einsum("...i,...j,ijkl->...kl", X, Y, stack.W)
    return stack.ginv @ low

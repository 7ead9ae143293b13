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
    "christoffel",
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


def christoffel(jet: MetricJet):
    """Christoffel symbols, their first partials and d(g^{-1}) from the jet."""
    return _christoffel(jet)[:3]


def _christoffel(jet: MetricJet):
    """`christoffel`, plus the B = dg combination and its partials dB."""
    ginv, dg, d2g = jet.ginv, jet.dg, jet.d2g
    dginv = -np.einsum("...ab,...kbc,...cd->...kad", ginv, dg, ginv)
    # B[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    B = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    Gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, B)
    dB = d2g + np.einsum("...mjil->...mijl", d2g) - np.einsum("...mlij->...mijl", d2g)
    dGamma = 0.5 * (np.einsum("...mkl,...ijl->...mkij", dginv, B)
                    + np.einsum("...kl,...mijl->...mkij", ginv, dB))
    return Gamma, dGamma, dginv, B, dB


def _second_christoffel(jet: MetricJet, dginv, B, dB):
    """d_p d_m Gamma^k_ij, needed for first derivatives of Ricci."""
    ginv, dg, d2g, d3g = jet.ginv, jet.dg, jet.d2g, jet.d3g
    d2ginv = -(np.einsum("...pab,...mbc,...cd->...pmad", dginv, dg, ginv)
               + np.einsum("...ab,...pmbc,...cd->...pmad", ginv, d2g, ginv)
               + np.einsum("...ab,...mbc,...pcd->...pmad", ginv, dg, dginv))
    d2B = (d3g + np.einsum("...pmjil->...pmijl", d3g)
           - np.einsum("...pmlij->...pmijl", d3g))
    return 0.5 * (np.einsum("...pmkl,...ijl->...pmkij", d2ginv, B)
                  + np.einsum("...mkl,...pijl->...pmkij", dginv, dB)
                  + np.einsum("...pkl,...mijl->...pmkij", dginv, dB)
                  + np.einsum("...kl,...pmijl->...pmkij", ginv, d2B))


def _riemann(Gamma, dGamma):
    """R^l_{ijk} from Gamma and its first partials."""
    return (np.einsum("...iljk->...lijk", dGamma) - np.einsum("...jlik->...lijk", dGamma)
            + np.einsum("...lim,...mjk->...lijk", Gamma, Gamma)
            - np.einsum("...ljm,...mik->...lijk", Gamma, Gamma))


def _connection_fields(jet: MetricJet) -> dict:
    """Christoffel -> Riemann -> Ricci -> Schouten -> Psharp, from an order-2 jet.

    The one copy of this chain: `connection_at` returns its fields and
    `compute_stack` extends them to order three.  Every array keeps the
    jet's leading batch axis, if any; Scal is a float for one point.
    """
    n = jet.n
    if n < 3:
        raise ValueError("Schouten tensor requires n >= 3")
    Gamma, dGamma, dginv, B, dB = _christoffel(jet)
    Riem = _riemann(Gamma, dGamma)
    Ric = np.einsum("...iijk->...jk", Riem)
    Scal = np.einsum("...jk,...jk->...", jet.ginv, Ric)
    Scal = float(Scal) if Scal.ndim == 0 else Scal
    P = (1.0 / (n - 2)) * (Ric - np.asarray(Scal)[..., None, None] / (2 * n - 2) * jet.g)
    return dict(Gamma=Gamma, dGamma=dGamma, dginv=dginv, B=B, dB=dB, Riem=Riem,
                Ric=Ric, Scal=Scal, P=P, Psharp=jet.ginv @ P)


def kulkarni_nomizu(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) B)_{ijkl} = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il."""
    return (np.einsum("...ik,...jl->...ijkl", A, B) + np.einsum("...jl,...ik->...ijkl", A, B)
            - np.einsum("...il,...jk->...ijkl", A, B) - np.einsum("...jk,...il->...ijkl", A, B))


def compute_stack(jet: MetricJet) -> CurvatureStack:
    """The curvature stack of an order-3 jet, batched like the jet."""
    n = jet.n
    c = _connection_fields(jet)
    g, ginv, dginv = jet.g, jet.ginv, c["dginv"]
    Gamma, dGamma, Ric, Scal, P = c["Gamma"], c["dGamma"], c["Ric"], c["Scal"], c["P"]
    d2Gamma = _second_christoffel(jet, dginv, c["B"], c["dB"])

    dRiem = (np.einsum("...piljk->...plijk", d2Gamma)
             - np.einsum("...pjlik->...plijk", d2Gamma)
             + np.einsum("...plim,...mjk->...plijk", dGamma, Gamma)
             + np.einsum("...lim,...pmjk->...plijk", Gamma, dGamma)
             - np.einsum("...pljm,...mik->...plijk", dGamma, Gamma)
             - np.einsum("...ljm,...pmik->...plijk", Gamma, dGamma))
    dRic = np.einsum("...piijk->...pjk", dRiem)
    dScal = (np.einsum("...pjk,...jk->...p", dginv, Ric)
             + np.einsum("...jk,...pjk->...p", ginv, dRic))

    cP = 1.0 / (n - 2)
    cS = 1.0 / (2 * n - 2)
    dP = cP * (dRic - cS * (np.einsum("...p,...ij->...pij", dScal, g)
                            + np.asarray(Scal)[..., None, None, None] * jet.dg))
    dPsharp = (np.einsum("...pik,...kj->...pij", dginv, P)
               + np.einsum("...ik,...pkj->...pij", ginv, dP))

    covP = (dP - np.einsum("...mki,...mj->...kij", Gamma, P)
            - np.einsum("...mkj,...im->...kij", Gamma, P))
    CY = covP - np.swapaxes(covP, -3, -2)
    CYsharp = np.einsum("...ijk,...kl->...ijl", CY, ginv)

    riem_low = np.einsum("...km,...mijl->...ijkl", g, c["Riem"])
    W = riem_low - kulkarni_nomizu(P, g)

    return CurvatureStack(jet=jet, Gamma=Gamma, dGamma=dGamma, Riem=c["Riem"],
                          riem_low=riem_low, Ric=Ric, Scal=Scal, P=P,
                          Psharp=c["Psharp"], dP=dP, dPsharp=dPsharp, covP=covP,
                          W=W, CY=CY, CYsharp=CYsharp, dginv=dginv)


def stack_at(spec: MetricSpec, x) -> CurvatureStack:
    """The curvature stack at one point x."""
    return compute_stack(metric_jet(spec, x))


@dataclass
class ConnectionPoint:
    """Light subset of the stack needed to evaluate connection matrices.

    Built from an order-2 jet, so it is cheap enough for the inner loop of
    a transport integrator.  Field layout mirrors CurvatureStack.
    """

    jet: MetricJet
    Gamma: np.ndarray
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
    c = _connection_fields(jet)
    return ConnectionPoint(jet=jet, Gamma=c["Gamma"], Ric=c["Ric"], Scal=c["Scal"],
                           P=c["P"], Psharp=c["Psharp"])


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

"""Curvature stack: conventions pinned by constant-curvature closed forms."""

import numpy as np
import pytest

from tractor_forge.curvature import (connection_at, kulkarni_nomizu, stack_at,
                                     weyl_endomorphism)
from tractor_forge.metric import preset

RNG = np.random.default_rng(11)


def _sphere_points(count=6):
    return RNG.uniform(-0.6, 0.6, size=(count, 3))


def test_unit_sphere_constants():
    spec = preset("sphere")
    for x in _sphere_points():
        st = stack_at(spec, x)
        assert st.Scal == pytest.approx(6.0, rel=1e-11)
        assert st.Ric == pytest.approx(2.0 * st.g, rel=1e-10)
        assert st.P == pytest.approx(0.5 * st.g, rel=1e-10)
        assert st.Psharp == pytest.approx(0.5 * np.eye(3), abs=1e-11)


def test_hyperbolic_constants():
    spec = preset("hyperbolic")
    x = np.array([0.05, -0.1, 0.08])
    st = stack_at(spec, x)
    assert st.Scal == pytest.approx(-6.0, rel=1e-10)
    assert st.P == pytest.approx(-0.5 * st.g, rel=1e-10)


def test_flat_everything_zero():
    spec = preset("flat")
    st = stack_at(spec, np.array([0.4, -0.2, 0.9]))
    for tensor in (st.Gamma, st.Riem, st.Ric, st.P, st.W, st.CY):
        assert np.max(np.abs(tensor)) == 0.0


def test_ppwave_ricci_flat():
    spec = preset("ppwave")
    st = stack_at(spec, np.array([0.3, 0.1, 0.2, -0.4]))
    assert np.max(np.abs(st.Ric)) < 1e-12
    assert np.max(np.abs(st.P)) < 1e-12
    assert np.max(np.abs(st.W)) > 1e-3  # genuinely curved


def test_riemann_symmetries_generic():
    spec = preset("bumpy", eps=0.15)
    st = stack_at(spec, np.array([0.2, -0.3, 0.5]))
    rl = st.riem_low
    assert rl == pytest.approx(-rl.transpose(1, 0, 2, 3))
    assert rl == pytest.approx(-rl.transpose(0, 1, 3, 2))
    assert rl == pytest.approx(rl.transpose(2, 3, 0, 1))
    cyc = rl + np.einsum("jkil->ijkl", rl) + np.einsum("kijl->ijkl", rl)
    assert np.max(np.abs(cyc)) < 1e-12


def test_second_bianchi_via_cotton_trace():
    # the g-trace of Cotton-York over its last two slots vanishes identically
    spec = preset("bumpy", eps=0.1)
    st = stack_at(spec, np.array([0.1, 0.4, -0.2]))
    tr = np.einsum("jk,ijk->i", st.ginv, st.CY)
    assert np.max(np.abs(tr)) < 1e-12


def test_weyl_trace_free_and_conformal_flatness():
    for name in ("sphere", "hyperbolic"):
        st = stack_at(preset(name), np.array([0.05, 0.1, -0.05]))
        assert np.max(np.abs(st.W)) < 1e-12
        assert np.max(np.abs(st.CY)) < 1e-12
    st = stack_at(preset("bumpy", eps=0.1), np.array([0.3, -0.1, 0.2]))
    wtr = np.einsum("ik,ijkl->jl", st.ginv, st.W)
    assert np.max(np.abs(wtr)) < 1e-12


def test_kulkarni_nomizu_symmetries():
    A = RNG.standard_normal((3, 3))
    A = A + A.T
    B = RNG.standard_normal((3, 3))
    B = B + B.T
    K = kulkarni_nomizu(A, B)
    assert K == pytest.approx(-K.transpose(1, 0, 2, 3))
    assert K == pytest.approx(K.transpose(2, 3, 0, 1))


def test_covariant_derivative_of_schouten_metric_compatible():
    # nabla_k (g^{ij} P_ij) = d_k Scal-combination; check via covP trace
    spec = preset("bumpy", eps=0.1)
    x = np.array([0.2, 0.3, -0.1])
    st = stack_at(spec, x)
    # numerical check of covP against finite differences of P in normal-ish form
    h = 1e-5
    for k in range(3):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fd = (stack_at(spec, xp).P - stack_at(spec, xm).P) / (2 * h)
        assert st.dP[k] == pytest.approx(fd, abs=1e-8)


def test_connection_at_matches_stack():
    spec = preset("bumpy", eps=0.1)
    x = np.array([0.25, -0.15, 0.35])
    st = stack_at(spec, x)
    cp = connection_at(spec, x)
    assert cp.Gamma == pytest.approx(st.Gamma)
    assert cp.P == pytest.approx(st.P)
    assert cp.Psharp == pytest.approx(st.Psharp)
    assert cp.Scal == pytest.approx(st.Scal)
    assert cp.g == pytest.approx(st.g)


def test_weyl_endomorphism_antisymmetric_in_arguments():
    spec = preset("ppwave")
    st = stack_at(spec, np.array([0.2, 0.1, 0.3, -0.2]))
    X = RNG.standard_normal(4)
    Y = RNG.standard_normal(4)
    assert weyl_endomorphism(st, X, Y) == pytest.approx(
        -weyl_endomorphism(st, Y, X))

"""Tractor connection variants: metricity, curvature blocks, normality."""

import numpy as np
import pytest

from tractor_forge.curvature import stack_at, weyl_endomorphism
from tractor_forge.metric import preset
from tractor_forge.tractor import (VARIANTS, connection_matrix,
                                   curvature_all_pairs, normality_check,
                                   tractor_curvature, tractor_metric)

RNG = np.random.default_rng(23)


def test_tractor_metric_signature():
    g = np.eye(3)
    for variant, corner in (("induced", 1.0), ("paper", -1.0)):
        H = tractor_metric(g, variant)
        assert H[0, -1] == corner and H[-1, 0] == corner
        vals = np.linalg.eigvalsh(H)
        # the alpha-beta hyperbolic plane adds one positive and one negative
        assert int(np.sum(vals > 0)) == 4
        assert int(np.sum(vals < 0)) == 1


def test_unknown_variant_rejected():
    st = stack_at(preset("flat"), np.zeros(3))
    with pytest.raises(ValueError):
        connection_matrix(st, np.ones(3), "other")


def test_flat_connection_reduces_to_coupling_rows():
    st = stack_at(preset("flat"), np.array([0.3, -0.2, 0.1]))
    X = np.array([1.0, 2.0, -1.0])
    Om = connection_matrix(st, X, "induced")
    assert Om[0, 1:-1] == pytest.approx(-X)      # alpha' = -g(X, A)
    assert Om[1:-1, -1] == pytest.approx(X)      # A' gains beta X
    assert np.max(np.abs(Om[-1, 1:-1])) == 0.0   # P = 0
    assert np.max(np.abs(Om[1:-1, 1:-1])) == 0.0


def test_metricity_against_fiber_metric_derivative():
    spec = preset("bumpy", eps=0.1)
    x = np.array([0.2, -0.3, 0.4])
    st = stack_at(spec, x)
    h = 1e-5
    for variant in VARIANTS:
        H = tractor_metric(st.g, variant)
        for X in np.eye(3):
            Om = connection_matrix(st, X, variant)
            xp, xm = x.copy(), x.copy()
            xp += h * X
            xm -= h * X
            dH = (tractor_metric(stack_at(spec, xp).g, variant)
                  - tractor_metric(stack_at(spec, xm).g, variant)) / (2 * h)
            assert np.max(np.abs(Om.T @ H + H @ Om - dH)) < 1e-9


def test_curvature_antisymmetric_and_variantwise():
    spec = preset("ppwave")
    st = stack_at(spec, np.array([0.1, 0.2, 0.3, -0.1]))
    for variant in VARIANTS:
        R = curvature_all_pairs(st, variant)
        assert R == pytest.approx(-R.transpose(1, 0, 2, 3))


def test_induced_curvature_blocks_ricci_flat_case():
    # with vanishing Schouten tensor the tangent block is exactly the Weyl
    # endomorphism and the beta-row carries -CY (here zero)
    spec = preset("ppwave")
    st = stack_at(spec, np.array([0.2, -0.1, 0.4, 0.3]))
    X = RNG.standard_normal(4)
    Y = RNG.standard_normal(4)
    R = tractor_curvature(st, X, Y, "induced")
    assert R[1:-1, 1:-1] == pytest.approx(weyl_endomorphism(st, X, Y), abs=1e-11)
    assert np.max(np.abs(R[0])) < 1e-11
    assert np.max(np.abs(R[-1])) < 1e-11


def test_conformally_flat_tractor_curvature_paper_variant():
    # the action-table variant is flat precisely on conformally flat metrics
    for name in ("sphere", "hyperbolic"):
        st = stack_at(preset(name), np.array([0.05, 0.1, -0.08]))
        R = curvature_all_pairs(st, "paper")
        assert np.max(np.abs(R)) < 1e-10


def test_normality_paper_variant():
    for name in ("flat", "sphere", "ppwave", "bumpy"):
        spec = preset(name)
        x = spec.sample_points(np.random.default_rng(3), 1)[0] * 0.5
        rep = normality_check(stack_at(spec, x), "paper")
        assert rep["pass"], rep


def test_induced_variant_normality_b_fails_generically():
    # the induced variant keeps a Ricci contribution in its tangent block,
    # so condition (b) fails whenever the metric is not Ricci-flat
    st = stack_at(preset("sphere"), np.array([0.1, 0.2, -0.1]))
    rep = normality_check(st, "induced")
    assert rep["preserves_null_direction"]["pass"]
    assert not rep["ricci_contraction_vanishes"]["pass"]


def test_connection_matrix_h_antisymmetric_at_sphere_center():
    H = tractor_metric(np.eye(3), "induced")
    st = stack_at(preset("sphere"), np.array([0.0, 0.0, 0.0]))
    # at the chart center g = 4*I; rebuild H accordingly
    H = tractor_metric(st.g, "induced")
    Om = connection_matrix(st, np.array([1.0, 0.0, 0.0]), "induced")
    # metricity holds only up to dH; at the center dg = 0 so Om is exact
    scale = max(1.0, float(np.max(np.abs(Om))))
    assert float(np.max(np.abs(Om.T @ H + H @ Om))) <= 1e-10 * scale

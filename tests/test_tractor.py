"""The normal tractor connection: metricity, curvature blocks, normality."""

import numpy as np
import pytest

from tractor_forge import transport as tp
from tractor_forge.ambient import curvature_from_omega
from tractor_forge.curvature import connection_at, stack_at, weyl_endomorphism
from tractor_forge.metric import PRESET_NAMES, preset
from tractor_forge.tractor import (connection_matrix, curvature_all_pairs,
                                   normality_check, tractor_metric)

RNG = np.random.default_rng(23)


def test_tractor_metric_signature():
    H = tractor_metric(np.eye(3))
    assert H[0, -1] == 1.0 and H[-1, 0] == 1.0
    vals = np.linalg.eigvalsh(H)
    # the alpha-beta hyperbolic plane adds one positive and one negative
    assert int(np.sum(vals > 0)) == 4
    assert int(np.sum(vals < 0)) == 1


def test_unknown_variant_rejected():
    spec = preset("flat")
    assert tp.TractorOracle(spec, "induced").name == "tractor-induced"
    with pytest.raises(ValueError):
        tp.TractorOracle(spec, "other")


def test_flat_connection_reduces_to_coupling_rows():
    st = stack_at(preset("flat"), np.array([0.3, -0.2, 0.1]))
    X = np.array([1.0, 2.0, -1.0])
    Om = connection_matrix(st, X)
    assert Om[0, 1:-1] == pytest.approx(-X)      # alpha' = -g(X, A)
    assert Om[1:-1, -1] == pytest.approx(X)      # A' gains beta X
    assert np.max(np.abs(Om[-1, 1:-1])) == 0.0   # P = 0
    assert np.max(np.abs(Om[1:-1, 1:-1])) == 0.0


def test_metricity_against_fiber_metric_derivative():
    spec = preset("bumpy", eps=0.1)
    x = np.array([0.2, -0.3, 0.4])
    st = stack_at(spec, x)
    h = 1e-5
    H = tractor_metric(st.g)
    for X in np.eye(3):
        Om = connection_matrix(st, X)
        xp, xm = x.copy(), x.copy()
        xp += h * X
        xm -= h * X
        dH = (tractor_metric(stack_at(spec, xp).g)
              - tractor_metric(stack_at(spec, xm).g)) / (2 * h)
        assert np.max(np.abs(Om.T @ H + H @ Om - dH)) < 1e-9


def test_curvature_antisymmetric_and_variantwise():
    spec = preset("ppwave")
    st = stack_at(spec, np.array([0.1, 0.2, 0.3, -0.1]))
    R = curvature_all_pairs(st)
    assert R == pytest.approx(-R.transpose(1, 0, 2, 3))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_exact_curvature_equals_fd_curvature_of_the_connection_matrices(name):
    # the exact partials and the FD stencil feed the same curvature formula
    spec = preset(name)
    x = spec.sample_points(np.random.default_rng(11), 1)[0] * 0.5
    fd = curvature_from_omega(
        lambda pt, dirs: connection_matrix(connection_at(spec, pt), dirs), x, spec.n)
    assert np.max(np.abs(curvature_all_pairs(stack_at(spec, x)) - fd)) <= 1e-8


def test_induced_curvature_blocks_ricci_flat_case():
    # with vanishing Schouten tensor the tangent block is exactly the Weyl
    # endomorphism and the beta-row carries -CY (here zero)
    spec = preset("ppwave")
    st = stack_at(spec, np.array([0.2, -0.1, 0.4, 0.3]))
    X = RNG.standard_normal(4)
    Y = RNG.standard_normal(4)
    R = np.einsum("i,j,ijab->ab", X, Y, curvature_all_pairs(st))
    assert R[1:-1, 1:-1] == pytest.approx(weyl_endomorphism(st, X, Y), abs=1e-11)
    assert np.max(np.abs(R[0])) < 1e-11
    assert np.max(np.abs(R[-1])) < 1e-11


def test_conformally_flat_tractor_curvature():
    # the normal tractor connection is flat precisely on conformally flat metrics
    for name in ("sphere", "hyperbolic"):
        st = stack_at(preset(name), np.array([0.05, 0.1, -0.08]))
        R = curvature_all_pairs(st)
        assert np.max(np.abs(R)) < 1e-10


def test_normality():
    for name in ("flat", "sphere", "ppwave", "bumpy"):
        spec = preset(name)
        x = spec.sample_points(np.random.default_rng(3), 1)[0] * 0.5
        rep = normality_check(stack_at(spec, x))
        assert rep["pass"], rep


def test_connection_matrix_h_antisymmetric_at_sphere_center():
    st = stack_at(preset("sphere"), np.array([0.0, 0.0, 0.0]))
    # at the chart center g = 4*I
    H = tractor_metric(st.g)
    Om = connection_matrix(st, np.array([1.0, 0.0, 0.0]))
    # metricity holds only up to dH; at the center dg = 0 so Om is exact
    scale = max(1.0, float(np.max(np.abs(Om))))
    assert float(np.max(np.abs(Om.T @ H + H @ Om))) <= 1e-10 * scale

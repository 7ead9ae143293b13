"""The curvature chain against its einsum form, kept here as a reference.

The library contracts tensors with batched matmul: free index axes fold
into matrix rows and permutations are transposes.  The functions below
are the same formulas written as `np.einsum` calls, one per term, with a
leading `...` for batch axes.  Every `CurvatureStack` and `ConnectionPoint`
field, and the Christoffel matrices of the connection oracles, must agree
with them to rounding: within 1e-13 of max(1, max|field|), on the presets
and on the random config metrics of `test_random_metrics`, for one point
and for a 17-row batch.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_random_metrics import _config

from tractor_forge import transport as tp
from tractor_forge.curvature import compute_stack, connection_at
from tractor_forge.metric import PRESET_NAMES, metric_jet, parse_config, preset
from tractor_forge.tractor import connection_matrix

# no explain phase: on a failure of these tests it runs for minutes
SETTINGS = settings(max_examples=6, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
SPECS = {name: preset(name) for name in PRESET_NAMES}
TOL = 1e-13
BATCH = 17

_STACK_FIELDS = ("Gamma", "dGamma", "Riem", "riem_low", "Ric", "Scal", "P", "Psharp",
                 "dP", "dPsharp", "covP", "W", "CY", "CYsharp", "dginv")
_CONNECTION_FIELDS = ("Gamma", "Ric", "Scal", "P", "Psharp")


def _reference_stack(jet) -> dict:
    """Every stack field of an order-3 jet, by the einsum formulas."""
    n, g, ginv, dg, d2g, d3g = jet.n, jet.g, jet.ginv, jet.dg, jet.d2g, jet.d3g
    dginv = -np.einsum("...ab,...kbc,...cd->...kad", ginv, dg, ginv)
    B = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    Gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, B)
    dB = d2g + np.einsum("...mjil->...mijl", d2g) - np.einsum("...mlij->...mijl", d2g)
    dGamma = 0.5 * (np.einsum("...mkl,...ijl->...mkij", dginv, B)
                    + np.einsum("...kl,...mijl->...mkij", ginv, dB))
    Riem = (np.einsum("...iljk->...lijk", dGamma) - np.einsum("...jlik->...lijk", dGamma)
            + np.einsum("...lim,...mjk->...lijk", Gamma, Gamma)
            - np.einsum("...ljm,...mik->...lijk", Gamma, Gamma))
    Ric = np.einsum("...iijk->...jk", Riem)
    Scal = np.einsum("...jk,...jk->...", ginv, Ric)
    P = (1.0 / (n - 2)) * (Ric - Scal[..., None, None] / (2 * n - 2) * g)
    Psharp = ginv @ P

    d2ginv = -(np.einsum("...pab,...mbc,...cd->...pmad", dginv, dg, ginv)
               + np.einsum("...ab,...pmbc,...cd->...pmad", ginv, d2g, ginv)
               + np.einsum("...ab,...mbc,...pcd->...pmad", ginv, dg, dginv))
    d2B = d3g + np.einsum("...pmjil->...pmijl", d3g) - np.einsum("...pmlij->...pmijl", d3g)
    d2Gamma = 0.5 * (np.einsum("...pmkl,...ijl->...pmkij", d2ginv, B)
                     + np.einsum("...mkl,...pijl->...pmkij", dginv, dB)
                     + np.einsum("...pkl,...mijl->...pmkij", dginv, dB)
                     + np.einsum("...kl,...pmijl->...pmkij", ginv, d2B))
    dRiem = (np.einsum("...piljk->...plijk", d2Gamma)
             - np.einsum("...pjlik->...plijk", d2Gamma)
             + np.einsum("...plim,...mjk->...plijk", dGamma, Gamma)
             + np.einsum("...lim,...pmjk->...plijk", Gamma, dGamma)
             - np.einsum("...pljm,...mik->...plijk", dGamma, Gamma)
             - np.einsum("...ljm,...pmik->...plijk", Gamma, dGamma))
    dRic = np.einsum("...piijk->...pjk", dRiem)
    dScal = (np.einsum("...pjk,...jk->...p", dginv, Ric)
             + np.einsum("...jk,...pjk->...p", ginv, dRic))
    dP = (1.0 / (n - 2)) * (dRic - (1.0 / (2 * n - 2)) * (
        np.einsum("...p,...ij->...pij", dScal, g) + Scal[..., None, None, None] * dg))
    dPsharp = (np.einsum("...pik,...kj->...pij", dginv, P)
               + np.einsum("...ik,...pkj->...pij", ginv, dP))
    covP = (dP - np.einsum("...mki,...mj->...kij", Gamma, P)
            - np.einsum("...mkj,...im->...kij", Gamma, P))
    CY = covP - np.swapaxes(covP, -3, -2)
    CYsharp = np.einsum("...ijk,...kl->...ijl", CY, ginv)
    riem_low = np.einsum("...km,...mijl->...ijkl", g, Riem)
    KN = (np.einsum("...ik,...jl->...ijkl", P, g) + np.einsum("...jl,...ik->...ijkl", P, g)
          - np.einsum("...il,...jk->...ijkl", P, g) - np.einsum("...jk,...il->...ijkl", P, g))
    return dict(Gamma=Gamma, dGamma=dGamma, Riem=Riem, riem_low=riem_low, Ric=Ric,
                Scal=Scal, P=P, Psharp=Psharp, dP=dP, dPsharp=dPsharp, covP=covP,
                W=riem_low - KN, CY=CY, CYsharp=CYsharp, dginv=dginv)


def _assert_close(got, want, fields, label):
    for name in fields:
        a, b = np.asarray(getattr(got, name)), np.asarray(want[name])
        assert a.shape == b.shape, (label, name)
        scale = max(1.0, float(np.max(np.abs(b))))
        assert float(np.max(np.abs(a - b))) <= TOL * scale, (label, name)


def _check_against_reference(spec, xs, label):
    """One point and the whole stack of points xs, at order 3 and order 2."""
    rng = np.random.default_rng(0)
    for x in (xs[0], xs):
        stack = compute_stack(metric_jet(spec, x))
        _assert_close(stack, _reference_stack(metric_jet(spec, x)), _STACK_FIELDS, label)
        conn = connection_at(spec, x)
        want = _reference_stack(metric_jet(spec, x))
        _assert_close(conn, want, _CONNECTION_FIELDS, label)
        assert isinstance(conn.Scal, float) == (x.ndim == 1)
        _assert_close(connection_at(spec, x, order=3), want, _CONNECTION_FIELDS + ("dPsharp",),
                      label)
        # the Christoffel block of the connection matrices: Gamma^k_ij X^i
        X = rng.standard_normal(x.shape)
        gamma_x = np.einsum("...kij,...i->...kj", want["Gamma"], X)
        scale = max(1.0, float(np.max(np.abs(gamma_x))))
        got = connection_matrix(conn, X)[..., 1:-1, 1:-1]
        assert float(np.max(np.abs(got - gamma_x))) <= TOL * scale, label
        if x.ndim == 2:
            got = tp.LeviCivitaOracle(spec).omega_nodes(x, X)
            assert float(np.max(np.abs(got - gamma_x))) <= TOL * scale, label


def _chart_points(spec, size):
    coord = st.tuples(*(st.floats(lo, hi) for lo, hi in spec.domain_box()))
    return st.lists(coord, min_size=size, max_size=size).map(np.array)


@pytest.mark.parametrize("name", PRESET_NAMES)
@SETTINGS
@given(data=st.data())
def test_presets_agree_with_the_einsum_chain(name, data):
    spec = SPECS[name]
    _check_against_reference(spec, data.draw(_chart_points(spec, BATCH)), name)


@SETTINGS
@given(text=_config(), data=st.data())
def test_random_metrics_agree_with_the_einsum_chain(text, data):
    spec = parse_config(text)
    xs = data.draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=spec.n, max_size=spec.n),
                            min_size=BATCH, max_size=BATCH).map(np.array))
    _check_against_reference(spec, xs, text)

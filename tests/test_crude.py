"""The crude connection is the tractor connection in the gauge L = diag(1/q, Id, 1/q).

For u = (a, U, b) at (s, x, q),

    Omega_crude(u) = L^{-1} Omega_tractor(U) L + L^{-1} dL(u) + (b/q) Id,

so its curvature is L^{-1} R_tractor L on chart-chart pairs and 0 on every
pair with S or Q, and it preserves tractor_metric(q^2 g).  `CrudeOracle`
is built that way; `_written_out_omega` keeps the connection's own
formula, term by term, as the reference for its matrices.  The identities
are checked on the presets and on the random metrics of
`test_random_metrics`.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from test_random_metrics import _config

from tractor_forge import holonomy as hol
from tractor_forge import report
from tractor_forge import transport as tp
from tractor_forge.ambient import AmbientGeometry, ambient_point, curvature_from_omega
from tractor_forge.curvature import _christoffel_matrices, connection_at, stack_at
from tractor_forge.metric import PRESET_NAMES, parse_config, preset
from tractor_forge.tractor import connection_matrix, curvature_all_pairs

# no explain phase: on a failure of these tests it runs for minutes
PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)
SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, phases=PHASES)
SPECS = {name: preset(name) for name in PRESET_NAMES}


def _written_out_omega(spec, points, dirs):
    """Crude connection matrices of k (point, direction) pairs, term by term:
        nabla_X Y = nabla_X Y - q g(X,Y) S - q P(X,Y) Q,
        nabla_X Q = X/q,  nabla_X S = P(X)/q,  nabla_Q X = X/q,  nabla_S X = 0.
    """
    k, n = len(points), spec.n
    data = connection_at(spec, points[:, 1:-1])
    g, P, Psharp = (np.reshape(arr, (k, 1, n, n)) for arr in (data.g, data.P, data.Psharp))
    Gamma = np.reshape(data.Gamma, (k, n, n, n))
    dirs = dirs.reshape(k, 1, n + 2)
    q = points[:, -1, None, None]
    U, b = dirs[..., 1:-1], dirs[..., -1, None, None]
    Ucol = U[..., None]
    Omega = np.zeros((k, 1, n + 2, n + 2))
    Omega[..., 0, 1:-1] = -q * (g @ Ucol)[..., 0]
    Omega[..., -1, 1:-1] = -q * (P @ Ucol)[..., 0]
    Omega[..., 1:-1, 0] = (Psharp @ Ucol)[..., 0] / q
    Omega[..., 1:-1, -1] = U / q
    Omega[..., 1:-1, 1:-1] = _christoffel_matrices(Gamma, U) + (b / q[..., None]) * np.eye(n)
    return Omega[:, 0]


def _gauge_matrices(q, n):
    """L = diag(1/q, Id_n, 1/q) and its inverse."""
    corner = np.ones(n + 2)
    corner[[0, -1]] = q
    return np.diag(1.0 / corner), np.diag(corner)


def _points(rng, xs):
    """(s, x, q) rows over chart points xs: s zero on every other row."""
    k = len(xs)
    s = np.where(np.arange(k) % 2 == 0, 0.0, rng.uniform(-0.3, 0.3, k))
    return np.column_stack([s, xs, rng.uniform(0.2, 3.0, k)])


def _check_omega(spec, points, dirs):
    """Bit equality with the written-out formula, and the gauge law at rounding."""
    got = tp.CrudeOracle(spec).omega_nodes(points, dirs)
    assert np.array_equal(got, _written_out_omega(spec, points, dirs))
    n = spec.n
    tractor = connection_matrix(connection_at(spec, points[:, 1:-1]), dirs[:, 1:-1])
    for q, b, Om_t, Om in zip(points[:, -1], dirs[:, -1], tractor, got):
        L, Linv = _gauge_matrices(q, n)
        dL = np.diag(np.r_[-b / q**2, np.zeros(n), -b / q**2])  # the derivative of L along u
        want = Linv @ Om_t @ L + Linv @ dL + (b / q) * np.eye(n + 2)
        assert np.max(np.abs(Om - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def _check_curvature(spec, points):
    """Chart-chart pairs L^{-1} R_tractor L at rounding, S and Q pairs exactly 0."""
    got = tp.CrudeOracle(spec).curvature_pairs(points)
    assert got.shape == (len(points),) + (spec.n + 2,) * 4
    for point, R in zip(points, got):
        L, Linv = _gauge_matrices(point[-1], spec.n)
        want = Linv @ curvature_all_pairs(stack_at(spec, point[1:-1])) @ L
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(R[1:-1, 1:-1] - want)) <= 1e-15 * scale
        assert not R[[0, -1]].any() and not R[:, [0, -1]].any()


def _omega_fn(oracle):
    """`curvature_from_omega`'s omega_fn over the oracle's one-direction-per-node calls."""
    def omega_fn(points, dirs):
        m, c, dim = dirs.shape
        nodes = oracle.omega_nodes(np.repeat(points, c, axis=0), dirs.reshape(m * c, dim))
        return nodes.reshape(m, c, dim, dim)
    return omega_fn


def _check_fd_convergence(spec, point):
    """The FD curvature of the crude matrices converges to the exact one at 4th order."""
    oracle = tp.CrudeOracle(spec)
    exact = oracle.curvature_pairs(point[None])[0]
    err = [np.max(np.abs(curvature_from_omega(_omega_fn(oracle), point, spec.n + 2, h) - exact))
           for h in (0.04, 0.02)]
    assert err[0] / err[1] == pytest.approx(16.0, rel=0.2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_crude_omega_is_the_gauged_tractor_omega_on_presets(name):
    spec = SPECS[name]
    rng = np.random.default_rng(17)
    points = _points(rng, spec.sample_points(rng, 20) * 0.5)
    _check_omega(spec, points, rng.standard_normal(points.shape))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_crude_curvature_is_the_gauged_tractor_curvature_on_presets(name):
    spec = SPECS[name]
    rng = np.random.default_rng(19)
    points = _points(rng, spec.sample_points(rng, 4) * 0.5)
    _check_curvature(spec, points)
    _check_fd_convergence(spec, points[1])


@SETTINGS
@given(text=_config(), data=st.data())
def test_crude_connection_is_the_gauged_tractor_connection_on_random_metrics(text, data):
    spec = parse_config(text)
    n = spec.n
    xs = np.array(data.draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n),
                                     min_size=4, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = _points(rng, xs)
    _check_omega(spec, points, rng.standard_normal(points.shape))
    _check_curvature(spec, points)
    _check_fd_convergence(spec, points[1])


def test_crude_curvature_near_q_zero():
    # a finite-difference stencil in q would step to q <= 0 here
    spec = preset("bumpy")
    point = np.array([0.0, 0.1, -0.1, 0.2, 1e-3])
    R = tp.CrudeOracle(spec).curvature_pairs([point])
    assert np.all(np.isfinite(R))
    _check_curvature(spec, point[None])


@pytest.mark.parametrize("name", ["sphere", "s2xs2", "bumpy"])
def test_crude_transport_preserves_its_fiber_metric_off_the_slice(name):
    spec = SPECS[name]
    n = spec.n
    start = ambient_point(0.0, 0.1 * np.ones(n), 1.0)
    end = ambient_point(0.3, -0.05 * np.ones(n), 1.6)
    oracle = tp.CrudeOracle(spec)
    G = tp.transport_matrix(oracle, tp.path_from_waypoints([start, end]), 1e-12)
    H0, H1 = oracle.fiber_metric(start), oracle.fiber_metric(end)
    assert np.max(np.abs(G.T @ H1 @ G - H0)) <= 1e-11
    # on the slice s = 0 it is the ambient metric h, which off the slice
    # this connection does not preserve
    geom = AmbientGeometry(spec)
    on_slice = ambient_point(0.0, 0.1 * np.ones(n), 1.6)
    assert oracle.fiber_metric(on_slice) == pytest.approx(geom.metric(on_slice), rel=1e-15)
    assert np.max(np.abs(G.T @ geom.metric(end) @ G - geom.metric(start))) > 1e-3


@pytest.mark.parametrize("name, radius", [("sphere", 0.5), ("sphere", 0.35),
                                          ("hyperbolic", 0.5)])
def test_crude_holonomy_equals_tractor_holonomy_on_small_radius_presets(name, radius):
    """verify's tractor and crude estimates on its loop family: both 0-dimensional.

    With the crude curvature taken by a finite-difference stencil, its noise
    rose above the rank floor here and the crude dimension came out nonzero.
    """
    suite = report._Suite(report.RunConfig(preset=name, params={"radius": radius}))
    lifted = [tp.lift_loop(lp) for lp in suite.loops]
    tractor = hol.holonomy_algebra(suite.tractor, suite.base, suite.loops, 1e-9,
                                   suite.cfg.tol_rank)
    crude = hol.holonomy_algebra(tp.CrudeOracle(suite.spec), suite.abase, lifted, 1e-9,
                                 suite.cfg.tol_rank)
    cmp = hol.compare_holonomy(tractor, crude)
    assert cmp["dim_a"] == cmp["dim_b"] == 0
    assert cmp["verdict"] == "equal"

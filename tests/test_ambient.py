"""Ambient geometry on R x M x R+: bundle map, metric, torsion, scaling."""

from types import SimpleNamespace

import numpy as np
import pytest

from tractor_forge import ambient
from tractor_forge.ambient import (AmbientGeometry, SingularMapError,
                                   ambient_point, curvature_from_omega)
from tractor_forge.curvature import connection_at, stack_at
from tractor_forge.metric import ChartDomainError, MetricError, preset
from tractor_forge.tractor import connection_matrix
from tractor_forge.transport import (AmbientOracle, CrudeOracle, TractorOracle,
                                    path_from_waypoints, transport_matrix)

RNG = np.random.default_rng(31)


@pytest.fixture(scope="module")
def sphere_geom():
    return AmbientGeometry(preset("sphere"))


@pytest.fixture(scope="module")
def bumpy_geom():
    return AmbientGeometry(preset("bumpy", eps=0.1))


BASE3 = np.array([0.15, -0.2, 0.25])


def _conn(geom, p):
    """Order-2 connection data at the chart points of p, batched like p."""
    return connection_at(geom.spec, np.asarray(p, dtype=float)[..., 1:-1])


def test_point_packing():
    p = ambient_point(0.3, BASE3, 1.2)
    assert p[0] == 0.3 and p[-1] == 1.2
    assert np.array_equal(p[1:-1], BASE3)


def test_f_map_on_slice_is_identity(sphere_geom):
    p = ambient_point(0.0, BASE3, 1.0)
    f, m = sphere_geom.f_map(p, _conn(sphere_geom, p))
    assert f == pytest.approx(np.eye(3))
    assert m == pytest.approx(np.eye(3))


def test_f_map_singular_names_eigenvalue(sphere_geom):
    # on the round sphere Psharp = (1/2) Id, so s*Psharp + q*Id degenerates
    # exactly when s = -2q
    p = ambient_point(-2.0, BASE3, 1.0)
    with pytest.raises(SingularMapError) as err:
        sphere_geom.f_map(p, _conn(sphere_geom, p))
    assert "eigenvalue(s) 0.5" in str(err.value)
    assert "singular locus" in str(err.value)
    # nearby points are fine
    p = ambient_point(-1.9, BASE3, 1.0)
    f, _ = sphere_geom.f_map(p, _conn(sphere_geom, p))
    assert np.all(np.isfinite(f))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, -1], ids=["s", "q"])
def test_non_finite_s_or_q_lies_outside_the_domain(bumpy_geom, value, slot):
    good = ambient_point(0.1, BASE3, 1.0)
    bad = good.copy()
    bad[slot] = value
    u = np.ones(bumpy_geom.dim)
    with pytest.raises(ChartDomainError) as alone:
        bumpy_geom.f_map(bad, _conn(bumpy_geom, bad))
    for call in (lambda p: bumpy_geom.omega(p, u),
                 lambda p: AmbientOracle(bumpy_geom.spec).omega(p, u)):
        with pytest.raises(ChartDomainError) as err:
            call(bad)
        assert str(err.value) == str(alone.value)
    # a stack raises the first bad row's own error, whatever follows it; the
    # last row is on the slice, which omega_nodes evaluates apart
    stacked = np.array([good, bad, good, 2 * bad, ambient_point(0.0, BASE3, value)])
    for call in (lambda p: bumpy_geom.f_map(p, _conn(bumpy_geom, p)),
                 lambda p: bumpy_geom.omega(p, np.ones_like(p)),
                 lambda p: AmbientOracle(bumpy_geom.spec).omega_nodes(p, np.ones_like(p))):
        with pytest.raises(ChartDomainError) as batched:
            call(stacked)
        assert str(batched.value) == str(alone.value)


def test_non_finite_s_or_q_is_checked_before_the_bundle_map(sphere_geom):
    singular = ambient_point(-2.0, BASE3, 1.0)  # Psharp = Id/2: m singular at s = -2q
    outside = ambient_point(0.1, BASE3, np.nan)
    with pytest.raises(ChartDomainError) as alone:
        sphere_geom.f_map(outside, _conn(sphere_geom, outside))
    stacked = np.array([singular, outside])
    with pytest.raises(ChartDomainError) as batched:
        sphere_geom.f_map(stacked, _conn(sphere_geom, stacked))
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("q", [0.0, -0.0, -1.0])
def test_q_not_positive_lies_outside_the_domain(bumpy_geom, q):
    """f_map, which every ambient evaluator passes, refuses q <= 0 (off
    R x M x R+) as it refuses a non-finite coordinate; a stack raises its
    first bad row's error, as that row alone would."""
    good, bad = ambient_point(0.2, BASE3, 1.0), ambient_point(0.2, BASE3, q)
    with pytest.raises(ChartDomainError, match="q > 0") as alone:
        bumpy_geom.f_map(bad, _conn(bumpy_geom, bad))
    u = np.ones(bumpy_geom.dim)
    for call in (lambda p: bumpy_geom.omega(p, u), bumpy_geom.metric,
                 lambda p: bumpy_geom.lift(p, BASE3, _conn(bumpy_geom, p)),
                 lambda p: bumpy_geom.phi(p, _conn(bumpy_geom, p))):
        with pytest.raises(ChartDomainError) as err:
            call(bad)
        assert str(err.value) == str(alone.value)
    stacked = np.array([good, bad, ambient_point(0.2, BASE3, -2.0)])
    for call in (lambda p: bumpy_geom.f_map(p, _conn(bumpy_geom, p)),
                 lambda p: bumpy_geom.omega(p, np.ones_like(p))):
        with pytest.raises(ChartDomainError) as batched:
            call(stacked)
        assert str(batched.value) == str(alone.value)


def test_bundle_map_past_the_float_range_cannot_be_represented(bumpy_geom):
    """f_map refuses a point whose det m or m^T g m overflows, naming it,
    and lets no RuntimeWarning escape (pyproject makes one an error); a
    stack raises its first bad row's error, as that row alone would."""
    good, bad = ambient_point(0.2, BASE3, 1.0), ambient_point(0.2, BASE3, 1e300)
    with pytest.raises(MetricError, match="cannot be represented") as alone:
        bumpy_geom.f_map(bad, _conn(bumpy_geom, bad))
    assert type(alone.value) is MetricError and str(bad.tolist()) in str(alone.value)
    u = np.ones(bumpy_geom.dim)
    for call in (lambda p: bumpy_geom.omega(p, u), bumpy_geom.metric,
                 lambda p: bumpy_geom.lift(p, BASE3, _conn(bumpy_geom, p)),
                 lambda p: bumpy_geom.phi(p, _conn(bumpy_geom, p))):
        with pytest.raises(MetricError) as err:
            call(bad)
        assert str(err.value) == str(alone.value)
    stacked = np.array([good, bad, ambient_point(0.2, BASE3, 1e250)])
    for call in (lambda p: bumpy_geom.f_map(p, _conn(bumpy_geom, p)),
                 lambda p: bumpy_geom.omega(p, np.ones_like(p))):
        with pytest.raises(MetricError) as batched:
            call(stacked)
        assert str(batched.value) == str(alone.value)
    # m^T g m overflows where det m = q^3 does not
    huge_g = SimpleNamespace(Psharp=np.zeros((3, 3)), g=1e300 * np.eye(3))
    with pytest.raises(MetricError, match="cannot be represented"):
        bumpy_geom.f_map(ambient_point(0.0, BASE3, 1e10), huge_g)


@pytest.mark.parametrize("q", [np.nan, -np.inf, 0.0])
def test_crude_connection_rejects_q_not_positive(bumpy_geom, q):
    oracle = CrudeOracle(bumpy_geom.spec)
    good, bad = ambient_point(0.1, BASE3, 1.0), ambient_point(0.1, BASE3, q)
    stacked = np.array([good, bad])
    for call in (lambda: oracle.omega(bad, np.ones(bumpy_geom.dim)),
                 lambda: oracle.omega_nodes(stacked, np.ones_like(stacked)),
                 lambda: oracle.curvature_pairs(stacked),
                 lambda: oracle.fiber_metric(bad)):
        with pytest.raises(MetricError, match="crude connection requires q > 0"):
            call()


def test_lift_pairs_to_base_metric(bumpy_geom):
    spec = bumpy_geom.spec
    st = stack_at(spec, BASE3)
    p = ambient_point(0.2, BASE3, 1.3)
    h = bumpy_geom.metric(p, st)
    for _ in range(4):
        X = RNG.standard_normal(3)
        Y = RNG.standard_normal(3)
        lhs = float(bumpy_geom.lift(p, X, st) @ h @ bumpy_geom.lift(p, Y, st))
        assert lhs == pytest.approx(float(X @ st.g @ Y), abs=1e-11)


def test_metric_corner_and_ppwave_exact_form():
    geom = AmbientGeometry(preset("ppwave"))
    x = np.array([0.3, -0.2, 0.1, 0.4])
    st = stack_at(geom.spec, x)
    q = 1.7
    h = geom.metric(ambient_point(0.5, x, q), st)
    want = np.zeros((6, 6))
    want[0, -1] = want[-1, 0] = 1.0
    want[1:-1, 1:-1] = q * q * st.g
    assert h == pytest.approx(want, abs=1e-12)


def test_fundamental_field_and_phi(bumpy_geom):
    p = ambient_point(0.4, BASE3, 1.5)
    F = bumpy_geom.fundamental_field(p)
    assert F[0] == 0.4 and F[-1] == 1.5
    assert np.max(np.abs(F[1:-1])) == 0.0
    phi = bumpy_geom.phi(p, _conn(bumpy_geom, p))
    # phi = q ds + s dq
    assert phi[0] == pytest.approx(1.5)
    assert phi[-1] == pytest.approx(0.4)
    assert np.max(np.abs(phi[1:-1])) < 1e-12


def test_torsion_matches_cotton_york_closed_form(bumpy_geom):
    st = stack_at(bumpy_geom.spec, BASE3)
    s = 0.3
    p = ambient_point(s, BASE3, 1.0)
    for _ in range(4):
        X = RNG.standard_normal(3)
        Y = RNG.standard_normal(3)
        u = np.concatenate(([0.0], X, [0.0]))
        w = np.concatenate(([0.0], Y, [0.0]))
        T = bumpy_geom.torsion(p, u, w, st)
        assert T == pytest.approx(bumpy_geom.torsion_closed_form(p, X, Y, st),
                                  abs=1e-12)
    # torsion vanishes on the slice and under F-contraction
    p0 = ambient_point(0.0, BASE3, 1.0)
    u = np.concatenate(([0.0], RNG.standard_normal(3), [0.0]))
    w = np.concatenate(([0.0], RNG.standard_normal(3), [0.0]))
    assert np.max(np.abs(bumpy_geom.torsion(p0, u, w, st))) < 1e-12
    F = bumpy_geom.fundamental_field(p)
    assert np.max(np.abs(bumpy_geom.torsion(p, F, u, st))) < 1e-12


def test_slice_connection_equals_induced_tractor(bumpy_geom):
    st = stack_at(bumpy_geom.spec, BASE3)
    p = ambient_point(0.0, BASE3, 1.0)
    X = RNG.standard_normal(3)
    u = np.concatenate(([0.0], X, [0.0]))
    assert bumpy_geom.omega(p, u, st) == pytest.approx(
        connection_matrix(st, X), abs=1e-12)


def test_crude_connection_regular_everywhere(bumpy_geom):
    oracle = CrudeOracle(bumpy_geom.spec)
    # regular even where the bundle map of the main connection degenerates
    u = np.concatenate(([0.2], RNG.standard_normal(3), [0.4]))
    Om = oracle.omega(ambient_point(50.0, BASE3, 0.3), u)
    assert np.all(np.isfinite(Om))
    # matches the induced tractor connection on the q = 1 slice
    st = stack_at(bumpy_geom.spec, BASE3)
    X = RNG.standard_normal(3)
    u = np.concatenate(([0.0], X, [0.0]))
    assert oracle.omega(ambient_point(0.7, BASE3, 1.0), u) \
        == pytest.approx(connection_matrix(st, X), abs=1e-12)


def test_nabla_F_is_identity_and_flow_geodesic(bumpy_geom):
    p = ambient_point(0.25, BASE3, 1.4)
    assert bumpy_geom.nabF_check(p, np.random.default_rng(0),
                                 stack_at(bumpy_geom.spec, BASE3)) < 1e-12
    F = bumpy_geom.fundamental_field(p)
    dF = np.zeros(5)
    dF[0], dF[-1] = F[0], F[-1]
    cov = bumpy_geom.covariant_derivative(p, F, F, dF, connection_at(bumpy_geom.spec, BASE3, 3))
    assert cov == pytest.approx(F, abs=1e-12)


def test_homogeneity_degrees(bumpy_geom):
    p = ambient_point(0.2, BASE3, 1.1)
    rep = bumpy_geom.homogeneity_checks(p, np.random.default_rng(0),
                                        stack_at(bumpy_geom.spec, BASE3))
    # the largest residual over the dilations t = 0.5 and 2
    assert rep["metric_scaling"] < 1e-10
    assert rep["torsion_scaling"] < 1e-10
    assert rep["dphi"] < 1e-9
    assert rep["lift_homogeneity"] < 1e-11


def test_checks_at_a_point_take_the_callers_stack(bumpy_geom, monkeypatch):
    """Given the stack at p's chart point, homogeneity_checks and nabF_check
    build no curvature data of their own and read only that stack."""
    p = ambient_point(0.2, BASE3, 1.1)
    st = stack_at(bumpy_geom.spec, BASE3)
    want = (bumpy_geom.homogeneity_checks(p, np.random.default_rng(5), st),
            bumpy_geom.nabF_check(p, np.random.default_rng(5), st))

    def no_stack(spec, x, order=2):
        raise AssertionError("connection data rebuilt")

    monkeypatch.setattr(ambient, "connection_at", no_stack)
    assert (bumpy_geom.homogeneity_checks(p, np.random.default_rng(5), st),
            bumpy_geom.nabF_check(p, np.random.default_rng(5), st)) == want


def test_curvature_ricci_vanishes_on_ricci_flat_slice():
    geom = AmbientGeometry(preset("ppwave"))
    x = np.array([0.2, 0.1, -0.3, 0.25])
    p = ambient_point(0.0, x, 1.0)
    pairs = geom.curvature_all_pairs(p)
    ric = geom.ricci(pairs)
    assert np.max(np.abs(ric)) < 1e-7
    # slice-tangent curvature kills F
    F = geom.fundamental_field(p)
    res = np.einsum("abcd,d->abc", pairs[1:-1, 1:-1], F)
    assert np.max(np.abs(res)) < 1e-7


def _orthonormal_frame(g):
    """g-orthonormal frame columns E and signs eps with E^T g E = diag(eps):
    Gram-Schmidt over eigenvector seeds, timelike directions first."""
    evals, evecs = np.linalg.eigh(g)
    frame, signs = [], []
    for v in evecs[:, np.argsort(evals)].T:
        for u, eps in zip(frame, signs):
            v = v - eps * float(u @ g @ v) * u
        norm2 = float(v @ g @ v)
        frame.append(v / np.sqrt(abs(norm2)))
        signs.append(1.0 if norm2 > 0 else -1.0)
    return np.column_stack(frame), np.array(signs)


def _frame_ricci(geom, p, pairs):
    """Ric(u, v) contracted over the h-dual frame (S, E~_1..E~_n, Q):
    h(R(S,u)v, Q) + h(R(Q,u)v, S) + sum_i eps_i h(R(E~_i,u)v, E~_i)."""
    x = p[1:-1]
    st = stack_at(geom.spec, x)
    h = geom.metric(p, st)
    E, eps = _orthonormal_frame(st.g)
    assert E.T @ st.g @ E == pytest.approx(np.diag(eps), abs=1e-12)
    S, Q = np.eye(geom.dim)[0], np.eye(geom.dim)[-1]
    lifted = [geom.lift(p, E[:, i], st) for i in range(geom.n)]
    frame = [S] + lifted + [Q]
    duals = [Q] + lifted + [S]
    weights = [1.0] + list(eps) + [1.0]
    ric = np.zeros((geom.dim, geom.dim))
    for a in range(geom.dim):
        for b in range(geom.dim):
            for Ea, Da, wgt in zip(frame, duals, weights):
                REa = np.einsum("c,cde,e->d", Ea, pairs[:, a], np.eye(geom.dim)[b])
                ric[a, b] += wgt * float(REa @ h @ Da)
    return ric


@pytest.mark.parametrize("name", ["bumpy", "ppwave"])
@pytest.mark.parametrize("s", [0.0, 0.15])
def test_ricci_trace_equals_frame_contraction(name, s):
    geom = AmbientGeometry(preset(name))
    x = geom.spec.sample_points(np.random.default_rng(3), 1)[0] * 0.5
    p = ambient_point(s, x, 1.0)
    pairs = geom.curvature_all_pairs(p)
    ric = geom.ricci(pairs)
    assert np.max(np.abs(ric - _frame_ricci(geom, p, pairs))) <= 1e-12


def test_default_s_bound(sphere_geom):
    bound = sphere_geom.default_s_bound(BASE3)
    assert bound == pytest.approx(1.0)  # 0.5 / max|eig(1/2 Id)|
    flat_geom = AmbientGeometry(preset("flat"))
    assert flat_geom.default_s_bound(BASE3) == np.inf


@pytest.mark.parametrize("name", ["bumpy", "ppwave", "sphere"])
@pytest.mark.parametrize("s", [0.0, 0.15])
def test_batched_omega_equals_per_direction_exactly(name, s):
    geom = AmbientGeometry(preset(name))
    rng = np.random.default_rng(7)
    x = geom.spec.sample_points(rng, 1)[0] * 0.5
    p = ambient_point(s, x, 1.2)
    dirs = np.vstack([np.eye(geom.dim), rng.standard_normal((3, geom.dim))])
    batch = geom.omega(p, dirs)
    assert batch.shape == (len(dirs), geom.dim, geom.dim)
    for u, got in zip(dirs, batch):
        assert np.array_equal(got, geom.omega(p, u))


def _reference_fd_curvature(omega_fn, point, dim, h):
    """The stencil with one omega call per direction and a loop per pair."""
    basis = np.eye(dim)
    omegas = np.stack([omega_fn(point, basis[c]) for c in range(dim)])
    dOmega = np.zeros((dim, dim) + omegas.shape[1:])
    for a in range(dim):
        shifts = {}
        for k in (-2, -1, 1, 2):
            pk = point.copy()
            pk[a] += k * h
            shifts[k] = np.stack([omega_fn(pk, basis[c]) for c in range(dim)])
        dOmega[a] = (-shifts[2] + 8 * shifts[1] - 8 * shifts[-1] + shifts[-2]) / (12 * h)
    R = np.zeros_like(dOmega)
    for a in range(dim):
        for b in range(dim):
            R[a, b] = (dOmega[a, b] - dOmega[b, a]
                       + omegas[a] @ omegas[b] - omegas[b] @ omegas[a])
    return R


def test_fd_curvature_one_omega_call_per_stencil_point(bumpy_geom):
    # one batched call, with each stencil point in it once
    def fn(pts, dirs):  # omega on the full order-3 data, which the stencil reads
        return bumpy_geom.omega(pts, dirs, connection_at(bumpy_geom.spec, pts[..., 1:-1], order=3))

    calls, points = [], []

    def omega_fn(pts, dirs):
        calls.append(dirs.shape)
        points.extend(map(tuple, pts.tolist()))
        return fn(pts, dirs)

    p = ambient_point(0.1, BASE3, 1.0)
    R = curvature_from_omega(omega_fn, p, bumpy_geom.dim)
    assert calls == [(1 + 4 * 5, 5, 5)] and len(set(points)) == 1 + 4 * 5
    assert np.array_equal(R, _reference_fd_curvature(fn, p, bumpy_geom.dim, 2e-3))
    assert np.array_equal(R, bumpy_geom.curvature_all_pairs(p))
    # a stack of k points: one call over their k (1 + 4 dim) stencil points
    calls.clear()
    points.clear()
    stack = np.array([p, ambient_point(0.0, BASE3, 1.0), ambient_point(-0.05, 0.5 * BASE3, 0.9)])
    Rs = curvature_from_omega(omega_fn, stack, bumpy_geom.dim)
    assert calls == [(3 * (1 + 4 * 5), 5, 5)] and len(set(points)) == 3 * (1 + 4 * 5)
    assert Rs.shape == (3,) + R.shape
    for row, point in zip(Rs, stack):
        assert np.array_equal(row, curvature_from_omega(fn, point, bumpy_geom.dim))


@pytest.mark.parametrize("name", ["bumpy", "ppwave", "s2xs2"])
def test_fd_curvature_of_own_data_nodes_agrees_with_the_stencil(name):
    # omega's own off-slice data differentiates Psharp along each direction
    # only; the stencil reads the full dPsharp: equal to rounding, not bit for bit
    geom = AmbientGeometry(preset(name))
    x = geom.spec.sample_points(np.random.default_rng(13), 2) * 0.5
    p = np.column_stack([[0.1, 0.0], x, [1.1, 0.9]])
    want = geom.curvature_all_pairs(p)
    got = curvature_from_omega(geom.omega, p, geom.dim)
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def _gauge(geom, p):
    """G = diag(1, f, 1) at the ambient point p, with f = m^-1."""
    f, _ = geom.f_map(p, _conn(geom, p))
    G = np.eye(geom.dim)
    G[1:-1, 1:-1] = f
    return G


def _off_slice_points(geom, count, rng):
    """Ambient points with chart part in the sample box, q in [0.7, 1.4] and
    0 < |s| <= 0.6 of the safe bound."""
    points = []
    for x in geom.spec.sample_points(rng, count) * 0.5:
        q = float(rng.uniform(0.7, 1.4))
        cap = geom.default_s_bound(x, q)
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6)) * (
            min(0.5, cap) if np.isfinite(cap) else 0.5)
        points.append(ambient_point(s, x, q))
    return points


@pytest.mark.parametrize("name", ["sphere", "ppwave", "s2xs2", "bumpy"])
def test_ambient_connection_is_the_gauged_tractor_connection(name):
    # Omega_amb(p, u) = G Omega_T(x, U) G^-1 + diag(0, f dm(u), 0), with
    # m = s Psharp + q Id and dm(u) = a Psharp + b Id + s dPsharp(U)
    geom = AmbientGeometry(preset(name, eps=0.1) if name == "bumpy" else preset(name))
    rng = np.random.default_rng(5)
    n = geom.n
    for p in _off_slice_points(geom, 4, rng):
        s, x = p[0], p[1:-1]
        st = stack_at(geom.spec, x)
        f, _ = geom.f_map(p, _conn(geom, p))
        G = _gauge(geom, p)
        for u in rng.standard_normal((3, geom.dim)):
            a, U, b = u[0], u[1:-1], u[-1]
            dm = a * st.Psharp + b * np.eye(n) + s * np.einsum("k,kij->ij", U, st.dPsharp)
            want = G @ connection_matrix(st, U) @ np.linalg.inv(G)
            want[1:-1, 1:-1] += f @ dm
            got = geom.omega(p, u)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["sphere", "ppwave", "s2xs2", "bumpy"])
def test_off_slice_transport_is_the_gauged_tractor_transport(name):
    # so an open ambient path transports as G(p1) P_T G(p0)^-1, with P_T the
    # tractor transport along its chart part
    geom = AmbientGeometry(preset(name, eps=0.1) if name == "bumpy" else preset(name))
    points = _off_slice_points(geom, 3, np.random.default_rng(6))
    amb = transport_matrix(AmbientOracle(geom.spec), path_from_waypoints(points), 1e-11)
    chart = transport_matrix(TractorOracle(geom.spec),
                             path_from_waypoints([p[1:-1] for p in points]), 1e-11)
    want = _gauge(geom, points[-1]) @ chart @ np.linalg.inv(_gauge(geom, points[0]))
    assert np.max(np.abs(amb - want)) <= 1e-9

"""Batched evaluation: every row of a stacked call equals the single call.

metric_jet, connection_at (at order 2 and 3) and compute_stack take (k, n)
stacks of points, each oracle's omega_nodes takes (k, point_dim) stacks of
nodes and its curvature_pairs (k, point_dim) stacks of points, and the
finite-difference ambient curvature makes one batched omega call.  Each is
checked for exact equality with its single-point form.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractor_forge import curvature
from tractor_forge import transport as tp
from tractor_forge.ambient import (AmbientGeometry, SingularMapError, ambient_point,
                                   curvature_from_omega)
from tractor_forge.curvature import compute_stack, connection_at
from tractor_forge.metric import (PRESET_NAMES, ChartDomainError, SingularMetricError,
                                  metric_jet, parse_config, preset)

SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)
SPECS = {name: preset(name) for name in PRESET_NAMES}

_STACK_FIELDS = ("Gamma", "dGamma", "Riem", "riem_low", "Ric", "Scal", "P", "Psharp",
                 "dP", "dPsharp", "covP", "W", "CY", "CYsharp", "dginv", "g", "ginv")
_CONNECTION_FIELDS = ("Gamma", "Ric", "Scal", "P", "Psharp", "g", "ginv")


def _chart_points(spec, max_size=5):
    """(k, n) stacks of points inside the spec's sampling box."""
    coord = st.tuples(*(st.floats(lo, hi) for lo, hi in spec.domain_box()))
    return st.lists(coord, min_size=1, max_size=max_size).map(np.array)


def _s_values(size):
    """Per-row s: zero (on the slice) or small and nonzero, mixed freely."""
    s = st.one_of(st.just(0.0), st.floats(-0.2, 0.2).filter(lambda v: v != 0.0))
    return st.lists(s, min_size=size, max_size=size)


def _directions(size, dim):
    return st.lists(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim),
                    min_size=size, max_size=size).map(np.array)


def _assert_rows_equal(batched, single, fields, i):
    for name in fields:
        got, want = np.asarray(getattr(batched, name))[i], np.asarray(getattr(single, name))
        assert np.array_equal(got, want), (name, i)


@pytest.mark.parametrize("name", PRESET_NAMES)
@SETTINGS
@given(data=st.data())
def test_batched_jet_rows_equal_single_jets(name, data):
    spec = SPECS[name]
    xs = data.draw(_chart_points(spec))
    for order, fields in ((2, ("point", "g", "dg", "d2g", "ginv")),
                          (3, ("point", "g", "dg", "d2g", "d3g", "ginv"))):
        jet = metric_jet(spec, xs, order)
        assert jet.g.shape == (len(xs), spec.n, spec.n)
        for i, x in enumerate(xs):
            _assert_rows_equal(jet, metric_jet(spec, x, order), fields, i)


@pytest.mark.parametrize("name", PRESET_NAMES)
@SETTINGS
@given(data=st.data())
def test_batched_connection_and_stack_rows_equal_single(name, data):
    spec = SPECS[name]
    xs = data.draw(_chart_points(spec))
    conn = connection_at(spec, xs)
    conn3 = connection_at(spec, xs, order=3)
    stack = compute_stack(metric_jet(spec, xs))
    assert conn.dPsharp is None
    for name in _CONNECTION_FIELDS:  # order 3 adds dPsharp and changes nothing else
        assert np.array_equal(getattr(conn3, name), getattr(conn, name)), name
    for i, x in enumerate(xs):
        _assert_rows_equal(conn, connection_at(spec, x), _CONNECTION_FIELDS, i)
        _assert_rows_equal(conn3, connection_at(spec, x, order=3),
                           _CONNECTION_FIELDS + ("dPsharp",), i)
        _assert_rows_equal(stack, compute_stack(metric_jet(spec, x)), _STACK_FIELDS, i)


@pytest.mark.parametrize("name", PRESET_NAMES)
@SETTINGS
@given(data=st.data())
def test_omega_nodes_rows_equal_omega(name, data):
    spec = SPECS[name]
    xs = data.draw(_chart_points(spec))
    k, n = xs.shape
    s = np.array(data.draw(_s_values(k)))
    q = np.array(data.draw(st.lists(st.floats(0.6, 1.6), min_size=k, max_size=k)))
    lifted = np.column_stack([s, xs, q])
    cases = [
        (tp.TractorOracle(spec), xs),
        (tp.LeviCivitaOracle(spec), xs),
        (tp.AmbientOracle(spec), lifted),
        (tp.CrudeOracle(spec), lifted),
    ]
    for oracle, points in cases:
        tangents = data.draw(_directions(k, oracle.point_dim))
        batch = oracle.omega_nodes(points, tangents)
        assert batch.shape == (k, oracle.fiber_dim, oracle.fiber_dim)
        for i in range(k):
            assert np.array_equal(batch[i], oracle.omega(points[i], tangents[i])), \
                (oracle.name, i)


def test_ambient_omega_on_slice_and_off_slice_rows():
    # all-slice, all-off-slice and mixed batches of the same nodes agree
    spec = SPECS["sphere"]
    oracle = tp.AmbientOracle(spec)
    rng = np.random.default_rng(11)
    xs = spec.sample_points(rng, 4) * 0.5
    tangents = rng.standard_normal((4, spec.n + 2))
    for s in ([0.0] * 4, [0.1, -0.05, 0.2, 0.15], [0.0, 0.1, 0.0, -0.1]):
        points = np.column_stack([s, xs, np.full(4, 1.2)])
        batch = oracle.omega_nodes(points, tangents)
        for i in range(4):
            assert np.array_equal(batch[i], oracle.omega(points[i], tangents[i]))


def test_geometry_omega_direction_stacks_per_point():
    geom = AmbientGeometry(SPECS["bumpy"])
    rng = np.random.default_rng(4)
    points = np.column_stack([[0.0, 0.1, -0.1], rng.uniform(-0.5, 0.5, (3, 3)),
                              [1.0, 1.2, 0.8]])
    dirs = rng.standard_normal((3, 4, geom.dim))
    batch = geom.omega(points, dirs)
    assert batch.shape == (3, 4, geom.dim, geom.dim)
    for i in range(3):
        for c in range(4):
            assert np.array_equal(batch[i, c], geom.omega(points[i], dirs[i, c]))


def test_f_map_on_a_stack_of_points_equals_each_row():
    geom = AmbientGeometry(SPECS["bumpy"])
    rng = np.random.default_rng(5)
    points = np.column_stack([[0.0, 0.1, -0.1], rng.uniform(-0.5, 0.5, (3, 3)),
                              [1.0, 1.2, 0.8]])
    f, m = geom.f_map(points, connection_at(geom.spec, points[:, 1:-1]))
    assert f.shape == m.shape == (3, geom.n, geom.n)
    for i in range(3):
        f_i, m_i = geom.f_map(points[i], connection_at(geom.spec, points[i, 1:-1]))
        assert np.array_equal(f[i], f_i) and np.array_equal(m[i], m_i)


_SINGULAR_AT_ORIGIN = parse_config("dim = 3\ng[1][1] = x1\ng[2][2] = 1\ng[3][3] = 1\n")


@pytest.mark.parametrize("spec, good, bad, error", [
    (SPECS["sphere"], [0.1, 0.2, -0.3], [1.5, 0.0, 0.0], ChartDomainError),
    (_SINGULAR_AT_ORIGIN, [0.5, 0.2, -0.3], [0.0, 0.1, 0.1], SingularMetricError),
    (SPECS["bumpy"], [0.1, 0.2, -0.3], [np.nan, 0.1, 0.2], ChartDomainError),  # no domain
])
def test_batch_with_one_bad_row_raises_like_the_row(spec, good, bad, error):
    good, bad = np.array(good), np.array(bad)
    calls = [lambda x: metric_jet(spec, x), lambda x: metric_jet(spec, x, order=2),
             lambda x: connection_at(spec, x),
             lambda x: tp.TractorOracle(spec).omega_nodes(np.atleast_2d(x),
                                                          np.ones((len(np.atleast_2d(x)), 3)))]
    for call in calls:
        call(good)
        with pytest.raises(error) as alone:
            call(bad)
        # the first bad row's own message, whatever follows it
        with pytest.raises(error) as batched:
            call(np.array([good, bad, good, 2 * bad]))
        assert str(batched.value) == str(alone.value)


def test_batch_checks_the_chart_before_the_determinant():
    spec = dataclasses.replace(_SINGULAR_AT_ORIGIN, chart_domain=((-1.0, 1.0),) * 3)
    singular, outside = np.array([0.0, 0.1, 0.1]), np.array([0.5, 1.5, 0.0])
    with pytest.raises(ChartDomainError) as alone:
        metric_jet(spec, outside)
    with pytest.raises(ChartDomainError) as batched:
        metric_jet(spec, np.array([singular, outside]))
    assert str(batched.value) == str(alone.value)
    with pytest.raises(SingularMetricError):
        metric_jet(spec, singular)


def test_batch_with_one_singular_bundle_map_raises_like_the_row():
    geom = AmbientGeometry(SPECS["sphere"])  # Psharp = Id/2: m singular at s = -2q
    x = np.array([0.1, 0.2, -0.1])
    good, bad = ambient_point(0.3, x, 1.0), ambient_point(-2.0, x, 1.0)
    u = np.ones(geom.dim)
    geom.omega(good, u)
    with pytest.raises(SingularMapError):
        geom.omega(bad, u)
    with pytest.raises(SingularMapError):
        geom.omega(np.array([good, bad]), np.array([u, u]))


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("s", [0.0, 0.1])
def test_batched_fd_curvature_equals_per_point_path(name, s):
    spec = SPECS[name]
    geom = AmbientGeometry(spec)
    x = spec.sample_points(np.random.default_rng(8), 1)[0] * 0.5
    p = ambient_point(s, x, 1.1)
    # one omega call per stencil point, each with its own single-point stack
    per_point = curvature_from_omega(
        lambda pts, dirs: np.stack([geom.omega(pt, d) for pt, d in zip(pts, dirs)]),
        p, geom.dim)
    assert np.array_equal(geom.curvature_all_pairs(p), per_point)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("s", [(0.0, 0.0, 0.0), (0.1, -0.05, 0.02), (0.0, 0.1, 0.0)],
                         ids=["on-slice", "off-slice", "mixed"])
def test_batched_curvature_pairs_rows_equal_per_point_calls(name, s):
    spec = SPECS[name]
    xs = spec.sample_points(np.random.default_rng(10), 3) * 0.5
    lifted = np.column_stack([s, xs, [1.0, 1.2, 0.9]])
    cases = [
        (tp.TractorOracle(spec), xs),
        (tp.LeviCivitaOracle(spec), xs),
        (tp.AmbientOracle(spec), lifted),
        (tp.CrudeOracle(spec), lifted),
    ]
    for oracle, points in cases:
        batch = oracle.curvature_pairs(points)
        d, fiber = oracle.point_dim, oracle.fiber_dim
        assert batch.shape == (3, d, d, fiber, fiber)
        for i in range(3):
            assert np.array_equal(batch[i], oracle.curvature_pairs(points[i:i + 1])[0]), \
                (oracle.name, i)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_only_off_slice_ambient_points_reach_the_order3_stack(monkeypatch, name):
    spec = SPECS[name]
    geom = AmbientGeometry(spec)
    rng = np.random.default_rng(9)
    x = spec.sample_points(rng, 1)[0] * 0.5
    p = ambient_point(0.0, x, 1.1)
    off = np.array([ambient_point(0.05, x, 1.1), ambient_point(-0.05, 0.5 * x, 0.9)])
    dirs = rng.standard_normal((2, geom.dim))
    jets = {2: [], 3: []}  # chart rows of every metric_jet call, by order

    def counting(spec, x, order=3, original=curvature.metric_jet):
        jets[order].extend(map(tuple, np.atleast_2d(x).tolist()))
        return original(spec, x, order)

    monkeypatch.setattr(curvature, "metric_jet", counting)
    geom.omega(p, dirs[0])
    geom.omega(np.array([p, ambient_point(0.0, 0.5 * x, 0.9)]), dirs)
    assert jets[2] == [tuple(x.tolist()), tuple(x.tolist()), tuple((0.5 * x).tolist())]
    crude = tp.CrudeOracle(spec)
    for points in (p[None], off[:1], off):
        crude.omega_nodes(points, dirs[:len(points)])
    assert jets[3] == []
    geom.curvature_all_pairs(p)
    assert jets[3] == [tuple(x.tolist())] * 4  # the S-shifted stencil points
    jets[3].clear()
    crude.curvature_pairs(off)  # one stack_at per point, for its tractor curvature
    assert jets[3] == [tuple(row[1:-1].tolist()) for row in off]

"""Paths, loop families, and parallel transport for all connection oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest

from tractor_forge import curvature, report
from tractor_forge import holonomy as hol
from tractor_forge import expr as ex
from tractor_forge import transport as tp
from tractor_forge.metric import PRESET_NAMES, MetricError, preset

import dop853

BASE = np.array([0.1, -0.15, 0.2])


def test_segment_point_and_tangent():
    seg = tp.segment_from_points([0.0, 0.0, 0.0], [1.0, 2.0, -1.0])
    assert seg.point(0.5) == pytest.approx([0.5, 1.0, -0.5])
    assert seg.tangent(0.3) == pytest.approx([1.0, 2.0, -1.0])
    rev = seg.reversed()
    assert rev.point(0.0) == pytest.approx(seg.point(1.0))
    assert rev.tangent(0.2) == pytest.approx(-seg.tangent(0.8))


def test_path_endpoint_matching():
    with pytest.raises(MetricError):
        tp.PathSpec((tp.segment_from_points([0, 0, 0], [1, 0, 0]),
                     tp.segment_from_points([2, 0, 0], [0, 0, 0])))


def test_rectangle_loop_properties():
    loop = tp.rectangle_loop(BASE, 0, 2, 0.3)
    assert loop.is_loop()
    assert loop.base == pytest.approx(BASE)
    assert len(loop.segments) == 4
    with pytest.raises(MetricError):
        tp.rectangle_loop(BASE, 0, 1, 0.0)


def test_trig_loop_closed_and_bounded():
    rng = np.random.default_rng(5)
    loop = tp.trig_loop(BASE, 0.2, rng)
    assert loop.is_loop()
    for t in np.linspace(0, 1, 40):
        assert np.max(np.abs(loop.segments[0].point(t) - BASE)) <= 0.2 + 1e-9


def test_loop_family_contents():
    loops = tp.loop_family(BASE, 4, 0.2, np.random.default_rng(1))
    assert len(loops) == 3 + 4  # C(3,2) rectangles plus 4 random loops
    for lp in loops:
        assert lp.is_loop()
        assert lp.base == pytest.approx(BASE)


def test_lift_loop_profiles():
    loop = tp.rectangle_loop(BASE, 0, 1, 0.2)
    t = ex.var(0)
    s_expr = ex.mul(ex.const(0.3), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))
    lifted = tp.lift_loop(loop, s_expr=s_expr)
    assert lifted.dim == 5
    assert lifted.is_loop()
    assert lifted.base[0] == 0.0 and lifted.base[-1] == 1.0
    # the s profile peaks at the global mid-parameter
    mid = lifted.segments[1].point(1.0)
    assert mid[0] == pytest.approx(0.3)


def test_flat_tractor_transport_identity():
    spec = preset("flat")
    oracle = tp.TractorOracle(spec)
    loop = tp.rectangle_loop(BASE, 0, 1, 0.3)
    G = tp.transport_matrix(oracle, loop, 1e-10)
    # off-diagonal couplings cancel around any loop of a flat metric
    assert np.max(np.abs(G - np.eye(5))) < 1e-8


def test_sphere_parallel_tractor_transported_to_itself():
    spec = preset("sphere")
    oracle = tp.TractorOracle(spec)
    v0 = np.array([1.0, 0.0, 0.0, 0.0, 0.5])
    for lp in tp.loop_family(BASE, 2, 0.3, np.random.default_rng(2)):
        v1 = tp.parallel_transport(oracle, lp, v0, 1e-10)
        assert v1 == pytest.approx(v0, abs=1e-8)


def test_transport_reversal_and_concatenation():
    spec = preset("bumpy", eps=0.1)
    oracle = tp.TractorOracle(spec)
    a = tp.path_from_waypoints([BASE, BASE + [0.2, 0.0, 0.1]])
    b = tp.path_from_waypoints([BASE + [0.2, 0.0, 0.1], BASE + [0.1, 0.2, 0.0]])
    Ga = tp.transport_matrix(oracle, a, 1e-10)
    Gb = tp.transport_matrix(oracle, b, 1e-10)
    Gab = tp.transport_matrix(oracle, tp.PathSpec(a.segments + b.segments), 1e-10)
    assert Gab == pytest.approx(Gb @ Ga, abs=1e-8)
    Ginv = tp.transport_matrix(oracle, tp.reverse_path(a), 1e-10)
    assert Ginv @ Ga == pytest.approx(np.eye(5), abs=1e-8)


def test_transport_preserves_fiber_metric_all_oracles():
    spec = preset("bumpy", eps=0.1)
    loop = tp.rectangle_loop(BASE, 0, 2, 0.25)
    lifted = tp.lift_loop(loop)
    abase = np.concatenate(([0.0], BASE, [1.0]))
    cases = [
        (tp.TractorOracle(spec), loop, BASE),
        (tp.AmbientOracle(spec), lifted, abase),
        (tp.LeviCivitaOracle(spec), loop, BASE),
    ]
    for oracle, path, base in cases:
        H = oracle.fiber_metric(base)
        G = tp.transport_matrix(oracle, path, 1e-10)
        assert np.max(np.abs(G.T @ H @ G - H)) < 1e-8, oracle.name


def test_ambient_oracle_off_slice_matches_on_slice_holonomy_base():
    # transporting around the same chart loop embedded at two different
    # constant q gives conjugate results related by the scaling action
    spec = preset("sphere")
    oracle = tp.AmbientOracle(spec)
    loop = tp.rectangle_loop(BASE, 0, 1, 0.25)
    G1 = tp.transport_matrix(oracle, tp.lift_loop(loop), 1e-10)
    G2 = tp.transport_matrix(oracle, tp.lift_loop(loop, q_expr=ex.const(2.0)), 1e-10)
    D = np.diag([2.0, 1.0, 1.0, 1.0, 2.0])
    assert np.linalg.inv(D) @ G2 @ D == pytest.approx(G1, abs=1e-7)


def test_crude_oracle_matches_tractor_on_unit_slice():
    spec = preset("bumpy", eps=0.1)
    loop = tp.rectangle_loop(BASE, 1, 2, 0.25)
    Gt = tp.transport_matrix(tp.TractorOracle(spec), loop, 1e-10)
    Gc = tp.transport_matrix(tp.CrudeOracle(spec), tp.lift_loop(loop), 1e-10)
    assert Gc[1:-1, 1:-1] == pytest.approx(Gt[1:-1, 1:-1], abs=1e-8)


def test_transport_deterministic():
    spec = preset("bumpy", eps=0.1)
    oracle = tp.TractorOracle(spec)
    loop = tp.trig_loop(BASE, 0.2, np.random.default_rng(9))
    v0 = np.arange(5, dtype=float)
    a = tp.parallel_transport(oracle, loop, v0, 1e-9)
    b = tp.parallel_transport(oracle, loop, v0, 1e-9)
    assert np.all(a == b)


def _oracle_values(exprs, t):
    return np.array([ex.evaluate(c, (t,)) for c in exprs])


def test_compiled_segments_equal_evaluate_exactly():
    rect = tp.rectangle_loop(BASE, 0, 2, 0.3)
    trig = tp.trig_loop(BASE, 0.2, np.random.default_rng(4))
    t = ex.var(0)
    s_expr = ex.mul(ex.const(0.3), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))
    paths = {
        "rectangle": rect,
        "trig_loop": trig,
        "reverse_path": tp.reverse_path(rect),
        "lift_loop": tp.lift_loop(rect, s_expr=s_expr, q_expr=ex.const(1.0) + t * t),
    }
    for name, path in paths.items():
        for seg in path.segments:
            for tv in [*np.linspace(0.0, 1.0, 9), 0.123, 0.777]:
                assert np.array_equal(seg.point(tv), _oracle_values(seg.coords, tv)), name
                assert np.array_equal(seg.tangent(tv), _oracle_values(seg.tangents, tv)), name


def _same(a, b) -> bool:
    """Equal values with equal signs, so -0.0 differs from 0.0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_segment_nodes_equal_evaluate_exactly():
    trig = tp.trig_loop(BASE, 0.2, np.random.default_rng(4)).segments[0]
    t = ex.var(0)
    s_expr = ex.mul(ex.const(0.3), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))
    q_expr = ex.const(1.0) + t * t
    segments = {
        "rectangle": tp.rectangle_loop(BASE, 0, 2, 0.3).segments[2],
        "trig_loop": trig,
        "off-slice lift": tp.lift_loop(tp.PathSpec((trig,)), s_expr, q_expr).segments[0],
        "sub": trig.sub(0.25, 0.75),
        "off-slice lift of a sub": tp.lift_loop(tp.PathSpec((trig.sub(0.5, 1.0),)),
                                                s_expr, q_expr).segments[0],
    }
    us = [*np.linspace(0.0, 1.0, 7), 0.123, 0.777]
    for name, seg in segments.items():
        t0, t1 = seg.span
        params = [t0 + (t1 - t0) * u for u in us]
        points, tangents = seg.nodes(us)
        assert points.shape == tangents.shape == (len(us), seg.dim), name
        assert _same(points, [_oracle_values(seg.coords, p) for p in params]), name
        assert _same(tangents, [(t1 - t0) * _oracle_values(seg.tangents, p) for p in params]), name
        for u, point, tangent in zip(us, points, tangents):
            assert _same(seg.point(u), point) and _same(seg.tangent(u), tangent), name


@pytest.mark.parametrize("text, bad", [("log(x1)", -0.5), ("sqrt(x1)", -1.0),
                                       ("1 / x1", 0.0), ("x1^-2", 0.0)])
def test_segment_domain_errors_raise(text, bad):
    seg = tp.Segment((ex.parse_expr(text, 1), ex.var(0), ex.var(0)))
    with pytest.raises(ex.EvaluationDomainError):
        seg.point(bad)


def test_parallel_transport_rejects_misshapen_v0():
    oracle = tp.TractorOracle(preset("flat"))
    loop = tp.rectangle_loop(BASE, 0, 1, 0.3)
    for v0 in (1.0, np.zeros(4), np.eye(4), np.zeros((4, 5)), np.zeros((5, 5, 1))):
        with pytest.raises(MetricError):
            tp.parallel_transport(oracle, loop, v0)
    assert tp.parallel_transport(oracle, loop, np.eye(5)[:, :2]).shape == (5, 2)
    # a list of L paths takes an (L, fiber) or (L, fiber, k) stack only
    loops = [loop, tp.rectangle_loop(BASE, 1, 2, 0.3)]
    for v0 in (np.zeros(5), np.eye(5), np.zeros((3, 5)), np.zeros((2, 4)),
               np.zeros((2, 5, 5, 1))):
        with pytest.raises(MetricError):
            tp.parallel_transport(oracle, loops, v0)
    assert tp.parallel_transport(oracle, loops, np.ones((2, 5))).shape == (2, 5)
    assert tp.parallel_transport(oracle, loops, np.ones((2, 5, 1))).shape == (2, 5, 1)
    # the stack is read the same way whatever the number of paths
    assert tp.parallel_transport(oracle, loops * 2 + [loop], np.ones((5, 5))).shape == (5, 5)


def _reference_step(omegas, h, v):
    """One Lobatto IIIA step of size h from v, given the connection
    matrices at its five nodes: the stage system for Y_2..Y_5 built block by
    block and solved alone; the result is Y_5."""
    fiber = len(v)
    blocks = [[(h * tp._A[i, j]) * omegas[j] for j in range(1, 5)] for i in range(1, 5)]
    for i in range(4):
        blocks[i][i] += np.eye(fiber)
    rhs = np.concatenate([v - (h * tp._A[i, 0]) * (omegas[0] @ v) for i in range(1, 5)])
    return np.linalg.solve(np.block(blocks), rhs)[-fiber:]


def _reference_segment(oracle, seg, v, tol):
    """Step-doubled Lobatto IIIA on one segment, with every step evaluating
    Omega afresh at its five nodes (fifteen calls an attempt)."""
    def step(times, h, v):
        """The step's result and the largest row-sum norm of its matrices."""
        omegas = [oracle.omega(seg.point(u), seg.tangent(u)) for u in times]
        return _reference_step(omegas, h, v), max(np.abs(om).sum(axis=1).max() for om in omegas)

    t, H, min_h = 0.0, 0.1, 1e-10
    while t < 1.0:
        H = min(H, 1.0 - t)
        h = 0.5 * H
        double, norm_double = step([t + c * H for c in tp._C], H, v)
        first, norm_first = step([t + c * h for c in tp._C], h, v)
        halves, norm_second = step([(t + h) + c * h for c in tp._C[:4]] + [t + H], h, first)
        err = (float(np.max(np.abs(halves - double))) / 64.0
               / max(1.0, float(np.max(np.abs(halves)))))
        if H * max(norm_double, norm_first, norm_second) >= tp._POLE:
            err = float("inf")
        if err <= tol or H <= min_h:
            if H <= min_h and err > tol:
                raise tp.TransportError(f"step underflow at t={t:.6f}")
            t += H
            v = halves
        factor = 0.9 * (tol / err) ** (1 / 9) if err > 0 else 5.0
        H = max(min_h, H * min(5.0, max(0.2, factor)))
    return v


def _reference_transport(oracle, path, v0, tol):
    v = np.asarray(v0, dtype=float).copy()
    for seg in path.segments:
        v = _reference_segment(oracle, seg, v, tol)
    return v


class _CountingOracle:
    """Records the (point, tangent) node of every omega call and of every
    row of every omega_nodes call, the number of omega calls, and the size
    and result of each omega_nodes call."""

    def __init__(self, inner):
        self.inner = inner
        self.point_dim = inner.point_dim
        self.fiber_dim = inner.fiber_dim
        self.nodes = []
        self.singles = 0
        self.batches = []
        self.results = []

    def omega(self, point, tangent):
        self.nodes.append((point.tobytes(), tangent.tobytes()))
        self.singles += 1
        return self.inner.omega(point, tangent)

    def omega_nodes(self, points, tangents):
        self.nodes.extend((p.tobytes(), u.tobytes()) for p, u in zip(points, tangents))
        self.batches.append(len(points))
        self.results.append(self.inner.omega_nodes(points, tangents))
        return self.results[-1]


def _check_first_batch(counted, oracle, paths):
    """The first omega_nodes call holds each path's first node, in order,
    and each of its rows is bit for bit the omega call at that node."""
    starts = [path.segments[0].nodes((0.0,)) for path in paths]
    assert counted.batches[0] == len(paths)
    assert counted.nodes[:len(paths)] == [(p[0].tobytes(), u[0].tobytes()) for p, u in starts]
    for row, (p, u) in zip(counted.results[0], starts):
        assert np.array_equal(row, oracle.omega(p[0], u[0]))


def _node_reuse_cases():
    spec = preset("bumpy", eps=0.1)
    t = ex.var(0)
    s_expr = ex.mul(ex.const(0.1), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))
    q_expr = ex.add(ex.const(1.0), ex.mul(ex.const(0.2), t * (ex.const(1.0) - t)))
    rect = tp.rectangle_loop(BASE, 0, 2, 0.25)
    return {
        "rectangle": (tp.TractorOracle(spec), rect, 1e-10),
        "trig": (tp.TractorOracle(spec),
                 tp.trig_loop(BASE, 0.25, np.random.default_rng(6)), 1e-10),
        "off-slice": (tp.AmbientOracle(spec),
                      tp.lift_loop(tp.rectangle_loop(BASE, 0, 1, 0.15), s_expr, q_expr), 1e-8),
    }


@pytest.mark.parametrize("case", ["rectangle", "trig", "off-slice"])
def test_transport_equals_reference_integrator_exactly(case):
    oracle, path, tol = _node_reuse_cases()[case]
    counted = _CountingOracle(oracle)
    got = tp.transport_matrix(counted, path, tol)
    reference = _CountingOracle(oracle)
    want = _reference_transport(reference, path, np.eye(oracle.fiber_dim), tol)
    assert np.array_equal(got, want)
    # the same nodes, with one connection matrix per distinct node time: ten
    # new nodes per attempt plus each segment's t = 0, against three steps of five
    attempts, rest = divmod(len(reference.nodes), 15)
    assert rest == 0
    assert len(counted.nodes) == 10 * attempts + len(path.segments)
    assert set(counted.nodes) == set(reference.nodes)
    # the first node in a batch of its own, then one batched call per
    # attempt for its ten new nodes; each later segment's first node
    # through omega
    _check_first_batch(counted, oracle, [path])
    assert counted.batches == [1] + [10] * attempts
    assert counted.singles == len(path.segments) - 1


def _lockstep_cases():
    """(oracle, paths, tol): lanes of unequal segment counts per oracle."""
    spec = preset("bumpy", eps=0.1)
    t = ex.var(0)
    s_expr = ex.mul(ex.const(0.1), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))
    chart = [tp.rectangle_loop(BASE, 0, 2, 0.25),
             tp.trig_loop(BASE, 0.25, np.random.default_rng(6)),
             tp.path_from_waypoints([BASE, BASE + [0.2, 0.0, 0.1], BASE + [0.1, 0.2, 0.0]]),
             tp.PathSpec((tp.trig_loop(BASE, 0.2, np.random.default_rng(7)).segments[0]
                          .sub(0.5, 1.0),))]
    lifted = [tp.lift_loop(p) for p in chart]
    return {
        "tractor": (tp.TractorOracle(spec), chart, 1e-10),
        "on-slice": (tp.AmbientOracle(spec), lifted, 1e-10),
        "off-slice": (tp.AmbientOracle(spec), [tp.lift_loop(p, s_expr) for p in chart], 1e-8),
        "crude": (tp.CrudeOracle(spec), lifted, 1e-10),
        "mixed-slice": (tp.AmbientOracle(spec), [lifted[0], tp.lift_loop(chart[1], s_expr),
                                                 lifted[2]], 1e-9),
    }


@pytest.mark.parametrize("case", ["tractor", "on-slice", "off-slice", "crude", "mixed-slice"])
def test_list_transport_equals_per_path_calls_exactly(case):
    oracle, paths, tol = _lockstep_cases()[case]
    fiber = oracle.fiber_dim
    eye = np.eye(fiber)
    got = tp.parallel_transport(oracle, paths, np.broadcast_to(eye, (len(paths), fiber, fiber)),
                                tol)
    assert got.shape == (len(paths), fiber, fiber)
    for path, G in zip(paths, got):
        assert np.array_equal(G, tp.transport_matrix(oracle, path, tol))
    # one vector per path, as an (L, fiber) stack
    vs = np.random.default_rng(3).standard_normal((len(paths), fiber))
    got = tp.parallel_transport(oracle, paths, vs, tol)
    for path, v, w in zip(paths, vs, got):
        assert np.array_equal(w, tp.parallel_transport(oracle, path, v, tol))


def test_mixed_slice_rounds_send_only_off_slice_nodes_to_the_order3_stack(monkeypatch):
    oracle, paths, tol = _lockstep_cases()["mixed-slice"]
    jets = {2: [], 3: []}  # chart rows of every metric_jet call, by order

    def counting(spec, x, order=3, original=curvature.metric_jet):
        jets[order].extend(map(tuple, np.atleast_2d(x).tolist()))
        return original(spec, x, order)

    monkeypatch.setattr(curvature, "metric_jet", counting)
    counted = _CountingOracle(oracle)
    eye = np.eye(oracle.fiber_dim)
    tp.parallel_transport(counted, paths, np.broadcast_to(eye, (len(paths),) + eye.shape), tol)
    nodes = [np.frombuffer(point) for point, _ in counted.nodes]
    off = [tuple(p[1:-1].tolist()) for p in nodes if p[0] != 0.0]
    on = [tuple(p[1:-1].tolist()) for p in nodes if p[0] == 0.0]
    assert off and on  # both kinds of node occur
    assert sorted(jets[3]) == sorted(off)
    assert sorted(jets[2]) == sorted(on)


@pytest.mark.parametrize("case", ["tractor", "off-slice"])
def test_lockstep_round_batches_every_running_lane(case):
    oracle, paths, tol = _lockstep_cases()[case]
    eye = np.eye(oracle.fiber_dim)
    alone = []
    for path in paths:
        counted = _CountingOracle(oracle)
        tp.parallel_transport(counted, path, eye, tol)
        alone.append(counted)
    together = _CountingOracle(oracle)
    tp.parallel_transport(together, paths, np.broadcast_to(eye, (len(paths),) + eye.shape), tol)
    # every lane's first node in one call; then a lane runs for as many
    # rounds as its path alone makes step attempts, and each round makes
    # one omega_nodes call for ten nodes per running lane
    _check_first_batch(together, oracle, paths)
    attempts = [len(c.batches) - 1 for c in alone]
    assert together.batches == [len(paths)] + [10 * sum(a > r for a in attempts)
                                               for r in range(max(attempts))]
    assert len(together.nodes) == 10 * sum(attempts) + sum(len(p.segments) for p in paths)
    assert together.singles == sum(c.singles for c in alone)
    assert set(together.nodes) == set().union(*(set(c.nodes) for c in alone))


def test_sub_segment_shares_compiled_code():
    seg = tp.trig_loop(BASE, 0.2, np.random.default_rng(4)).segments[0]
    assert seg.span == (0.0, 1.0)
    piece = seg.sub(0.25, 0.75)
    assert piece._table is seg._table
    assert piece.span == (0.25, 0.75)
    assert piece != seg and piece == seg.sub(0.25, 0.75)
    assert piece.sub(0.5, 1.0) == seg.sub(0.5, 0.75)
    for u in (0.0, 0.3, 1.0):
        assert np.array_equal(piece.point(u), seg.point(0.25 + 0.5 * u))
        assert np.array_equal(piece.tangent(u), 0.5 * seg.tangent(0.25 + 0.5 * u))
        assert piece.reversed().point(u) == pytest.approx(piece.point(1.0 - u), abs=1e-15)


def test_lift_loop_profiles_follow_each_piece_parameter():
    seg = tp.trig_loop(BASE, 0.2, np.random.default_rng(4)).segments[0]
    t = ex.var(0)
    s_expr = ex.mul(ex.const(0.3), t)
    lifted = tp.lift_loop(tp.PathSpec((seg.sub(0.5, 1.0), seg.sub(0.0, 0.5))), s_expr=s_expr)
    for u in (0.0, 0.4, 1.0):
        first, second = (s.point(u) for s in lifted.segments)
        assert first[0] == pytest.approx(0.15 * u)
        assert second[0] == pytest.approx(0.15 * (1.0 + u))
        assert np.array_equal(first[1:-1], seg.point(0.5 + 0.5 * u))
        assert np.array_equal(second[1:-1], seg.point(0.5 * u))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_ambient_and_crude_equal_the_tractor_connection_on_the_slice(name):
    """At (0, x, 1) along (0, U, 0), the ambient and crude connection
    matrices are the tractor ones at x along U.

    The identity is bookkeeping, not evidence for the paper's theorem: on
    the slice all three read the same order-2 data in the same splitting,
    so lifted loops on the slice integrate the tractor ODE again.
    """
    spec = preset(name)
    rng = np.random.default_rng(12)
    xs = spec.sample_points(rng, 6) * 0.5
    U = rng.standard_normal(xs.shape)
    want = tp.TractorOracle(spec).omega_nodes(xs, U)
    k = len(xs)
    points = np.column_stack([np.zeros(k), xs, np.ones(k)])
    dirs = np.column_stack([np.zeros(k), U, np.zeros(k)])
    bound = 1e-15 * np.maximum(1.0, np.abs(want).max(axis=(1, 2)))
    for oracle in (tp.AmbientOracle(spec), tp.CrudeOracle(spec)):
        got = oracle.omega_nodes(points, dirs)
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= bound), oracle.name


def test_lobatto_tableau():
    c, A = tp._C, tp._A
    r = np.sqrt(3.0 / 7.0)
    assert c == pytest.approx([0.0, (1 - r) / 2, 0.5, (1 + r) / 2, 1.0], rel=0, abs=1e-16)
    assert A.shape == (5, 5) and not A[0].any()
    assert A.sum(axis=1) == pytest.approx(c, rel=0, abs=1e-15)
    b = A[-1]  # stiffly accurate: the weights are the last row
    for k in range(1, 6):  # collocation: each row integrates degree < 5 exactly up to c_i
        assert A @ c ** (k - 1) == pytest.approx(c ** k / k, rel=0, abs=1e-15)
    for k in range(1, 9):  # b integrates polynomials of degree < 8 exactly
        assert b @ c ** (k - 1) == pytest.approx(1.0 / k, rel=0, abs=1e-15)
    assert abs(b @ c ** 8 - 1.0 / 9) > 1e-5  # and no more: the order is 8
    # the stability function's poles are the reciprocal eigenvalues of A[1:, 1:]
    assert tp._POLE == pytest.approx(1.0 / np.abs(np.linalg.eigvals(A[1:, 1:])).max(), rel=1e-14)


def test_dop853_tableau():
    c, b = dop853.C, dop853.B[0]
    assert len(c) == len(b) == len(dop853.A) + 1 == 12
    for k in range(1, 9):  # b integrates polynomials of degree < 8 exactly
        assert np.sum(b * c ** (k - 1)) == pytest.approx(1.0 / k, rel=0, abs=1e-14)
    for stage, row in enumerate(dop853.A, start=1):
        assert row.shape == (1, stage)
        assert np.sum(row) == pytest.approx(c[stage], rel=0, abs=1e-14)
    for weights in (dop853.E3, dop853.E5):
        assert weights.shape == (1, 12)
        assert np.sum(weights) == pytest.approx(0.0, rel=0, abs=1e-14)
    pytest.importorskip("scipy")
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(c, ref.C[:12])
    for stage, row in enumerate(dop853.A, start=1):
        assert np.array_equal(row[0], ref.A[stage, :stage])
    assert np.array_equal(b, ref.B)
    # the 13th (FSAL) stage has no weight in either error estimate
    assert ref.E3[12] == ref.E5[12] == 0.0
    assert np.array_equal(dop853.E3[0], ref.E3[:12])
    assert np.array_equal(dop853.E5[0], ref.E5[:12])


def test_package_imports_no_scipy():
    """The tableau is literal: importing the package and its command line
    loads numpy only, not scipy."""
    code = ("import sys, tractor_forge, tractor_forge.cli; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_transport_error_on_the_verify_loops(name):
    """At verify's tol = 1e-9, every loop transport of verify's family lies
    within 1e-9 of the DOP853 reference at tol = 1e-13: the tractor loops,
    their slice lifts and their off-slice lifts, and the products of piece
    transports that verify's two holonomy estimates (tractor, off-slice
    ambient) take for the loop transports."""
    suite = report._Suite(report.RunConfig(preset=name))
    lifted = [tp.lift_loop(lp) for lp in suite.loops]
    off = [tp.lift_loop(lp, s_expr=suite._s_profile(), q_expr=suite._q_profile())
           for lp in suite.loops]
    for oracle, base, paths, loops in ((suite.tractor, suite.base, suite.loops, suite.loops),
                                       (suite.ambient, suite.abase, lifted + off, off)):
        eye = np.eye(oracle.fiber_dim)
        want = {id(path): dop853.transport(oracle, path, eye, 1e-13) for path in paths}
        got = tp.parallel_transport(oracle, paths, np.broadcast_to(eye, (len(paths),) + eye.shape),
                                    1e-9)
        products = hol.holonomy_algebra(oracle, base, loops, 1e-9).loop_transports
        for path, G in [*zip(paths, got), *zip(loops, products)]:
            assert np.max(np.abs(G - want[id(path)])) <= 1e-9, oracle.name


class _FixedOracle:
    """A connection whose matrix is the same constant everywhere."""

    point_dim = 3
    fiber_dim = 5

    def __init__(self, matrix):
        self.matrix = matrix

    def omega_nodes(self, points, tangents):
        return np.broadcast_to(self.matrix, (len(points),) + self.matrix.shape).copy()

    omega = tp._omega_at_node


@pytest.mark.parametrize("case", ["nan", "huge"])
def test_unusable_connection_matrices_raise(case):
    matrix = np.random.default_rng(8).standard_normal((5, 5))
    matrix = np.where(matrix > 1.0, np.nan, matrix) if case == "nan" else 1e200 * matrix
    oracle = _FixedOracle(matrix)
    loop = tp.rectangle_loop(BASE, 0, 1, 0.3)
    with pytest.raises(tp.TransportError, match=r"t=0\.000000, 2h="):
        tp.transport_matrix(oracle, loop, 1e-9)
    # a lane in a list fails the whole call the same way
    with pytest.raises(tp.TransportError):
        tp.parallel_transport(oracle, [loop, loop], np.ones((2, 5)), 1e-9)



class _SingularStageOracle(_FixedOracle):
    """Zero, but for a corner entry at the end node t = 0.1 of the first
    attempt (2h = 0.1) along the unit segment on the x-axis, chosen so that
    the last stage's row of that step's system is zero."""

    def __init__(self):
        super().__init__(np.zeros((5, 5)))
        self.corner = -1.0 / (0.1 * tp._A[4, 4])

    def omega_nodes(self, points, tangents):
        out = super().omega_nodes(points, tangents)
        out[points[:, 0] == 0.1, 0, 0] = self.corner
        return out


def test_a_singular_stage_system_raises():
    oracle = _SingularStageOracle()
    assert 0.1 * tp._A[4, 4] * oracle.corner == -1.0
    path = tp.path_from_waypoints([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(tp.TransportError, match=r"singular stage matrix at t=0\.000000, 2h="):
        tp.transport_matrix(oracle, path, 1e-9)
    # beside a lane whose nodes all have x = 0.5
    other = tp.path_from_waypoints([[0.5, 0.0, 0.0], [0.5, 1.0, 0.0]])
    with pytest.raises(tp.TransportError, match="singular stage matrix"):
        tp.parallel_transport(oracle, [other, path], np.ones((2, 5)), 1e-9)

def test_a_transport_past_the_float_range_raises():
    """A constant connection -300 Id grows the transport by e^300 along each
    side of a unit rectangle: in the third side the stage values pass the
    float range and the non-finite check raises TransportError, with no
    numpy overflow warning on the way (RuntimeWarning is an error here)."""
    oracle = _FixedOracle(-300.0 * np.eye(5))
    with pytest.raises(tp.TransportError, match="non-finite stage values"):
        tp.transport_matrix(oracle, tp.rectangle_loop(BASE, 0, 1, 1.0), 1e-9)


def test_a_steep_connection_shrinks_the_step_and_stays_accurate():
    """A constant skew connection with max row sum 138, so 2h ||Omega|| is
    past `_POLE` at the first attempt: the steps shrink and the transport
    around a rectangle (four segments) is exp(-4 Omega) within 1e-6
    (measured 3.1e-8)."""
    matrix = np.random.default_rng(8).standard_normal((5, 5))
    matrix = 20.0 * (matrix - matrix.T)
    assert 0.1 * np.abs(matrix).sum(axis=1).max() > tp._POLE
    G = tp.transport_matrix(_FixedOracle(matrix), tp.rectangle_loop(BASE, 0, 1, 0.3), 1e-9)
    w, U = np.linalg.eig(-4.0 * matrix)
    assert np.max(np.abs(G - (U @ np.diag(np.exp(w)) @ np.linalg.inv(U)).real)) <= 1e-6

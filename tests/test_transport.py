"""Paths, loop families, and parallel transport for all connection oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest

from tractor_forge import ambient, curvature, report
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


def _oracle_values(seg, exprs, t):
    """The tree-walking values of a segment's expressions at t and its parameters."""
    return np.array([ex.evaluate(c, (t, *seg.params)) for c in exprs])


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
                assert np.array_equal(seg.point(tv), _oracle_values(seg, seg.coords, tv)), name
                assert np.array_equal(seg.tangent(tv), _oracle_values(seg, seg.tangents, tv)), name


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
        assert _same(points, [_oracle_values(seg, seg.coords, p) for p in params]), name
        assert _same(tangents, [(t1 - t0) * _oracle_values(seg, seg.tangents, p)
                                for p in params]), name
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
            tp.parallel_transport(oracle, loop, v0, 1e-10)
    assert tp.parallel_transport(oracle, loop, np.eye(5)[:, :2], 1e-10).shape == (5, 2)
    # a list of L paths takes an (L, fiber) or (L, fiber, k) stack only
    loops = [loop, tp.rectangle_loop(BASE, 1, 2, 0.3)]
    for v0 in (np.zeros(5), np.eye(5), np.zeros((3, 5)), np.zeros((2, 4)),
               np.zeros((2, 5, 5, 1))):
        with pytest.raises(MetricError):
            tp.parallel_transport(oracle, loops, v0, 1e-10)
    assert tp.parallel_transport(oracle, loops, np.ones((2, 5)), 1e-10).shape == (2, 5)
    assert tp.parallel_transport(oracle, loops, np.ones((2, 5, 1)), 1e-10).shape == (2, 5, 1)
    # the stack is read the same way whatever the number of paths
    five = tp.parallel_transport(oracle, loops * 2 + [loop], np.ones((5, 5)), 1e-10)
    assert five.shape == (5, 5)


def _reference_step(omegas, h, v):
    """One Lobatto IIIA step of size h from v, given the connection
    matrices at its nodes: the stage system for Y_2..Y_s built block by
    block and solved alone; the result is Y_s."""
    fiber, s = len(v), tp._STAGES
    blocks = [[(h * tp._A[i, j]) * omegas[j] for j in range(1, s)] for i in range(1, s)]
    for i in range(s - 1):
        blocks[i][i] += np.eye(fiber)
    rhs = np.concatenate([v - (h * tp._A[i, 0]) * (omegas[0] @ v) for i in range(1, s)])
    return np.linalg.solve(np.block(blocks), rhs)[-fiber:]


def _reference_segment(oracle, seg, v, tol):
    """Step-doubled Lobatto IIIA on one segment, with every step evaluating
    Omega afresh at its nodes (three steps of `_STAGES` calls an attempt),
    the first attempt the whole segment."""
    def step(times, h, v):
        """The step's result and the largest row-sum norm of its matrices."""
        omegas = [oracle.omega(seg.point(u), seg.tangent(u)) for u in times]
        return _reference_step(omegas, h, v), max(np.abs(om).sum(axis=1).max() for om in omegas)

    order = 2 * tp._STAGES - 2
    t, H, min_h = 0.0, tp._FIRST_SIZE, 1e-10
    while t < 1.0:
        H = min(H, 1.0 - t)
        h = 0.5 * H
        double, norm_double = step([t + c * H for c in tp._C], H, v)
        first, norm_first = step([t + c * h for c in tp._C], h, v)
        halves, norm_second = step([(t + h) + c * h for c in tp._C[:-1]] + [t + H], h, first)
        err = (float(np.max(np.abs(halves - double))) / tp._DOUBLING_DIVISOR
               / max(1.0, float(np.max(np.abs(halves)))))
        if H * max(norm_double, norm_first, norm_second) >= tp._POLE:
            err = float("inf")
        if err <= tol or H <= min_h:
            if H <= min_h and err > tol:
                raise tp.TransportError(f"step underflow at t={t:.6f}")
            t += H
            v = halves
        factor = 0.9 * (tol / err) ** (1 / (order + 1)) if err > 0 else 5.0
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

    def __getattr__(self, name):  # fiber_metric, curvature_pairs
        return getattr(self.inner, name)

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
    # the same nodes, with one connection matrix per distinct node time: 22
    # new nodes per attempt plus each segment's t = 0, against three steps of nine
    attempts, rest = divmod(len(reference.nodes), 3 * tp._STAGES)
    assert rest == 0
    assert len(counted.nodes) == 22 * attempts + len(path.segments)
    assert set(counted.nodes) == set(reference.nodes)
    # the first node in a batch of its own, then one batched call per
    # attempt for its 22 new nodes; each later segment's first node
    # through omega
    _check_first_batch(counted, oracle, [path])
    assert counted.batches == [1] + [22] * attempts
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

    along = []  # (chart point, direction) of each row of the order-3 calls

    def connection(spec, x, order=2, directions=None, original=ambient.connection_at):
        if order == 3:  # one direction per off-slice node: its tangent's chart part
            assert np.shape(directions) == np.shape(np.atleast_2d(x))[:1] + (1, spec.n)
            along.extend(zip(map(tuple, np.atleast_2d(x).tolist()),
                             map(tuple, np.reshape(directions, (-1, spec.n)).tolist())))
        return original(spec, x, order=order, directions=directions)

    monkeypatch.setattr(curvature, "metric_jet", counting)
    monkeypatch.setattr(ambient, "connection_at", connection)
    counted = _CountingOracle(oracle)
    eye = np.eye(oracle.fiber_dim)
    tp.parallel_transport(counted, paths, np.broadcast_to(eye, (len(paths),) + eye.shape), tol)
    nodes = [(np.frombuffer(point), np.frombuffer(u)) for point, u in counted.nodes]
    off = [tuple(p[1:-1].tolist()) for p, _ in nodes if p[0] != 0.0]
    on = [tuple(p[1:-1].tolist()) for p, _ in nodes if p[0] == 0.0]
    assert off and on  # both kinds of node occur
    assert sorted(jets[3]) == sorted(off)
    assert sorted(jets[2]) == sorted(on)
    assert sorted(along) == sorted((tuple(p[1:-1].tolist()), tuple(u[1:-1].tolist()))
                                   for p, u in nodes if p[0] != 0.0)


def _chunks(rows):
    """The sizes of the omega_nodes calls that carry a batch of `rows` nodes."""
    return [min(128, rows - lo) for lo in range(0, rows, 128)]


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
    # rounds as its path alone makes step attempts, and each round's 22
    # nodes per running lane go to omega_nodes in calls of at most 128 rows
    _check_first_batch(together, oracle, paths)
    attempts = [len(c.batches) - 1 for c in alone]
    assert together.batches == [len(paths)] + [
        size for r in range(max(attempts)) for size in _chunks(22 * sum(a > r for a in attempts))]
    assert len(together.nodes) == 22 * sum(attempts) + sum(len(p.segments) for p in paths)
    assert together.singles == sum(c.singles for c in alone)
    assert set(together.nodes) == set().union(*(set(c.nodes) for c in alone))


def test_a_segment_met_whole_takes_one_attempt():
    """A segment whose whole-segment attempt meets tol takes that one
    attempt: its first node and 22 new ones, within tol of DOP853."""
    oracle = tp.TractorOracle(preset("bumpy", eps=0.1))
    path = tp.path_from_waypoints([BASE, BASE + [0.2, 0.0, 0.1]])
    counted = _CountingOracle(oracle)
    G = tp.transport_matrix(counted, path, 1e-10)
    assert counted.batches == [1, 22] and counted.singles == 0
    assert len(set(counted.nodes)) == 1 + 22
    want = dop853.transport(oracle, path, np.eye(oracle.fiber_dim), 1e-13)
    assert np.max(np.abs(G - want)) <= 1e-10


def test_a_round_past_the_chunk_size_equals_unchunked_rows(monkeypatch):
    """Eight off-slice lanes send 8 x 22 = 176 new nodes in their first
    round: two omega_nodes calls of 128 and 48 rows, bit for bit the rows of
    one call on all 176, and the transports equal an integrator's without
    chunks, bit for bit."""
    oracle, paths, tol = _lockstep_cases()["off-slice"]
    paths = paths * 2
    fiber = oracle.fiber_dim
    eye = np.broadcast_to(np.eye(fiber), (len(paths), fiber, fiber))
    counted = _CountingOracle(oracle)
    got = tp.parallel_transport(counted, paths, eye, tol)
    assert counted.batches[:3] == [len(paths), 128, 48]
    rows = counted.nodes[len(paths):len(paths) + 176]
    points = np.array([np.frombuffer(point) for point, _ in rows])
    tangents = np.array([np.frombuffer(tangent) for _, tangent in rows])
    assert np.array_equal(np.concatenate(counted.results[1:3]),
                          oracle.omega_nodes(points, tangents))
    monkeypatch.setattr(tp, "_NODE_CHUNK", 10 ** 6)
    monkeypatch.setattr(tp, "_SOLVE_CHUNK", 10 ** 6)
    whole = _CountingOracle(oracle)
    assert np.array_equal(tp.parallel_transport(whole, paths, eye, tol), got)
    assert whole.batches[:2] == [len(paths), 176]


def test_verify_estimates_send_at_most_128_nodes_per_call(monkeypatch):
    """Every omega_nodes call of verify's two bumpy holonomy estimates
    (tractor, off-slice ambient) has at most 128 rows, though their first
    rounds have 27 lanes of 22 new nodes, and every batched stage solve
    has at most 16 systems."""
    suite = report._Suite(report.RunConfig(preset="bumpy"))
    off = suite.off_loops
    stage_size = 8 * suite.tractor.fiber_dim
    solves, solve = [], np.linalg.solve

    def counting(a, b):
        if np.shape(a)[-1] == stage_size:
            solves.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    for oracle, base, loops in ((suite.tractor, suite.base, suite.loops),
                                (suite.ambient, suite.abase, off)):
        counted = _CountingOracle(oracle)
        hol.holonomy_algebra(counted, base, loops, 1e-9, suite.cfg.tol_rank)
        assert counted.batches[0] == 27 and max(counted.batches) == 128, oracle.name
    assert solves and max(solves) == 16


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


def test_segment_ends_come_from_one_nodes_call_and_stay_with_their_segment(monkeypatch):
    """A segment's point and tangent at u = 0 and 1 are the rows of one
    `nodes((0, 1))` call, made on the first such read: building a path and
    reading its base, end and loop check evaluate each segment's table once.
    The copies `sub`, `bind` and `reversed` make read their own ends, and a
    returned end is a fresh array."""
    calls, real = [], tp.Segment.nodes
    monkeypatch.setattr(tp.Segment, "nodes",
                        lambda self, us: calls.append(tuple(us)) or real(self, us))
    corners = [BASE, BASE + [0.2, 0, 0], BASE + [0.2, 0.2, 0], BASE + [0, 0.2, 0], BASE]
    path = tp.path_from_waypoints(corners)
    assert path.is_loop() and np.array_equal(path.base, BASE) and np.array_equal(path.end, BASE)
    assert calls == [(0.0, 1.0)] * 4
    seg = path.segments[1]
    for copy in (seg.sub(0.25, 0.5), seg.bind([v + 0.1 for v in seg.params]), seg.reversed()):
        points, tangents = real(copy, (0.0, 1.0))
        for u in (0.0, 1.0):
            assert np.array_equal(copy.point(u), points[int(u)])
            assert np.array_equal(copy.tangent(u), tangents[int(u)])
    assert np.array_equal(seg.sub(0.25, 0.5).point(1.0), seg.point(0.5))
    end = seg.point(1.0)
    end += 1.0
    assert np.array_equal(seg.point(1.0), real(seg, (1.0,))[0][0])


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
    c, A, s = tp._C, tp._A, tp._STAGES
    assert s == 9 and A.shape == (9, 9) and not A[0].any()
    # the nodes: 0, 1 and the roots of P_8'(2c - 1); the middle one is 1/2
    # exactly, so a step of 2h has a node at t + h
    interior = (np.polynomial.legendre.Legendre.basis(s - 1).deriv().roots() + 1) / 2
    assert c == pytest.approx([0.0, *interior, 1.0], rel=0, abs=1e-15)
    assert c[s // 2] == 0.5 and c[-1] == 1.0
    assert A.sum(axis=1) == pytest.approx(c, rel=0, abs=1e-15)
    b = A[-1]  # stiffly accurate: the weights are the last row
    for k in range(1, s + 1):  # collocation: each row integrates degree < 9 exactly up to c_i
        assert A @ c ** (k - 1) == pytest.approx(c ** k / k, rel=0, abs=1e-15)
    for k in range(1, 17):  # b integrates polynomials of degree < 16 exactly
        assert b @ c ** (k - 1) == pytest.approx(1.0 / k, rel=0, abs=1e-15)
    assert abs(b @ c ** 16 - 1.0 / 17) > 1e-10  # and no more: the order is 16 (4.0e-10 off)
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
    off = suite.off_loops
    for oracle, base, paths, loops in ((suite.tractor, suite.base, suite.loops, suite.loops),
                                       (suite.ambient, suite.abase, lifted + off, off)):
        eyes = np.broadcast_to(np.eye(oracle.fiber_dim), (len(paths), oracle.fiber_dim,
                                                          oracle.fiber_dim))
        want = {id(path): G for path, G in zip(paths, dop853.transport(oracle, paths, eyes,
                                                                       1e-13))}
        got = tp.parallel_transport(oracle, paths, eyes, 1e-9)
        products = hol.holonomy_algebra(oracle, base, loops, 1e-9, 1e-6).loop_transports
        for path, G in [*zip(paths, got), *zip(loops, products)]:
            assert np.max(np.abs(G - want[id(path)])) <= 1e-9, oracle.name


def test_dop853_lockstep_equals_each_path_alone():
    """The DOP853 reference transports verify's loops in lockstep, one
    omega_nodes call a round; each transport is bit for bit that of its path
    integrated alone: the bumpy tractor loops, and slice and off-slice lifts
    of three of them, whose lanes mix order-2 and order-3 ambient nodes."""
    suite = report._Suite(report.RunConfig(preset="bumpy"))
    lifted = [tp.lift_loop(lp) for lp in suite.loops[:3]]
    off = suite.off_loops[:3]
    for oracle, paths in ((suite.tractor, suite.loops), (suite.ambient, lifted + off)):
        eye = np.eye(oracle.fiber_dim)
        together = _CountingOracle(oracle)
        got = dop853.transport(together, paths, np.broadcast_to(eye, (len(paths),) + eye.shape),
                               1e-13)
        attempts = []
        for path, G in zip(paths, got):
            alone = _CountingOracle(oracle)
            assert np.array_equal(G, dop853.transport_alone(alone, path, eye, 1e-13))
            attempts.append(len(alone.batches))
        # round r holds the twelve nodes of each path with more than r attempts
        assert together.batches == [12 * sum(a > r for a in attempts)
                                    for r in range(max(attempts))]


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
    """Zero, but for a corner entry at the end node t = 1 of the first
    attempt (the whole segment, 2h = 1) along the unit segment on the
    x-axis, chosen so that the last stage's row of that step's system is
    zero."""

    def __init__(self):
        super().__init__(np.zeros((5, 5)))
        self.corner = -1.0 / (tp._FIRST_SIZE * tp._A[-1, -1])

    def omega_nodes(self, points, tangents):
        out = super().omega_nodes(points, tangents)
        out[points[:, 0] == 1.0, 0, 0] = self.corner
        return out


def test_a_singular_stage_system_raises():
    oracle = _SingularStageOracle()
    assert tp._FIRST_SIZE * tp._A[-1, -1] * oracle.corner == -1.0
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
    past `_POLE` at the first attempt (the whole segment): the steps shrink and the transport
    around a rectangle (four segments) is exp(-4 Omega) within 1e-6
    (measured 7.9e-10)."""
    matrix = np.random.default_rng(8).standard_normal((5, 5))
    matrix = 20.0 * (matrix - matrix.T)
    assert tp._FIRST_SIZE * np.abs(matrix).sum(axis=1).max() > tp._POLE
    G = tp.transport_matrix(_FixedOracle(matrix), tp.rectangle_loop(BASE, 0, 1, 0.3), 1e-9)
    w, U = np.linalg.eig(-4.0 * matrix)
    assert np.max(np.abs(G - (U @ np.diag(np.exp(w)) @ np.linalg.inv(U)).real)) <= 1e-6


# -- path templates against the expression-tree construction -----------------------
#
# Each loop builder binds its coefficients to a cached template segment.  The
# functions below build the same paths from expression trees, one tree per
# loop, as the builders did before templates: the reference for every node.


def _tree_line(p0, p1):
    t = ex.var(0)
    return tp.Segment(tuple(ex.add(ex.const(a), ex.mul(ex.const(b - a), t))
                            for a, b in zip(p0, p1)))


def _tree_rectangle(base, i, j, radius):
    corners = [base.copy() for _ in range(5)]
    corners[1][i] += radius
    corners[2][i] += radius
    corners[2][j] += radius
    corners[3][j] += radius
    return tp.PathSpec(tuple(_tree_line(a, b) for a, b in zip(corners, corners[1:])))


def _tree_trig_loop(base, radius, rng):
    t = ex.var(0)
    coords = []
    amps = rng.uniform(-1.0, 1.0, size=(len(base), tp._HARMONICS, 2))
    for b, rows in zip(base, amps):
        reach = float(np.sum(np.abs(rows[:, 0])) + 2.0 * np.sum(np.abs(rows[:, 1])))
        scale = radius / max(1.0, reach)
        e = ex.const(b)
        for k, (ca, cb) in enumerate(rows, start=1):
            angle = ex.mul(ex.const(2.0 * np.pi * k), t)
            e = ex.add(e, ex.mul(ex.const(ca * scale), ex.call("sin", angle)))
            e = ex.add(e, ex.mul(ex.const(cb * scale),
                                 ex.sub(ex.call("cos", angle), ex.const(1.0))))
        coords.append(e)
    return tp.PathSpec((tp.Segment(tuple(coords)),))


def _tree_lift(path, s_expr, q_expr):
    t = ex.var(0)
    k = len(path.segments)
    segs = []
    for idx, seg in enumerate(path.segments):
        t0, t1 = seg.span
        u = ex.div(ex.sub(t, ex.const(t0)), ex.const(t1 - t0))
        glob = ex.div(ex.add(ex.const(float(idx)), u), ex.const(float(k)))
        s_loc = ex.substitute(s_expr, 0, glob)
        q_loc = ex.substitute(q_expr, 0, glob)
        segs.append(tp.Segment((s_loc,) + seg.coords + (q_loc,),
                               (ex.derivative(s_loc, 0),) + seg.tangents + (ex.derivative(q_loc, 0),), seg.span))
    return tp.PathSpec(tuple(segs))


def _tree_reverse(path):
    flip = ex.sub(ex.const(1.0), ex.var(0))
    return tp.PathSpec(tuple(
        tp.Segment(tuple(ex.substitute(c, 0, flip) for c in seg.coords),
                   span=(1.0 - seg.span[1], 1.0 - seg.span[0]))
        for seg in reversed(path.segments)))


def _halves(path):
    """Each segment's two halves, as one-segment paths."""
    return [tp.PathSpec((seg.sub(a, b),)) for seg in path.segments
            for a, b in ((0.0, 0.5), (0.5, 1.0))]


def _verify_profiles(amp):
    t = ex.var(0)
    bump = ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2)
    return ex.mul(ex.const(amp), bump), ex.add(ex.const(1.0), ex.mul(ex.const(0.25), bump))


_NODE_US = [*tp._C, *np.linspace(0.0, 1.0, 7), 0.123, 0.777]


def _template_and_tree_paths(base, radius, seed):
    """(name, template path, tree path) for every builder and transformation."""
    n = len(base)
    pairs = [(f"rectangle {i}{j}", tp.rectangle_loop(base, i, j, radius),
              _tree_rectangle(base, i, j, radius)) for i in range(n) for j in range(i + 1, n)]
    pairs += [(f"trig {k}", tp.trig_loop(base, radius, np.random.default_rng((seed, k))),
               _tree_trig_loop(base, radius, np.random.default_rng((seed, k))))
              for k in range(2)]
    s_off, q_off = _verify_profiles(0.15)
    out = []
    for name, path, tree in pairs:
        out += [(name, path, tree),
                (f"{name} reversed", tp.reverse_path(path), _tree_reverse(tree))]
        for half, (piece, tree_piece) in enumerate(zip(_halves(path), _halves(tree))):
            out.append((f"{name} sub {half}", piece, tree_piece))
            out.append((f"{name} sub {half} reversed", tp.reverse_path(piece),
                        _tree_reverse(tree_piece)))
            out.append((f"{name} sub {half} off-slice lift", tp.lift_loop(piece, s_off, q_off),
                        _tree_lift(tree_piece, s_off, q_off)))
        for label, s_expr, q_expr in (("slice", ex.const(0.0), ex.const(1.0)),
                                      ("off-slice", s_off, q_off)):
            lifted = tp.lift_loop(path, s_expr, q_expr)
            tree_lifted = _tree_lift(tree, s_expr, q_expr)
            out.append((f"{name} {label} lift", lifted, tree_lifted))
            out.append((f"{name} {label} lift reversed", tp.reverse_path(lifted),
                        _tree_reverse(tree_lifted)))
            for half, (piece, tree_piece) in enumerate(zip(_halves(lifted),
                                                           _halves(tree_lifted))):
                out.append((f"{name} {label} lift sub {half}", piece, tree_piece))
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("base", ["generic", "zeros and ones"])
def test_template_paths_equal_the_expression_tree_paths_bit_for_bit(n, base):
    """Rectangles, trig loops, their slice and off-slice lifts, reversed paths
    and sub pieces: every node's point and tangent equals the one built from
    the loop's own expression trees, signs of zeros included.  The second
    base has coordinates 0, -0, 1, and -radius (a rectangle side that ends
    at 0), the values the templates keep as constants."""
    radius = 0.25
    if base == "generic":
        base = np.array([0.11, -0.17, 0.23, -0.05, 0.31])[:n]
    else:
        base = np.array([0.0, -radius, 1.0, -0.0, 0.5])[:n]
    for name, path, tree in _template_and_tree_paths(base, radius, seed=n):
        assert len(path.segments) == len(tree.segments), name
        for seg, ref in zip(path.segments, tree.segments):
            assert seg.span == ref.span, name
            points, tangents = seg.nodes(_NODE_US)
            want_points, want_tangents = ref.nodes(_NODE_US)
            assert _same(points, want_points) and _same(tangents, want_tangents), name


@pytest.mark.parametrize("n", [3, 4, 5])
def test_memoised_template_tangents_equal_the_plain_recursive_build(monkeypatch, n):
    """Rectangle, trig and lifted templates (on and off the slice), and
    their reversals, built afresh: the memoised tangents are the trees
    plain `Expr.diff` gives, and the compiled table equals the one of the
    plain build in source, constants and columns."""
    monkeypatch.setattr(tp, "_TEMPLATES", {})
    s_off, q_off = _verify_profiles(0.15)
    base = np.array([0.11, -0.17, 0.23, -0.05, 0.31])[:n]
    for loop in tp.loop_family(base, 2, 0.25, np.random.default_rng(n)):
        for path in (loop, tp.lift_loop(loop), tp.lift_loop(loop, s_off, q_off)):
            for seg in path.segments + tp.reverse_path(path).segments:
                tangents = tuple(ex.derivative(c, 0) for c in seg.coords)
                want = ex.compile_exprs(seg.coords + tangents, bound=len(seg.params))
                assert seg.tangents == tangents
                assert (seg._table.source, seg._table.constants, seg._table.columns) == \
                    (want.source, want.constants, want.columns)


def test_a_second_loop_family_compiles_nothing(monkeypatch):
    """Once a family's shapes are cached, another family at another base,
    with its lifts, reversed loops and sub pieces, binds them and compiles
    no table; each binding shares its template's code object."""
    monkeypatch.setattr(tp, "_TEMPLATES", {})
    compiled = []

    def counting(exprs, bound=0, original=ex.compile_exprs):
        compiled.append(len(exprs))
        return original(exprs, bound)

    monkeypatch.setattr(ex, "compile_exprs", counting)
    s_off, q_off = _verify_profiles(0.15)

    def family(base, seed):
        loops = tp.loop_family(base, 8, 0.25, np.random.default_rng(seed))
        paths = loops + [tp.lift_loop(lp) for lp in loops]
        paths += [tp.lift_loop(lp, s_off, q_off) for lp in loops]
        paths += [tp.reverse_path(lp) for lp in paths]
        return paths + [piece for lp in paths for piece in hol._pieces(lp)]

    first = family(np.array([0.11, -0.17, 0.23, -0.05]), 1)
    assert len(compiled) == len(tp._TEMPLATES) > 0  # one compile per template
    del compiled[:]
    second = family(np.array([-0.2, 0.05, 0.13, 0.3]), 2)
    assert compiled == []
    codes = {id(seg._table.function.__code__) for p in first for seg in p.segments}
    assert {id(seg._table.function.__code__) for p in second for seg in p.segments} <= codes


def test_template_cache_stays_bounded(monkeypatch):
    """1000 lifts with distinct off-slice profiles leave the cache at its
    bound, and a template dropped from it and built again gives the same
    nodes."""
    monkeypatch.setattr(tp, "_TEMPLATES", {})
    loop = tp.trig_loop(BASE, 0.2, np.random.default_rng(4))
    first = tp.lift_loop(loop, *_verify_profiles(1e-3)).segments[0]
    for k in range(2, 1001):
        tp.lift_loop(loop, *_verify_profiles(k * 1e-3))
        assert len(tp._TEMPLATES) <= tp._TEMPLATE_LIMIT
    assert len(tp._TEMPLATES) == tp._TEMPLATE_LIMIT
    again = tp.lift_loop(loop, *_verify_profiles(1e-3)).segments[0]
    assert again._table is not first._table
    for a, b in zip(again.nodes(_NODE_US), first.nodes(_NODE_US)):
        assert _same(a, b)


def test_verify_reports_repeat_in_one_process(monkeypatch):
    """Two verify runs in one process, the first building every template
    and the second binding them, give the same report apart from seconds."""
    monkeypatch.setattr(tp, "_TEMPLATES", {})

    def run():
        checks = report.run_verify(report.RunConfig(preset="bumpy")).checks
        return [{k: v for k, v in c.items() if k != "seconds"} for c in checks]

    first = run()
    assert tp._TEMPLATES
    assert run() == first

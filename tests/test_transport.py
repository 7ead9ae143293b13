"""Paths, loop families, and parallel transport for all connection oracles."""

import numpy as np
import pytest

from tractor_forge import expr as ex
from tractor_forge import transport as tp
from tractor_forge.metric import MetricError, preset

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


def test_scale_path_shrinks_toward_base():
    loop = tp.rectangle_loop(BASE, 0, 1, 0.4)
    half = tp.scale_path(loop, BASE, 0.5)
    assert half.base == pytest.approx(BASE)
    p = loop.segments[1].point(0.7)
    ph = half.segments[1].point(0.7)
    assert ph == pytest.approx(BASE + 0.5 * (p - BASE))


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
    oracle = tp.TractorOracle(spec, "induced")
    loop = tp.rectangle_loop(BASE, 0, 1, 0.3)
    G = tp.transport_matrix(oracle, loop, 1e-10)
    # off-diagonal couplings cancel around any loop of a flat metric
    assert np.max(np.abs(G - np.eye(5))) < 1e-8


def test_sphere_parallel_tractor_transported_to_itself():
    spec = preset("sphere")
    oracle = tp.TractorOracle(spec, "induced")
    v0 = np.array([1.0, 0.0, 0.0, 0.0, 0.5])
    for lp in tp.loop_family(BASE, 2, 0.3, np.random.default_rng(2)):
        v1 = tp.parallel_transport(oracle, lp, v0, 1e-10)
        assert v1 == pytest.approx(v0, abs=1e-8)


def test_transport_reversal_and_concatenation():
    spec = preset("bumpy", eps=0.1)
    oracle = tp.TractorOracle(spec, "induced")
    a = tp.path_from_waypoints([BASE, BASE + [0.2, 0.0, 0.1]])
    b = tp.path_from_waypoints([BASE + [0.2, 0.0, 0.1], BASE + [0.1, 0.2, 0.0]])
    Ga = tp.transport_matrix(oracle, a, 1e-10)
    Gb = tp.transport_matrix(oracle, b, 1e-10)
    Gab = tp.transport_matrix(oracle, tp.concat_paths(a, b), 1e-10)
    assert Gab == pytest.approx(Gb @ Ga, abs=1e-8)
    Ginv = tp.transport_matrix(oracle, tp.reverse_path(a), 1e-10)
    assert Ginv @ Ga == pytest.approx(np.eye(5), abs=1e-8)


def test_transport_preserves_fiber_metric_all_oracles():
    spec = preset("bumpy", eps=0.1)
    loop = tp.rectangle_loop(BASE, 0, 2, 0.25)
    lifted = tp.lift_loop(loop)
    abase = np.concatenate(([0.0], BASE, [1.0]))
    cases = [
        (tp.TractorOracle(spec, "induced"), loop, BASE),
        (tp.TractorOracle(spec, "paper"), loop, BASE),
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
    Gt = tp.transport_matrix(tp.TractorOracle(spec, "induced"), loop, 1e-10)
    Gc = tp.transport_matrix(tp.CrudeOracle(spec), tp.lift_loop(loop), 1e-10)
    assert Gc[1:-1, 1:-1] == pytest.approx(Gt[1:-1, 1:-1], abs=1e-8)


def test_transport_deterministic():
    spec = preset("bumpy", eps=0.1)
    oracle = tp.TractorOracle(spec, "induced")
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
        "scale_path": tp.scale_path(trig, BASE, 0.5),
        "reverse_path": tp.reverse_path(rect),
        "lift_loop": tp.lift_loop(rect, s_expr=s_expr, q_expr=ex.const(1.0) + t * t),
    }
    for name, path in paths.items():
        for seg in path.segments:
            for tv in [*np.linspace(0.0, 1.0, 9), 0.123, 0.777]:
                assert np.array_equal(seg.point(tv), _oracle_values(seg.coords, tv)), name
                assert np.array_equal(seg.tangent(tv), _oracle_values(seg.tangents, tv)), name


@pytest.mark.parametrize("text, bad", [("log(x1)", -0.5), ("sqrt(x1)", -1.0),
                                       ("1 / x1", 0.0), ("x1^-2", 0.0)])
def test_segment_domain_errors_raise(text, bad):
    seg = tp.Segment((ex.parse_expr(text, 1), ex.var(0), ex.var(0)))
    with pytest.raises(ex.EvaluationDomainError):
        seg.point(bad)


def test_parallel_transport_rejects_misshapen_v0():
    oracle = tp.TractorOracle(preset("flat"), "induced")
    loop = tp.rectangle_loop(BASE, 0, 1, 0.3)
    for v0 in (1.0, np.zeros(4), np.eye(4), np.zeros((4, 5)), np.zeros((5, 5, 1))):
        with pytest.raises(MetricError):
            tp.parallel_transport(oracle, loop, v0)
    assert tp.parallel_transport(oracle, loop, np.eye(5)[:, :2]).shape == (5, 2)

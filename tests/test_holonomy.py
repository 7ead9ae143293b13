"""Holonomy algebra estimation and comparison."""

import tracemalloc

import numpy as np
import pytest

import holonomy_reference as ref
from tractor_forge import expr as ex
from tractor_forge import holonomy as hol
from tractor_forge import report
from tractor_forge import transport as tp
from tractor_forge.metric import MetricError, preset

BASE = np.array([0.12, -0.18, 0.22])


def _loops(base, count=2, radius=0.25, seed=3):
    return tp.loop_family(base, count, radius, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def sphere_algebras():
    """The tractor estimate, and the ambient one on the same loops lifted
    off the slice as verify lifts them."""
    spec = preset("sphere")
    ambient = tp.AmbientOracle(spec)
    loops = _loops(BASE)
    _, amb = report.off_slice_family(ambient.geom, BASE, loops)
    assert all(lp.segments[0].point(0.5)[0] > 0 for lp in amb)  # s > 0 off the base
    abase = np.concatenate(([0.0], BASE, [1.0]))
    alg_t = hol.holonomy_algebra(tp.TractorOracle(spec),
                                 BASE, loops, 1e-9, 1e-6)
    alg_a = hol.holonomy_algebra(ambient, abase, amb, 1e-9, 1e-6)
    return alg_t, alg_a


def test_matrix_log_roundtrip():
    rng = np.random.default_rng(4)
    A = 0.05 * rng.standard_normal((5, 5))
    G = np.eye(5) + A @ np.linalg.inv(np.eye(5) - 0.5 * A)  # near identity
    L = hol.matrix_log(G)
    # exponentiate back by series
    E = np.eye(5)
    term = np.eye(5)
    for k in range(1, 30):
        term = term @ L / k
        E = E + term
    assert E == pytest.approx(G, abs=1e-12)
    with pytest.raises(hol.LogConvergenceError):
        hol.matrix_log(3.0 * np.eye(5))


def test_flat_holonomy_dimension_zero():
    spec = preset("flat")
    alg = hol.holonomy_algebra(tp.TractorOracle(spec),
                               BASE, _loops(BASE), 1e-9, 1e-6)
    assert alg.dim == 0
    assert len(hol.fixed_vectors(alg)) == 5  # whole fiber is fixed


def test_conformally_flat_dimension_zero():
    # the normal tractor connection is flat on conformally flat metrics
    for name in ("sphere", "hyperbolic"):
        spec = preset(name)
        base = BASE * (0.5 if name == "hyperbolic" else 1.0)
        radius = 0.1 if name == "hyperbolic" else 0.25
        loops = _loops(base, count=1, radius=radius)
        alg = hol.holonomy_algebra(tp.TractorOracle(spec), base, loops, 1e-9, 1e-6)
        assert alg.dim == 0, name


def test_sphere_tractor_vs_ambient_equal(sphere_algebras):
    alg_t, alg_a = sphere_algebras
    rep = hol.compare_holonomy(alg_t, alg_a)
    assert rep["verdict"] == "equal"
    assert rep["dim_a"] == rep["dim_b"] == 0
    assert max(rep["residual_a_in_b"], rep["residual_b_in_a"]) < 1e-5


def test_algebra_structure_residuals(sphere_algebras):
    alg_t, alg_a = sphere_algebras
    for alg in sphere_algebras:
        assert hol.algebra_metric_residual(alg) < 1e-6
        assert hol.bracket_closure_residual(alg) < 1e-6


def test_sphere_fixed_einstein_tractor():
    # S2 x S2 is Einstein with P = g/6, so (1, 0, -1/6) is parallel
    base = np.array([0.15, 0.10, -0.12, 0.20])
    alg_t = hol.holonomy_algebra(tp.TractorOracle(preset("s2xs2")), base,
                                 _loops(base, radius=0.2), 1e-9, 1e-6)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0, -1.0 / 6.0])
    for B in alg_t.basis:
        assert np.max(np.abs(B @ v)) < 1e-6
    fixed = hol.fixed_vectors(alg_t)
    assert len(fixed)
    vn = v / np.linalg.norm(v)
    best = max(abs(float(vn @ w)) for w in fixed)
    assert best == pytest.approx(1.0, abs=1e-6)


def test_loops_must_be_based_and_closed():
    spec = preset("flat")
    oracle = tp.TractorOracle(spec)
    open_path = tp.path_from_waypoints([BASE, BASE + [0.1, 0, 0]])
    with pytest.raises(Exception):
        hol.holonomy_algebra(oracle, BASE, [open_path], 1e-9, 1e-6)
    loop = tp.rectangle_loop(BASE + 1.0, 0, 1, 0.1)
    with pytest.raises(Exception):
        hol.holonomy_algebra(oracle, BASE, [loop], 1e-9, 1e-6)


def test_holonomy_stable_under_radius_halving():
    spec = preset("bumpy", eps=0.1)
    oracle = tp.TractorOracle(spec)
    alg1 = hol.holonomy_algebra(oracle, BASE, _loops(BASE, 2, 0.25), 1e-9, 1e-6)
    alg2 = hol.holonomy_algebra(oracle, BASE, _loops(BASE, 4, 0.125), 1e-9, 1e-6)
    assert alg1.dim == alg2.dim


def test_matrix_log_raises_when_series_diverges():
    # X = 0.4*ones has eigenvalue 2, so the series diverges (the true log
    # has entries 0.22); ||X||_F = 2 is over the gate
    with pytest.raises(hol.LogConvergenceError):
        hol.matrix_log(np.eye(5) + 0.4 * np.ones((5, 5)))


def test_matrix_log_gates_on_the_frobenius_norm():
    # every entry of X = 0.45*ones is under 0.5, but ||X||_F = 2.7 and X
    # has eigenvalue 2.7: the gate raises before any series term
    with pytest.raises(hol.LogConvergenceError, match=r"\|\|G - I\|\|_F = 2\.700 >= 0\.5"):
        hol.matrix_log(np.eye(6) + 0.45 * np.ones((6, 6)))
    with pytest.raises(hol.LogConvergenceError, match="not converged"):
        hol.matrix_log(np.full((3, 3), np.nan))


def _piece_product(oracle, loop, tol):
    """The loop's transport as the ordered product of its pieces' transports."""
    T = np.eye(oracle.fiber_dim)
    for piece in hol._pieces(loop):
        T = tp.transport_matrix(oracle, piece, tol) @ T
    return T


def test_rectangle_loop_transport_is_the_product_of_its_piece_transports():
    oracle = tp.TractorOracle(preset("bumpy", eps=0.1))
    loop = tp.rectangle_loop(BASE, 0, 2, 0.25)
    assert [len(p.segments) for p in hol._pieces(loop)] == [2, 1, 1]
    alg = hol.holonomy_algebra(oracle, BASE, [loop], 1e-10, 1e-6)
    G = alg.loop_transports[0]
    assert np.array_equal(G, _piece_product(oracle, loop, 1e-10))
    assert np.max(np.abs(G - tp.transport_matrix(oracle, loop, 1e-10))) <= 1e-9


def test_one_segment_loop_splits_at_its_midpoint():
    oracle = tp.TractorOracle(preset("bumpy", eps=0.1))
    loop = tp.trig_loop(BASE, 0.25, np.random.default_rng(8))
    first, second = hol._pieces(loop)
    seg = loop.segments[0]
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(first.segments[0].point(t), seg.point(0.5 * t))
        assert np.array_equal(second.segments[0].point(t), seg.point(0.5 + 0.5 * t))
    G = hol.holonomy_algebra(oracle, BASE, [loop], 1e-10, 1e-6).loop_transports[0]
    assert G == pytest.approx(tp.transport_matrix(oracle, loop, 1e-10), abs=1e-8)


def test_loop_without_a_log_series_still_gives_the_algebra():
    # the transport of this loop is too far from the identity for the log
    # series; the curvature generators still give all of so(3)
    oracle = tp.LeviCivitaOracle(preset("sphere"))
    loop = tp.rectangle_loop(BASE, 0, 1, 0.5)
    G = tp.transport_matrix(oracle, loop, 1e-9)
    with pytest.raises(hol.LogConvergenceError):
        hol.matrix_log(G)
    alg = hol.holonomy_algebra(oracle, BASE, [loop], 1e-9, 1e-6)
    assert np.array_equal(alg.log_residuals, [np.inf])
    assert np.array_equal(alg.loop_transports[0], _piece_product(oracle, loop, 1e-9))
    assert np.max(np.abs(alg.loop_transports[0] - G)) <= 1e-9
    assert alg.dim == 3


def test_lockstep_loop_transports_equal_products_of_piece_transports_exactly():
    oracle = tp.TractorOracle(preset("bumpy", eps=0.1))
    loops = _loops(BASE, count=3)
    alg = hol.holonomy_algebra(oracle, BASE, loops, 1e-10, 1e-6)
    for loop, G in zip(loops, alg.loop_transports):
        assert np.array_equal(G, _piece_product(oracle, loop, 1e-10))
        assert np.max(np.abs(G - tp.transport_matrix(oracle, loop, 1e-10))) <= 1e-9


def test_pieces_compile_nothing(monkeypatch):
    loops = _loops(BASE)

    def refuse(exprs):
        raise AssertionError("_pieces compiled an expression table")

    monkeypatch.setattr(ex, "compile_exprs", refuse)
    for loop in loops:
        assert tp.PathSpec(tuple(s for p in hol._pieces(loop) for s in p.segments)).is_loop()


class _CountingOracle:
    """An oracle that records the number of points of each curvature_pairs
    call, and what the call returns."""

    def __init__(self, oracle):
        self.inner = oracle
        self.calls = []
        self.curvatures = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def curvature_pairs(self, points):
        self.calls.append(len(points))
        self.curvatures.append(self.inner.curvature_pairs(points))
        return self.curvatures[-1]


def _per_point_generators(oracle, base, loops, tol):
    """The generators harvested one loop, one piece and one point at a time,
    each prefix transport the ordered product of its pieces' transports."""
    generators = []
    for loop in loops:
        T = np.eye(oracle.fiber_dim)
        conj = [(base, T)]
        for piece in hol._pieces(loop):
            T = tp.transport_matrix(oracle, piece, tol) @ T
            conj.append((piece.end, T))
        conj.pop()  # the loop transport, at the base point again
        for point, T in conj:
            R = oracle.curvature_pairs(point[None])[0]
            Tinv = np.linalg.inv(T)
            generators += [Tinv @ R[i, j] @ T for i in range(len(R)) for j in range(i + 1, len(R))]
    return generators


@pytest.mark.parametrize("cls", [tp.TractorOracle, tp.LeviCivitaOracle, tp.AmbientOracle,
                                 tp.CrudeOracle])
def test_one_curvature_call_per_piece_index(cls, monkeypatch):
    spec = preset("bumpy", eps=0.1)
    oracle = _CountingOracle(cls(spec))
    loops = _loops(BASE)  # 3 rectangles of three pieces, 2 trig loops of two
    base = BASE
    if oracle.point_dim != spec.n:
        loops, base = [tp.lift_loop(lp) for lp in loops], np.concatenate(([0.0], BASE, [1.0]))
    lanes = []  # the paths of each parallel_transport call

    def counting(oracle, paths, v0, tol, original=tp.parallel_transport):
        lanes.append(len(paths))
        return original(oracle, paths, v0, tol)

    monkeypatch.setattr(tp, "parallel_transport", counting)
    alg = hol.holonomy_algebra(oracle, base, loops, 1e-10, 1e-6)
    monkeypatch.undo()
    # one transport call, every piece of every loop a lane of it
    assert lanes == [13]
    # one call: the base point and the 8 piece ends that are not a loop's last
    assert oracle.calls == [9]
    want = _per_point_generators(cls(spec), base, loops, 1e-10)
    assert len(alg.generators) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(alg.generators, want))
    basis, svals = hol.closed_span(np.stack(want), alg.rank_tol)
    assert np.array_equal(alg.sv_profile, svals) and alg.dim == len(basis)
    assert all(np.array_equal(a, b) for a, b in zip(alg.basis, basis))


@pytest.mark.parametrize("name, dim", [("ppwave", 5), ("s2xs2", 10), ("bumpy", 10)])
def test_verify_estimates_keep_a_rank_margin(name, dim):
    """At verify's defaults (its loops, transport tol 1e-9 and rank tol),
    the tractor and off-slice ambient estimates have their dimension, and
    the first singular value below the cut lies at most half the absolute
    floor: transport error does not crowd the rank decision.  The norm
    filter over the stacked generators keeps what a per-matrix filter keeps,
    with the same basis."""
    suite = report._Suite(report.RunConfig(preset=name))
    off = suite.off_loops
    for oracle, base, loops in ((suite.tractor, suite.base, suite.loops),
                                (suite.ambient, suite.abase, off)):
        alg = hol.holonomy_algebra(oracle, base, loops, 1e-9, suite.cfg.tol_rank)
        assert alg.dim == dim, oracle.name
        assert alg.sv_profile[dim] <= hol._ABS_FLOOR / 2, oracle.name
        basis, svals = hol._orthonormal_span(alg.generators, suite.cfg.tol_rank)
        want_basis, want_svals = _per_matrix_span(alg.generators, suite.cfg.tol_rank)
        assert len(basis) == len(want_basis) and np.array_equal(svals, want_svals), oracle.name
        assert all(np.array_equal(a, b) for a, b in zip(basis, want_basis)), oracle.name


def test_fd_curvature_of_verify_ambient_estimate_stays_under_its_memory_bound():
    """One `curvature_pairs` call over the base point and every conjugation
    point of verify's off-slice bumpy estimate traces under 1.2 MB: the
    stencil runs in chunks, so its batch does not grow with the points."""
    suite = report._Suite(report.RunConfig(preset="bumpy"))
    off = suite.off_loops
    points = np.stack([suite.abase] + [piece.end for loop in off
                                       for piece in hol._pieces(loop)[:-1]])
    assert len(points) == 16
    suite.ambient.curvature_pairs(points)  # the jet tables, built once
    tracemalloc.start()
    try:
        suite.ambient.curvature_pairs(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def _per_matrix_span(mats, rank_tol):
    """`holonomy._orthonormal_span` with one norm per matrix: the reference
    for its filter over the stacked rows."""
    kept = [m for m in mats if np.linalg.norm(m) > hol._ABS_FLOOR]
    if not kept:
        return [], np.zeros(0)
    _, svals, vt = np.linalg.svd(np.stack([m.ravel() for m in kept]), full_matrices=False)
    keep = int(np.sum(svals > max(rank_tol * svals[0], hol._ABS_FLOOR)))
    return [vt[k].reshape(kept[0].shape) for k in range(keep)], svals


def test_norm_filter_drops_small_generators():
    """Matrices at or below the absolute floor are left out, as one at a
    time, and a set of them alone spans nothing."""
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 4)) for _ in range(3)]
    small = [np.full((4, 4), hol._ABS_FLOOR / 8), np.zeros((4, 4))]
    basis, svals = hol._orthonormal_span(np.stack(small + mats[:2] + small + mats[2:]), 1e-6)
    want_basis, want_svals = _per_matrix_span(mats, 1e-6)
    assert np.array_equal(svals, want_svals) and len(basis) == len(want_basis) == 3
    assert all(np.array_equal(a, b) for a, b in zip(basis, want_basis))
    basis, svals = hol._orthonormal_span(np.stack(small), 1e-6)
    assert basis.shape == (0, 4, 4) and svals.shape == (0,)
    assert hol._orthonormal_span(np.zeros((0, 4, 4)), 1e-6)[0].shape == (0, 4, 4)


_UNEQUAL_SPHERES = ("dim = 4\n"
                    "g[1][1] = 4/(1 + x1^2 + x2^2)^2\ng[2][2] = 4/(1 + x1^2 + x2^2)^2\n"
                    "g[3][3] = 64/(4 + x3^2 + x4^2)^2\ng[4][4] = 64/(4 + x3^2 + x4^2)^2\n")


def test_unequal_sphere_product_has_the_full_algebra(tmp_path):
    """S^2(1) x S^2(2) in stereographic charts is not Einstein, so no tractor
    is parallel: at verify's defaults the tractor and off-slice ambient
    estimates both have dimension 15, all of so(5, 1), and compare equal."""
    path = tmp_path / "unequal-spheres.cfg"
    path.write_text(_UNEQUAL_SPHERES)
    suite = report._Suite(report.RunConfig(config_path=str(path)))
    off = suite.off_loops
    alg_t = hol.holonomy_algebra(suite.tractor, suite.base, suite.loops, 1e-9, suite.cfg.tol_rank)
    alg_a = hol.holonomy_algebra(suite.ambient, suite.abase, off, 1e-9, suite.cfg.tol_rank)
    assert alg_t.dim == alg_a.dim == 15
    assert hol.compare_holonomy(alg_t, alg_a)["verdict"] == "equal"


def _assert_estimate_is_the_reference(oracle, base, loops, rank_tol, monkeypatch):
    """The stacked estimate equals the one-loop-at-a-time reference fed the
    same lane transports and curvature rows, bit for bit; returns it."""
    counted, transports = _CountingOracle(oracle), []

    def keep(oracle, paths, v0, tol, original=tp.parallel_transport):
        transports.append(original(oracle, paths, v0, tol))
        return transports[-1]

    monkeypatch.setattr(tp, "parallel_transport", keep)
    alg = hol.holonomy_algebra(counted, base, loops, 1e-9, rank_tol)
    monkeypatch.undo()
    gens, basis, svals, loop_transports, log_residuals = ref.estimate(
        [len(hol._pieces(lp)) for lp in loops], transports[0], counted.curvatures[0],
        rank_tol)
    f = oracle.fiber_dim
    assert (alg.generators.shape, alg.basis.shape, alg.loop_transports.shape,
            alg.log_residuals.shape) == ((len(gens), f, f), (len(basis), f, f),
                                         (len(loops), f, f), (len(loops),))
    assert all(np.array_equal(a, b) for a, b in zip(alg.generators, gens))
    assert alg.dim == len(alg.basis) == len(basis)
    assert all(np.array_equal(a, b) for a, b in zip(alg.basis, basis))
    assert np.array_equal(alg.sv_profile, svals)
    assert all(np.array_equal(a, b) for a, b in zip(alg.loop_transports, loop_transports))
    assert np.array_equal(alg.log_residuals, log_residuals)
    return alg


_FAMILIES = {
    **{name: {"preset": name} for name in ("flat", "sphere", "hyperbolic", "ppwave",
                                           "s2xs2", "bumpy")},
    **{f"{name}-seed3": {"preset": name, "seed": 3} for name in ("ppwave", "s2xs2", "bumpy")},
    "sphere-loops3": {"preset": "sphere", "loops": 3},
    "ppwave-loops6": {"preset": "ppwave", "loops": 6},
    # several loop transports have no log series: the per-loop fallback
    "s2xs2-no-log": {"preset": "s2xs2", "radius": 0.5, "point": [0.0, 0.0, 0.0, 0.0]},
    # a cut above the largest singular value: dimension 0 and, after the
    # empty closure round, an empty singular-value profile
    "bumpy-rank-tol-2": {"preset": "bumpy", "tol_rank": 2.0},
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_stacked_estimates_equal_the_per_loop_reference(family, monkeypatch):
    """verify's tractor and off-slice ambient estimates on its loop
    families: generators, basis, singular values, dimension and log
    residuals are the reference's, bit for bit."""
    suite = report._Suite(report.RunConfig(**_FAMILIES[family]))
    for oracle, base, loops in ((suite.tractor, suite.base, suite.loops),
                                (suite.ambient, suite.abase, suite.off_loops)):
        alg = _assert_estimate_is_the_reference(oracle, base, loops, suite.cfg.tol_rank,
                                                monkeypatch)
        if family == "s2xs2-no-log":
            assert np.inf in alg.log_residuals and alg.dim == 10
        if family == "bumpy-rank-tol-2":
            assert alg.dim == 0 and alg.sv_profile.shape == (0,)


def test_closure_of_a_dimension_45_algebra_equals_the_pairwise_reference():
    """Three random elements of so(9, 1) close to all of it, 45 dimensions
    and 990 brackets in the last round, as the reference closes them."""
    H = np.diag([1.0] * 9 + [-1.0])
    rng = np.random.default_rng(5)
    gens = [H @ (A - A.T) for A in rng.standard_normal((3, 10, 10))]
    basis, svals = hol.closed_span(np.stack(gens), 1e-6)
    want_basis, want_svals = ref.closed_span(gens, 1e-6)
    assert len(basis) == len(want_basis) == 45
    assert all(np.array_equal(a, b) for a, b in zip(basis, want_basis))
    assert np.array_equal(svals, want_svals)


def test_stacked_log_stops_each_member_at_its_own_term():
    """A stack's log series: each member equals its one-matrix call and the
    reference, though the members converge after different numbers of
    terms; a member over the gate makes the stack raise."""
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 5, 5))
    G = np.eye(5) + A * (np.array([1e-6, 1e-3, 0.02, 0.08]) / np.linalg.norm(A, axis=(1, 2))
                         )[:, None, None]
    L = hol.matrix_log(G)
    for member, log in zip(G, L):
        assert np.array_equal(log, hol.matrix_log(member))
        assert np.array_equal(log, ref.matrix_log(member))
    with pytest.raises(hol.LogConvergenceError, match=r"\|\|G - I\|\|_F = 0\.600 >= 0\.5"):
        hol.matrix_log(np.concatenate([G, [np.eye(5) + 0.12 * np.ones((5, 5))]]))


def test_compare_holonomy_refuses_trivial_algebras_of_different_fiber_sizes():
    """On the flat metric the tractor (5 x 5) and Levi-Civita (3 x 3)
    estimates both have dimension 0; they live on different fibers, so
    they do not compare."""
    spec, base = preset("flat"), np.array([0.1, 0.2, 0.3])
    loops = tp.loop_family(base, 1, 0.25, np.random.default_rng(0))
    alg_t = hol.holonomy_algebra(tp.TractorOracle(spec), base, loops, 1e-9, 1e-6)
    alg_l = hol.holonomy_algebra(tp.LeviCivitaOracle(spec), base, loops, 1e-9, 1e-6)
    assert alg_t.dim == alg_l.dim == 0
    assert alg_t.basis.shape == (0, 5, 5) and alg_l.basis.shape == (0, 3, 3)
    for algs in ((alg_t, alg_l), (alg_l, alg_t)):
        with pytest.raises(MetricError, match="different matrix sizes"):
            hol.compare_holonomy(*algs)

"""Holonomy algebra estimation and comparison."""

import numpy as np
import pytest

from tractor_forge import expr as ex
from tractor_forge import holonomy as hol
from tractor_forge import report
from tractor_forge import transport as tp
from tractor_forge.metric import preset

BASE = np.array([0.12, -0.18, 0.22])


def _loops(base, count=2, radius=0.25, seed=3):
    return tp.loop_family(base, count, radius, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def sphere_algebras():
    spec = preset("sphere")
    loops = _loops(BASE)
    amb = [tp.lift_loop(lp) for lp in loops]
    abase = np.concatenate(([0.0], BASE, [1.0]))
    alg_t = hol.holonomy_algebra(tp.TractorOracle(spec),
                                 BASE, loops, 1e-9, 1e-6)
    alg_a = hol.holonomy_algebra(tp.AmbientOracle(spec), abase, amb, 1e-9, 1e-6)
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
    assert hol.fixed_vectors(alg)  # whole fiber is fixed


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
    assert fixed
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
    assert alg.log_residuals == [np.inf]
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
    """An oracle that records the number of points of each curvature_pairs call."""

    def __init__(self, oracle):
        self.inner = oracle
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def curvature_pairs(self, points):
        self.calls.append(len(points))
        return self.inner.curvature_pairs(points)


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
    # the base point, then the first and second piece ends that are not a loop's last
    assert oracle.calls == [1, 5, 3]
    want = _per_point_generators(cls(spec), base, loops, 1e-10)
    assert len(alg.generators) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(alg.generators, want))
    basis, svals = hol.closed_span(want, alg.rank_tol)
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
    off = [tp.lift_loop(lp, s_expr=suite._s_profile(), q_expr=suite._q_profile())
           for lp in suite.loops]
    for oracle, base, loops in ((suite.tractor, suite.base, suite.loops),
                                (suite.ambient, suite.abase, off)):
        alg = hol.holonomy_algebra(oracle, base, loops, 1e-9, suite.cfg.tol_rank)
        assert alg.dim == dim, oracle.name
        assert alg.sv_profile[dim] <= hol._ABS_FLOOR / 2, oracle.name
        basis, svals = hol._orthonormal_span(alg.generators, suite.cfg.tol_rank)
        want_basis, want_svals = _per_matrix_span(alg.generators, suite.cfg.tol_rank)
        assert len(basis) == len(want_basis) and np.array_equal(svals, want_svals), oracle.name
        assert all(np.array_equal(a, b) for a, b in zip(basis, want_basis)), oracle.name


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
    basis, svals = hol._orthonormal_span(small + mats[:2] + small + mats[2:], 1e-6)
    want_basis, want_svals = _per_matrix_span(mats, 1e-6)
    assert np.array_equal(svals, want_svals) and len(basis) == len(want_basis) == 3
    assert all(np.array_equal(a, b) for a, b in zip(basis, want_basis))
    basis, svals = hol._orthonormal_span(small, 1e-6)
    assert basis == [] and svals.shape == (0,)
    assert hol._orthonormal_span([], 1e-6)[0] == []


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
    off = [tp.lift_loop(lp, s_expr=suite._s_profile(), q_expr=suite._q_profile())
           for lp in suite.loops]
    alg_t = hol.holonomy_algebra(suite.tractor, suite.base, suite.loops, 1e-9, suite.cfg.tol_rank)
    alg_a = hol.holonomy_algebra(suite.ambient, suite.abase, off, 1e-9, suite.cfg.tol_rank)
    assert alg_t.dim == alg_a.dim == 15
    assert hol.compare_holonomy(alg_t, alg_a)["verdict"] == "equal"

"""verify's check groups against their per-vector form, kept here as a reference.

`report._Suite` evaluates each check group on arrays: one batched call per
point set and per set of random directions.  The functions below are the
same checks written one point and one random vector at a time, drawing
from the run's generator in the same order.  On the presets, on another
seed and on random config metrics, every residual of the tensor, tractor
and ambient groups must equal its reference exactly.  The batched ambient
helpers must equal their one-row calls exactly too.  The holonomy group's
transport checks must equal their references exactly: the reversal from
its reversed pieces each transported alone, the metric checks from freshly
evaluated fiber metrics.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from test_random_metrics import _config

from tractor_forge import holonomy as hol
from tractor_forge import report
from tractor_forge import transport as tp
from tractor_forge.ambient import AmbientGeometry, ambient_point
from tractor_forge.cli import main
from tractor_forge.curvature import compute_stack, stack_at, take_rows, weyl_endomorphism
from tractor_forge.metric import PRESET_NAMES, metric_jet, parse_config, preset, signature_of
from tractor_forge.tractor import connection_matrix, normality_check, tractor_metric


def _tensor_reference(suite) -> dict:
    out = {}
    sig_bad = 0
    res_sym = res_bianchi = res_wtrace = res_cy = 0.0
    for x in suite.points:
        st = compute_stack(metric_jet(suite.spec, x))
        if signature_of(st.jet.g) != tuple(suite.spec.signature):
            sig_bad += 1
        scale = max(1.0, float(np.max(np.abs(st.riem_low))))
        rl = st.riem_low
        res_sym = max(res_sym,
                      float(np.max(np.abs(rl + rl.transpose(1, 0, 2, 3)))) / scale,
                      float(np.max(np.abs(rl + rl.transpose(0, 1, 3, 2)))) / scale,
                      float(np.max(np.abs(rl - rl.transpose(2, 3, 0, 1)))) / scale,
                      float(np.max(np.abs(st.Ric - st.Ric.T))) / scale)
        bianchi = rl + np.einsum("jkil->ijkl", rl) + np.einsum("kijl->ijkl", rl)
        res_bianchi = max(res_bianchi, float(np.max(np.abs(bianchi))) / scale)
        wtr = np.einsum("ik,ijkl->jl", st.ginv, st.W)
        res_wtrace = max(res_wtrace, float(np.max(np.abs(wtr))) / scale)
        res_cy = max(res_cy, float(np.max(np.abs(st.CY + st.CY.transpose(1, 0, 2)))))
    out["tensor-signature"] = float(sig_bad)
    out["tensor-curvature-symmetries"] = res_sym
    out["tensor-first-bianchi"] = res_bianchi
    out["tensor-weyl-tracefree"] = res_wtrace
    out["tensor-cotton-antisymmetry"] = res_cy
    return out


def _tractor_reference(suite) -> dict:
    n = suite.spec.n
    res_metric = res_norm = 0.0
    for x in suite.points:
        st = compute_stack(metric_jet(suite.spec, x))
        H = tractor_metric(st.g)
        for _ in range(2):
            X = suite.rng.standard_normal(n)
            Om = connection_matrix(st, X)
            XH = np.zeros((n + 2, n + 2))
            XH[1:n + 1, 1:n + 1] = np.einsum("k,kij->ij", X, st.jet.dg)
            scale = max(1.0, float(np.max(np.abs(Om))))
            res_metric = max(res_metric, float(
                np.max(np.abs(Om.T @ H + H @ Om - XH))) / scale)
        rep = normality_check(st)
        res_norm = max(res_norm, rep["preserves_null_direction"]["residual"],
                       rep["ricci_contraction_vanishes"]["residual"])
    return {"tractor-metricity": res_metric, "tractor-normality": res_norm}


def _ambient_reference(suite) -> dict:
    geom, rng, n, out = suite.geom, suite.rng, suite.spec.n, {}
    res_pair = res_comm = 0.0
    for x in suite.points[:5]:
        st = compute_stack(metric_jet(suite.spec, x))
        q = float(rng.uniform(0.6, 1.6))
        cap = geom.default_s_bound(x, q)
        s = float(rng.uniform(-1.0, 1.0)) * (min(0.4, 0.8 * cap) if np.isfinite(cap) else 0.4)
        p = ambient_point(s, x, q)
        f, m = geom.f_map(p, st)
        res_comm = max(res_comm, float(np.max(np.abs(f @ st.Psharp - st.Psharp @ f))))
        h = geom.metric(p, st)
        for _ in range(2):
            X = rng.standard_normal(n)
            Y = rng.standard_normal(n)
            lhs = float(geom.lift(p, X, st) @ h @ geom.lift(p, Y, st))
            rhs = float(X @ st.g @ Y)
            res_pair = max(res_pair, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out["ambient-lift-pairing"], out["ambient-f-commutes"] = res_pair, res_comm

    st = suite.base_stack
    p_off = ambient_point(suite.s_test, suite.base, 1.0)
    res_tor = res_tor0 = res_torf = 0.0
    F = geom.fundamental_field(p_off)
    for _ in range(4):
        X = rng.standard_normal(n)
        Y = rng.standard_normal(n)
        u = np.concatenate(([0.0], X, [0.0]))
        w = np.concatenate(([0.0], Y, [0.0]))
        uw, wu = geom.torsion_terms(p_off, u, w, st)  # T = uw - wu, relative to their size
        scale = max(1.0, float(np.max(np.abs(uw))), float(np.max(np.abs(wu))))
        res_tor = max(res_tor, float(np.max(np.abs(
            uw - wu - geom.torsion_closed_form(p_off, X, Y, st)))) / scale)
        res_tor0 = max(res_tor0, float(np.max(np.abs(geom.torsion(suite.abase, u, w, st)))))
        res_torf = max(res_torf, float(np.max(np.abs(geom.torsion(p_off, F, u, st)))))
    out["ambient-torsion-cotton"] = res_tor
    out["ambient-torsion-on-slice"] = res_tor0
    out["ambient-torsion-F-contraction"] = res_torf

    hom = _homogeneity_reference(geom, p_off, np.random.default_rng(suite.cfg.seed))
    out["ambient-homogeneity"] = max(hom[0.5]["metric_scaling"], hom[2.0]["metric_scaling"],
                                     hom[0.5]["torsion_scaling"], hom[2.0]["torsion_scaling"],
                                     hom["lift_homogeneity"])
    out["ambient-dphi-closed"] = hom["dphi"]
    out["ambient-nabF"] = _nabF_reference(geom, p_off, np.random.default_rng(suite.cfg.seed))

    pairs = geom.curvature_all_pairs(suite.abase)
    res_block = 0.0
    for _ in range(4):
        X = rng.standard_normal(n)
        Y = rng.standard_normal(n)
        Z = rng.standard_normal(n)
        R = np.einsum("a,b,abcd->cd", np.concatenate(([0.0], X, [0.0])),
                      np.concatenate(([0.0], Y, [0.0])), pairs)
        got = R @ np.concatenate(([0.0], Z, [0.0]))
        want = np.concatenate((
            [0.0],
            weyl_endomorphism(st, X, Y) @ Z,
            [-float(np.einsum("ijk,i,j,k->", st.CY, X, Y, Z))]))
        res_block = max(res_block, float(np.max(np.abs(got - want))))
    out["ambient-curvature-block"] = res_block
    out["ambient-ricci-on-slice"] = float(np.max(np.abs(geom.ricci(pairs))))
    F0 = geom.fundamental_field(suite.abase)
    out["ambient-curvature-F"] = float(np.max(np.abs(
        np.einsum("abcd,d->abc", pairs[1:-1, 1:-1], F0))))

    h0 = geom.metric(suite.abase)
    res_pairing = 0.0
    for _ in range(4):
        Zv = rng.standard_normal(n + 2)
        Xv = np.concatenate(([0.0], rng.standard_normal(n), [0.0]))
        Yv = np.concatenate(([0.0], rng.standard_normal(n), [0.0]))
        RFZ = np.einsum("a,b,abcd->cd", F0, Zv, pairs)
        RXY = np.einsum("a,b,abcd->cd", Xv, Yv, pairs)
        lhs = float((RFZ @ Xv) @ h0 @ Yv)
        rhs = float((RXY @ F0) @ h0 @ Zv)
        res_pairing = max(res_pairing, abs(lhs - rhs))
    out["ambient-curvature-F-pairing"] = res_pairing
    return out


def _homogeneity_reference(geom, p, rng) -> dict:
    """`AmbientGeometry.homogeneity_checks`, one point and one vector at a time."""
    stack = stack_at(geom.spec, p[1:-1])
    results = {}
    h0 = geom.metric(p, stack)
    vecs = rng.standard_normal((4, geom.dim))
    for t in (0.5, 2.0):
        pt = geom.scale_tangent(p, t)
        ht = geom.metric(pt, stack)
        res_h = 0.0
        for u in vecs:
            for v in vecs:
                lhs = float(geom.scale_tangent(u, t) @ ht @ geom.scale_tangent(v, t))
                rhs = t * t * float(u @ h0 @ v)
                res_h = max(res_h, abs(lhs - rhs) / max(1.0, abs(rhs)))
        res_t = 0.0
        for u in vecs[:2]:
            for v in vecs[2:]:
                z = vecs[0] + vecs[3]
                lhs = geom.torsion_lowered(pt, geom.scale_tangent(u, t), geom.scale_tangent(v, t),
                                           geom.scale_tangent(z, t), stack)
                rhs = t * t * geom.torsion_lowered(p, u, v, z, stack)
                res_t = max(res_t, abs(lhs - rhs))
        results[t] = {"metric_scaling": res_h, "torsion_scaling": res_t}
    res_dphi = 0.0
    for pt in [p] + [geom.scale_tangent(p, t) for t in (0.5, 2.0)]:
        d_sq = geom.fundamental_field(pt)[::-1]
        res_dphi = max(res_dphi, float(np.max(np.abs(geom.phi(pt, stack) - d_sq))))
    results["dphi"] = res_dphi
    res_lift = 0.0
    for t in (0.5, 2.0):
        pt = geom.scale_tangent(p, t)
        for X in np.eye(geom.n):
            res_lift = max(res_lift, float(np.max(np.abs(
                geom.lift(pt, X, stack) - geom.lift(p, X, stack) / t))))
    results["lift_homogeneity"] = res_lift
    return results


def _nabF_reference(geom, p, rng) -> float:
    """`AmbientGeometry.nabF_check`, one direction at a time."""
    stack = stack_at(geom.spec, p[1:-1])
    F = geom.fundamental_field(p)
    dF = np.zeros(geom.dim)
    res = 0.0
    for u in rng.standard_normal((6, geom.dim)):
        dF[0], dF[-1] = u[0], u[-1]
        res = max(res, float(np.max(np.abs(geom.covariant_derivative(p, u, F, dF, stack) - u))))
    return res


def _check_groups_equal_reference(cfg):
    """The batched groups and the reference, each on a fresh suite: every
    residual exactly equal, and the generators left in the same state."""
    suite, ref = report._Suite(cfg), report._Suite(cfg)
    got = {}
    suite.add = lambda name, anchor, residual, tol: got.__setitem__(name, residual)
    for group in (suite.tensor_checks, suite.tractor_checks, suite.ambient_checks):
        group()
    want = {**_tensor_reference(ref), **_tractor_reference(ref), **_ambient_reference(ref)}
    assert got == want
    assert suite.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_check_groups_equal_the_per_vector_reference(name):
    _check_groups_equal_reference(report.RunConfig(preset=name))


@pytest.mark.parametrize("name", ["ppwave", "s2xs2", "bumpy"])
def test_check_groups_equal_the_reference_at_another_seed(name):
    _check_groups_equal_reference(report.RunConfig(preset=name, seed=3))


@settings(max_examples=3, deadline=None, derandomize=True)
@given(text=_config())
def test_check_groups_equal_the_reference_on_random_metrics(text):
    cfg = report.RunConfig(preset="flat")
    cfg.metric_spec = lambda: parse_config(text)
    _check_groups_equal_reference(cfg)


# the presets, and two families of coordinate rectangles only, whose last
# loop is a 4-segment rectangle: its reversal has three lanes, and the
# 2-segment one starts its second segment mid-run
_HOLONOMY_CONFIGS = [report.RunConfig(preset=name) for name in PRESET_NAMES] + [
    report.RunConfig(preset="sphere", loops=3), report.RunConfig(preset="ppwave", loops=6)]
_HOLONOMY_IDS = list(PRESET_NAMES) + ["sphere-rectangles", "ppwave-rectangles"]


def _holonomy_group(monkeypatch, cfg):
    """holonomy_checks on a fresh suite: the suite, each check's residual
    before rounding, and the tractor and ambient estimates it made."""
    suite, got, algs = report._Suite(cfg), {}, []
    suite.add = lambda name, anchor, residual, tol: got.__setitem__(name, residual)
    holonomy_algebra = hol.holonomy_algebra

    def estimate(*args):
        algs.append(holonomy_algebra(*args))
        return algs[-1]

    monkeypatch.setattr(hol, "holonomy_algebra", estimate)
    suite.holonomy_checks()
    return suite, got, algs


@pytest.mark.parametrize("cfg", _HOLONOMY_CONFIGS, ids=_HOLONOMY_IDS)
def test_transport_reversal_equals_its_reversed_pieces_alone(monkeypatch, cfg):
    """transport-reversal from the last loop's pieces, as the tractor
    estimate splits it, each reversed and transported alone, multiplied in
    reverse order: bit for bit the lockstep check, and within 1e-9."""
    suite, got, (alg_t, _) = _holonomy_group(monkeypatch, cfg)
    loop = suite.loops[-1]
    back = [tp.reverse_path(piece) for piece in reversed(hol._pieces(loop))]
    eye = np.eye(suite.spec.n + 2)
    Gi = eye
    for piece in back:
        Gi = tp.transport_matrix(suite.tractor, piece, report.LOOP_TOL) @ Gi
    want = float(np.max(np.abs(Gi @ alg_t.loop_transports[-1] - eye)))
    assert got["transport-reversal"] == want
    assert want <= 1e-9
    if cfg.loops == suite.spec.n * (suite.spec.n - 1) // 2:
        assert [len(piece.segments) for piece in back] == [1, 1, 2]


@pytest.mark.parametrize("cfg", _HOLONOMY_CONFIGS, ids=_HOLONOMY_IDS)
def test_transport_metric_checks_equal_fresh_fiber_metrics(monkeypatch, cfg):
    """ambient-metric-compatibility and transport-metric-preservation read
    the estimates' fiber metrics: bit for bit those evaluated afresh."""
    suite, got, (alg_t, alg_a) = _holonomy_group(monkeypatch, cfg)
    h0 = suite.geom.metric(suite.abase)
    H = suite.tractor.fiber_metric(suite.base)
    Ga, G = np.stack(alg_a.loop_transports), alg_t.loop_transports[-1]
    assert got["ambient-metric-compatibility"] == float(np.max(np.abs(
        Ga.swapaxes(1, 2) @ h0 @ Ga - h0)))
    assert got["transport-metric-preservation"] == float(np.max(np.abs(G.T @ H @ G - H)))


@pytest.mark.parametrize("name", ["sphere", "ppwave", "bumpy"])
def test_batched_ambient_helpers_equal_their_rows(name):
    """Each row of a batched call equals the call on its row alone: over
    three points with their own stacks, and over directions at one point."""
    spec = preset(name)
    geom, n = AmbientGeometry(spec), spec.n
    rng = np.random.default_rng(7)
    x = spec.sample_points(rng, 3) * 0.5
    st = compute_stack(metric_jet(spec, x))
    rows = [stack_at(spec, xi) for xi in x]
    p = np.concatenate([[[0.0], [0.1], [-0.12]], x, [[1.0], [1.3], [0.8]]], axis=1)
    X, Y = rng.standard_normal((2, 3, n))
    u, w, z = rng.standard_normal((3, 3, n + 2))
    q = np.array([1.0, 1.3, 0.8])
    for i in range(3):
        assert np.array_equal(geom.lift(p, X, st)[i], geom.lift(p[i], X[i], rows[i]))
        assert np.array_equal(geom.metric(p, st)[i], geom.metric(p[i], rows[i]))
        assert np.array_equal(geom.metric(p)[i], geom.metric(p[i]))
        assert np.array_equal(geom.phi(p, st)[i], geom.phi(p[i], rows[i]))
        assert np.array_equal(geom.torsion(p, u, w, st)[i],
                              geom.torsion(p[i], u[i], w[i], rows[i]))
        assert np.array_equal(geom.torsion_closed_form(p, X, Y, st)[i],
                              geom.torsion_closed_form(p[i], X[i], Y[i], rows[i]))
        assert geom.torsion_lowered(p, u, w, z, st)[i] == geom.torsion_lowered(
            p[i], u[i], w[i], z[i], rows[i])
        assert np.array_equal(geom.covariant_derivative(p, u, w, z, st)[i],
                              geom.covariant_derivative(p[i], u[i], w[i], z[i], rows[i]))
        assert geom.default_s_bound(x, q)[i] == geom.default_s_bound(x[i], q[i])
    # directions at one point: a (c, n+2) stack, and one direction broadcast
    p0 = p[1]
    for j in range(3):
        assert np.array_equal(geom.lift(p0, X, rows[1])[j], geom.lift(p0, X[j], rows[1]))
        assert np.array_equal(geom.torsion(p0, u, w, rows[1])[j],
                              geom.torsion(p0, u[j], w[j], rows[1]))
        assert np.array_equal(geom.torsion(p0, z[0], w, rows[1])[j],
                              geom.torsion(p0, z[0], w[j], rows[1]))
        assert geom.torsion_lowered(p0, u, w, z, rows[1])[j] == geom.torsion_lowered(
            p0, u[j], w[j], z[j], rows[1])
        assert np.array_equal(geom.covariant_derivative(p0, u, w[0], z, rows[1])[j],
                              geom.covariant_derivative(p0, u[j], w[0], z[j], rows[1]))
    # a dilation's points, with one row of a stack repeated for them
    scaled = np.stack([geom.scale_tangent(p0, t) for t in (1.0, 0.5, 2.0)])
    repeated = take_rows(compute_stack(metric_jet(spec, x[1:2])), [0, 0, 0])
    for i, pt in enumerate(scaled):
        assert np.array_equal(geom.metric(scaled, repeated)[i], geom.metric(pt, rows[1]))
        assert np.array_equal(geom.torsion(scaled, u, w, repeated)[i],
                              geom.torsion(pt, u[i], w[i], rows[1]))


@pytest.mark.parametrize("samples", [0, 1])
def test_verify_with_no_or_one_sample_point(capsys, tmp_path, samples):
    """--samples 0 sends a (0, n) batch through metric_jet, compute_stack
    and every check group; both runs exit 0 with the usual check names."""
    out = tmp_path / "report.json"
    assert main(["verify", "--preset", "bumpy", "--samples", str(samples),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    full = [c["name"] for c in report.run_verify(report.RunConfig(preset="bumpy")).checks]
    assert sorted(names) == sorted(full)

"""Acceptance battery: one test per numbered criterion.

Each test prints one `CRITERION nn: PASS/FAIL` line (visible with -s or on
failure) and asserts with pinned tolerances.  The tractor connection is the
normal one, built with the standard Schouten tensor (unit sphere: P = g/2).
"""

import json
import sys

import numpy as np
import pytest

from tractor_forge import expr as ex
from tractor_forge import holonomy as hol
from tractor_forge import transport as tp
from tractor_forge.ambient import AmbientGeometry, SingularMapError, ambient_point
from tractor_forge.cli import main as cli_main
from tractor_forge.curvature import stack_at, weyl_endomorphism
from tractor_forge.metric import preset
from tractor_forge.tractor import normality_check

PRESETS = ("flat", "sphere", "ppwave", "s2xs2", "bumpy")

_BASES = {
    "flat": np.array([0.12, -0.18, 0.22]),
    "sphere": np.array([0.12, -0.18, 0.22]),
    "hyperbolic": np.array([0.05, -0.07, 0.06]),
    "ppwave": np.array([0.15, 0.10, -0.12, 0.20]),
    "s2xs2": np.array([0.15, 0.10, -0.12, 0.20]),
    "bumpy": np.array([0.12, -0.18, 0.22]),
}
_RADII = {"hyperbolic": 0.08, "s2xs2": 0.20}


def _spec(name):
    return preset(name, eps=0.1) if name == "bumpy" else preset(name)


def _samples(spec, count=10, seed=42):
    return spec.sample_points(np.random.default_rng(seed), count) * 0.5


def _loops(name, count=2, seed=3):
    return tp.loop_family(_BASES[name], count, _RADII.get(name, 0.25),
                          np.random.default_rng(seed))


def _record(num, ok, detail):
    # bypass output capture so the per-criterion verdict always reaches the
    # terminal / log, not only on failure
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
          file=sys.__stdout__)
    assert ok, detail


_ALGEBRAS = {}


def _algebras(name):
    """Tractor / ambient / crude holonomy algebras, cached per preset."""
    if name not in _ALGEBRAS:
        spec = _spec(name)
        base = _BASES[name]
        loops = _loops(name)
        amb = [tp.lift_loop(lp) for lp in loops]
        abase = ambient_point(0.0, base, 1.0)
        _ALGEBRAS[name] = {
            "loops": loops,
            "amb_loops": amb,
            "tractor": hol.holonomy_algebra(
                tp.TractorOracle(spec), base, loops, 1e-9),
            "ambient": hol.holonomy_algebra(
                tp.AmbientOracle(spec), abase, amb, 1e-9),
            "crude": hol.holonomy_algebra(
                tp.CrudeOracle(spec), abase, amb, 1e-9),
        }
    return _ALGEBRAS[name]


def _s_profile(amplitude):
    t = ex.var(0)
    return ex.mul(ex.const(amplitude),
                  ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))


def _q_profile():
    t = ex.var(0)
    return ex.add(ex.const(1.0), ex.mul(
        ex.const(0.25), ex.pow_(ex.call("sin", ex.mul(ex.const(np.pi), t)), 2)))


def test_criterion_01_convention_lock():
    spec = preset("sphere")
    worst = 0.0
    for x in _samples(spec):
        st = stack_at(spec, x)
        scale = float(np.max(np.abs(st.g)))
        worst = max(worst,
                    abs(st.Scal - 6.0) / 6.0,
                    float(np.max(np.abs(st.Ric - 2.0 * st.g))) / scale,
                    float(np.max(np.abs(st.P - 0.5 * st.g))) / scale)
    _record(1, worst <= 1e-9,
            f"unit sphere Scal=6, Ric=2g, P=g/2; rel err {worst:.2e} <= 1e-9")


def test_criterion_02_conformal_flatness():
    worst = 0.0
    for name in ("sphere", "hyperbolic"):
        spec = preset(name)
        for x in _samples(spec):
            st = stack_at(spec, x)
            worst = max(worst, float(np.max(np.abs(st.W))),
                        float(np.max(np.abs(st.CY))))
    _record(2, worst <= 1e-9,
            f"sphere/hyperbolic Weyl and Cotton-York {worst:.2e} <= 1e-9")


def test_criterion_03_ambient_transport_preserves_metric():
    worst = 0.0
    for name in PRESETS:
        spec = _spec(name)
        geom = AmbientGeometry(spec)
        base = _BASES[name]
        cap = geom.default_s_bound(base)
        amp = min(0.3, 0.6 * cap) if np.isfinite(cap) else 0.3
        rng = np.random.default_rng(7)
        paths = [tp.lift_loop(tp.trig_loop(base, _RADII.get(name, 0.25), rng),
                              s_expr=_s_profile(amp), q_expr=_q_profile())
                 for _ in range(12)]
        pairs = np.stack([rng.standard_normal((spec.n + 2, 2)) for _ in paths])
        # the 12 curves in lockstep: each bit for bit its own transport
        moved = tp.parallel_transport(tp.AmbientOracle(spec), paths, pairs, 1e-10)
        for path, pair, out in zip(paths, pairs, moved):
            h0 = geom.metric(path.base)
            h1 = geom.metric(path.end)
            drift = abs(float(out[:, 0] @ h1 @ out[:, 1])
                        - float(pair[:, 0] @ h0 @ pair[:, 1]))
            worst = max(worst, drift)
    _record(3, worst <= 1e-7,
            f"12 ambient curves x 5 presets, metric drift {worst:.2e} <= 1e-7")


def test_criterion_04_torsion_is_scaled_cotton_york():
    spec = _spec("bumpy")
    geom = AmbientGeometry(spec)
    base = _BASES["bumpy"]
    st = stack_at(spec, base)
    p = ambient_point(0.3, base, 1.0)
    p0 = ambient_point(0.0, base, 1.0)
    rng = np.random.default_rng(4)
    F = geom.fundamental_field(p)
    res_match = res_zero = res_f = 0.0
    for _ in range(6):
        X, Y = rng.standard_normal((2, 3))
        u = np.concatenate(([0.0], X, [0.0]))
        w = np.concatenate(([0.0], Y, [0.0]))
        res_match = max(res_match, float(np.max(np.abs(
            geom.torsion(p, u, w, st) - geom.torsion_closed_form(p, X, Y, st)))))
        res_zero = max(res_zero, float(np.max(np.abs(geom.torsion(p0, u, w, st)))))
        res_f = max(res_f, float(np.max(np.abs(geom.torsion(p, F, u, st)))))
    # lowered torsion has homogeneity degree 2: ratio 4 at t = 2
    u, w, z = rng.standard_normal((3, 5))
    t = 2.0
    num = geom.torsion_lowered(geom.scale_point(p, t),
                               geom.scale_tangent(u, t),
                               geom.scale_tangent(w, t),
                               geom.scale_tangent(z, t), st)
    den = geom.torsion_lowered(p, u, w, z, st)
    ratio = num / den
    ok = (res_match <= 1e-7 and res_zero <= 1e-9 and res_f <= 1e-9
          and abs(ratio - 4.0) <= 1e-7)
    _record(4, ok, f"torsion = s*CY lift ({res_match:.2e}), zero on slice "
            f"({res_zero:.2e}), F-contraction ({res_f:.2e}), "
            f"scaling ratio {ratio:.9f}")


def test_criterion_05_curvature_blocks_vanishing_schouten():
    # the tangent-block and slice-Ricci identities on metrics whose Schouten
    # tensor vanishes (the companion below covers the other presets)
    worst_block = worst_ric = worst_f = 0.0
    rng = np.random.default_rng(5)
    for name in ("flat", "ppwave"):
        spec = _spec(name)
        geom = AmbientGeometry(spec)
        n = spec.n
        for x in _samples(spec, count=4, seed=11):
            st = stack_at(spec, x)
            p = ambient_point(0.0, x, 1.0)
            pairs = geom.curvature_all_pairs(p)
            for _ in range(3):
                X, Y, Z = rng.standard_normal((3, n))
                R = np.einsum("a,b,abcd->cd",
                              np.concatenate(([0.0], X, [0.0])),
                              np.concatenate(([0.0], Y, [0.0])), pairs)
                got = R @ np.concatenate(([0.0], Z, [0.0]))
                want = np.concatenate((
                    [0.0], weyl_endomorphism(st, X, Y) @ Z,
                    [-float(np.einsum("ijk,i,j,k->", st.CY, X, Y, Z))]))
                worst_block = max(worst_block, float(np.max(np.abs(got - want))))
            worst_ric = max(worst_ric, float(np.max(np.abs(geom.ricci(p, pairs)))))
    # curvature of slice-tangent pairs kills F, on every preset
    for name in PRESETS:
        spec = _spec(name)
        geom = AmbientGeometry(spec)
        p = ambient_point(0.0, _BASES[name], 1.0)
        pairs = geom.curvature_all_pairs(p)
        F = geom.fundamental_field(p)
        worst_f = max(worst_f, float(np.max(np.abs(
            np.einsum("abcd,d->abc", pairs[1:-1, 1:-1], F)))))
    ok = worst_block <= 1e-7 and worst_ric <= 1e-7 and worst_f <= 1e-7
    _record(5, ok, f"Weyl/CY block {worst_block:.2e}, slice Ricci "
            f"{worst_ric:.2e} (Schouten-free metrics), R(X,Y)F {worst_f:.2e} "
            "all presets")


@pytest.mark.parametrize("name", ["sphere", "hyperbolic", "s2xs2", "bumpy"])
def test_criterion_05_curvature_block_nonzero_schouten(name):
    spec = _spec(name)
    geom = AmbientGeometry(spec)
    base = _BASES[name]
    st = stack_at(spec, base)
    p = ambient_point(0.0, base, 1.0)
    pairs = geom.curvature_all_pairs(p)
    rng = np.random.default_rng(6)
    worst = float(np.max(np.abs(geom.ricci(p, pairs))))
    for _ in range(3):
        X, Y, Z = rng.standard_normal((3, spec.n))
        R = np.einsum("a,b,abcd->cd", np.concatenate(([0.0], X, [0.0])),
                      np.concatenate(([0.0], Y, [0.0])), pairs)
        got = R @ np.concatenate(([0.0], Z, [0.0]))
        want = np.concatenate((
            [0.0], weyl_endomorphism(st, X, Y) @ Z,
            [-float(np.einsum("ijk,i,j,k->", st.CY, X, Y, Z))]))
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-7


def test_criterion_06_normality():
    worst = 0.0
    for name in PRESETS:
        spec = _spec(name)
        for x in _samples(spec):
            rep = normality_check(stack_at(spec, x))
            worst = max(worst, rep["preserves_null_direction"]["residual"],
                        rep["ricci_contraction_vanishes"]["residual"])
    _record(6, worst <= 1e-8,
            f"curvature preserves null direction, Ricci contraction of the "
            f"tangent block vanishes: {worst:.2e} <= 1e-8")


def test_criterion_07_tractor_equals_ambient_holonomy():
    ok = True
    details = []
    for name in PRESETS:
        algs = _algebras(name)
        rep = hol.compare_holonomy(algs["tractor"], algs["ambient"])
        # every loop transport's log lies in the algebra of the curvature generators
        logs = max(algs["tractor"].log_residuals + algs["ambient"].log_residuals)
        ok = ok and rep["verdict"] == "equal" and logs <= 1e-6
        details.append(f"{name}:dim={rep['dim_a']}/{rep['dim_b']},"
                       f"res={max(rep['residual_a_in_b'], rep['residual_b_in_a']):.1e},"
                       f"logs={logs:.1e}")
    _record(7, ok, "tractor vs ambient holonomy equal on all presets "
            f"[{' '.join(details)}] (span residual <= 1e-5, loop logs <= 1e-6)")


def test_criterion_08_parallel_tractors_and_exact_metric():
    details = []
    ok = True
    for name, mu in (("sphere", -0.5), ("s2xs2", -1.0 / 6.0), ("ppwave", 0.0)):
        spec = _spec(name)
        alg = _algebras(name)["tractor"]
        v = np.zeros(spec.n + 2)
        v[0], v[-1] = 1.0, mu
        worst = max((float(np.max(np.abs(B @ v))) for B in alg.basis),
                    default=0.0)
        ok = ok and worst <= 1e-6
        details.append(f"{name}:(1,0,{mu:.3g})->{worst:.1e}")
    # Ricci-flat case: ambient metric is exactly 2 ds dq + q^2 g
    spec = _spec("ppwave")
    geom = AmbientGeometry(spec)
    x = _BASES["ppwave"]
    st = stack_at(spec, x)
    q = 1.4
    h = geom.metric(ambient_point(0.6, x, q), st)
    want = np.zeros((6, 6))
    want[0, -1] = want[-1, 0] = 1.0
    want[1:-1, 1:-1] = q * q * st.g
    res_h = float(np.max(np.abs(h - want)))
    ok = ok and res_h == 0.0
    _record(8, ok, f"holonomy-fixed tractors [{' '.join(details)}] <= 1e-6; "
            f"ppwave ambient metric exact (residual {res_h:.1e})")


def test_criterion_09_crude_connection_same_holonomy():
    ok = True
    details = []
    for name in PRESETS:
        algs = _algebras(name)
        rep = hol.compare_holonomy(algs["tractor"], algs["crude"])
        ok = ok and rep["verdict"] == "equal"
        details.append(f"{name}:dim={rep['dim_a']}/{rep['dim_b']}")
    _record(9, ok, "crude-connection holonomy matches tractor holonomy "
            f"[{' '.join(details)}] (span residual <= 1e-5)")


def test_criterion_10_scale_lift_transport():
    t = ex.var(0)
    reparams = [
        ex.add(ex.const(1.0), ex.mul(ex.const(0.3), ex.pow_(
            ex.call("sin", ex.mul(ex.const(np.pi), t)), 2))),
        ex.add(ex.const(1.0), ex.mul(ex.const(-0.2), ex.pow_(
            ex.call("sin", ex.mul(ex.const(2.0 * np.pi), t)), 2))),
    ]
    worst = flow = 0.0
    rng = np.random.default_rng(8)
    for name in ("sphere", "ppwave", "bumpy"):
        spec = _spec(name)
        geom = AmbientGeometry(spec)
        base = _BASES[name]
        cap = geom.default_s_bound(base)
        amp = min(0.15, 0.3 * cap) if np.isfinite(cap) else 0.15
        loop = tp.rectangle_loop(base, 0, 1, _RADII.get(name, 0.25))
        v0 = rng.standard_normal(spec.n + 2)
        # the slice embedding (0, gamma, 1) and, per profile f, the
        # reparameterized lift (0, gamma, f) and the tilted lift (s, gamma, f)
        tilted = [tp.lift_loop(loop, s_expr=_s_profile(amp), q_expr=f) for f in reparams]
        paths = ([tp.lift_loop(loop)] + [tp.lift_loop(loop, q_expr=f) for f in reparams]
                 + tilted)
        ref, *got = tp.parallel_transport(tp.AmbientOracle(spec), paths,
                                          np.broadcast_to(v0, (len(paths), spec.n + 2)), 1e-10)
        worst = max([worst] + [float(np.max(np.abs(v - ref))) for v in got])
        # geodesic flow of the fundamental field: nabla_F F = F
        for path in tilted:
            p = path.segments[0].point(0.37)
            F = geom.fundamental_field(p)
            dF = np.zeros(geom.dim)
            dF[0], dF[-1] = F[0], F[-1]
            flow = max(flow, float(np.max(np.abs(geom.covariant_derivative(p, F, F, dF) - F))))
    # off-slice lifted loops leave the ambient holonomy dimension unchanged
    stable = True
    for name in ("sphere", "bumpy"):
        spec = _spec(name)
        geom = AmbientGeometry(spec)
        base = _BASES[name]
        algs = _algebras(name)
        cap = geom.default_s_bound(base)
        amp = min(0.15, 0.3 * cap) if np.isfinite(cap) else 0.15
        off = [tp.lift_loop(lp, s_expr=_s_profile(amp), q_expr=_q_profile())
               for lp in algs["loops"][:2]]
        alg_off = hol.holonomy_algebra(
            tp.AmbientOracle(spec), ambient_point(0.0, base, 1.0),
            algs["amb_loops"] + off, 1e-9)
        stable = stable and alg_off.dim == algs["ambient"].dim
    ok = worst <= 1e-6 and flow <= 1e-9 and stable
    _record(10, ok, f"2 reparameterizations x 3 presets residual "
            f"{worst:.2e} <= 1e-6; geodesic flow {flow:.2e} <= 1e-9; "
            f"off-slice loops keep the dimension")


def test_criterion_11_singular_bundle_map_reported():
    geom = AmbientGeometry(preset("sphere"))
    try:
        geom.f_map(ambient_point(-2.0, _BASES["sphere"], 1.0))
        ok, msg = False, "no error raised"
    except SingularMapError as err:
        msg = str(err)
        ok = "eigenvalue(s) 0.5" in msg
    _record(11, ok, f"f at (s,q)=(-2,1) on the sphere raises naming "
            f"eigenvalue 1/2: {msg[:80]}...")


def test_criterion_12_verify_determinism(tmp_path):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for p in paths:
        code = cli_main(["verify", "--preset", "flat", "--seed", "42",
                         "--out", str(p)])
        assert code == 0

    def canonical(path):
        data = json.loads(path.read_text())
        for c in data["checks"]:
            c["seconds"] = 0.0
        return json.dumps(data, sort_keys=True)

    ok = canonical(paths[0]) == canonical(paths[1])
    _record(12, ok, "verify --seed 42 twice: byte-identical JSON apart from "
            "the seconds fields")

"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import tractor_forge
from tractor_forge import ambient, cli, report
from tractor_forge import holonomy as hol
from tractor_forge import transport as tp
from tractor_forge.cli import main
from tractor_forge.report import LOOP_TOL, RunConfig, run_verify

BUMPY = ["--preset", "bumpy", "--param", "eps=0.1"]
POINT = ["--point", "0.1,-0.2,0.15"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tensors_json(capsys):
    code, out, _ = run(capsys, ["tensors", "--preset", "sphere"] + POINT)
    assert code == 0
    data = json.loads(out)
    assert data["at_base"]["scalar_curvature"] == pytest.approx(6.0)
    assert data["conformally_flat"] is True
    assert data["signature"] == [3, 0]


def test_tensors_over_no_sample_points(capsys):
    """--samples 0 sends an empty batch through the sample stacks: the
    norms over no samples are 0, where taking the max of none raised."""
    code, out, _ = run(capsys, ["tensors", "--samples", "0"] + BUMPY)
    assert code == 0
    assert json.loads(out)["over_samples"] == {"count": 0, "max_weyl_norm": 0.0,
                                               "max_cotton_york_norm": 0.0}


def test_tensors_text_format(capsys):
    code, out, _ = run(capsys, ["tensors", "--preset", "flat", "--format", "text"])
    assert code == 0
    assert "scalar_curvature: 0.0" in out


def test_tractor_normality_exit_codes(capsys):
    code, out, _ = run(capsys, ["tractor", "--preset", "ppwave"])
    assert code == 0
    data = json.loads(out)
    assert data["normality_pass"] is True
    assert data["fiber_metric_corner"] == 1.0
    code, out, _ = run(capsys, ["tractor", "--preset", "sphere"] + POINT)
    assert code == 0
    assert json.loads(out)["normality_pass"] is True


def test_ambient_singular_point_exit_two(capsys):
    code, _, err = run(capsys, ["ambient", "--preset", "sphere",
                                "--s=-2.0", "--q", "1.0"] + POINT)
    assert code == 2
    assert "eigenvalue(s) 0.5" in err
    assert "singular" in err


@pytest.mark.parametrize("argv", [["tensors", "--preset", "sphere", "--param", "n=3.5"],
                                  ["ambient", "--preset", "bumpy", "--s", "0.2", "--q", "1e300"]])
def test_exit_two_writes_one_stderr_line(argv):
    """A fresh interpreter, so the CLI sets up logging at its default level:
    the error reaches stderr once, as the `error:` line."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tractor_forge.__file__)))
    env.pop("TRACTOR_FORGE_LOG", None)
    done = subprocess.run([sys.executable, "-m", "tractor_forge.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


def test_ambient_regular_point(capsys):
    code, out, _ = run(capsys, ["ambient"] + BUMPY + POINT +
                       ["--s", "0.2", "--q", "1.1"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["torsion_vs_cotton_york"] < 1e-7


@pytest.mark.parametrize("q", ["1e20", "1e100"])
def test_ambient_torsion_residual_is_relative_at_large_q(capsys, q):
    # T = Omega(u) w - Omega(w) u cancels entries of size q: an absolute
    # residual read 32768.0 at q = 1e20 and 9.7e84 at q = 1e100
    code, out, _ = run(capsys, ["ambient", "--preset", "bumpy", "--s", "0.2", "--q", q])
    data = json.loads(out)
    assert (code, data["pass"]) == (0, True)
    assert data["torsion_vs_cotton_york"] < 1e-14


def test_ambient_relative_torsion_residual_still_fails_a_wrong_torsion(capsys, monkeypatch):
    closed_form = ambient.AmbientGeometry.torsion_closed_form
    monkeypatch.setattr(ambient.AmbientGeometry, "torsion_closed_form",
                        lambda self, *args: 1.01 * closed_form(self, *args))
    code, out, _ = run(capsys, ["ambient"] + BUMPY + POINT + ["--s", "0.2", "--q", "1.1"])
    data = json.loads(out)
    assert (code, data["pass"]) == (1, False)
    assert data["torsion_vs_cotton_york"] > 1e-5


@pytest.mark.parametrize("q", ["0", "-1"])
def test_ambient_q_not_positive_exits_two(capsys, q):
    code, out, err = run(capsys, ["ambient"] + BUMPY + ["--s", "0.2", "--q", q])
    assert code == 2 and not out
    assert "q > 0" in err and "Traceback" not in err


def test_ambient_point_past_the_float_range_exits_two(capsys):
    # det m overflows at q = 1e300; no RuntimeWarning escapes (pyproject
    # makes one an error)
    code, out, err = run(capsys, ["ambient"] + BUMPY + ["--s", "0.2", "--q", "1e300"])
    assert code == 2 and not out
    assert "cannot be represented" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["metric_scaling", "torsion_scaling", "lift_homogeneity",
                                  "dphi"])
def test_ambient_pass_judges_every_homogeneity_residual(capsys, monkeypatch, name):
    """A homogeneity residual over tol_transport fails the command, as its
    check (ambient-homogeneity or ambient-dphi-closed) fails verify."""
    checks = ambient.AmbientGeometry.homogeneity_checks

    def one_off(self, p, rng, stack):
        return {**checks(self, p, rng, stack), name: 1e-3}

    monkeypatch.setattr(ambient.AmbientGeometry, "homogeneity_checks", one_off)
    code, out, _ = run(capsys, ["ambient"] + BUMPY + POINT + ["--s", "0.2"])
    data = json.loads(out)
    assert data["homogeneity"][name] == 1e-3
    assert (code, data["pass"]) == (1, False)


def test_holonomy_variants_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, ["holonomy", "--preset", "flat",
                                "--loops", "4"] + POINT)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 0
    assert len(data["fixed_vectors"]) == 5

    csv_path = tmp_path / "loops.csv"
    code, _, _ = run(capsys, ["holonomy", "--preset", "flat", "--loops", "4",
                              "--variant", "levi-civita", "--format", "csv",
                              "--out", str(csv_path)] + POINT)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "loop,kind,metric_drift,distance_from_identity,log_residual"
    assert len(lines) == 5  # header + 4 loops


def test_config_file_source(capsys, tmp_path):
    cfg = tmp_path / "metric.cfg"
    cfg.write_text("preset = sphere\n")
    code, out, _ = run(capsys, ["tensors", "--config", str(cfg)] + POINT)
    assert code == 0
    assert json.loads(out)["at_base"]["scalar_curvature"] == pytest.approx(6.0)


def test_bad_config_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, ["tensors", "--preset", "nope"])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["tensors", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    for command in ("tensors", "verify"):
        code, _, err = run(capsys, [command, "--preset", "sphere", "--point", "0.1,0.2"])
        assert code == 2 and "point has 2 coordinates, metric needs 3" in err
    code, _, err = run(capsys, ["tensors", "--preset", "sphere",
                                "--param", "radius"])
    assert code == 2


@pytest.mark.parametrize("source, message", [
    (["--preset", "sphere", "--param", "radius=abc"], "parameter radius must be a finite number"),
    (["--preset", "bumpy", "--param", "eps=NaN"], "parameter eps must be a finite number"),
    ("dim = x\n", "line 1: dim must be an integer"),
    ("dim = 3\nsignature = a,b\n", "line 2: signature entry must be an integer"),
    ("preset = sphere\nparam.radius = abc\n", "line 2: param.radius must be a finite number"),
    (["--preset", "sphere", "--param", "n=3.5"], "parameter n must be an integer, got 3.5"),
    (["--preset", "sphere", "--param", "radius=true"],
     "parameter radius must be a finite number, got True"),
    ("preset = sphere\nparam.n = 3.5\n", "parameter n must be an integer, got 3.5"),
    ("dim = 3\ng[1][2] = 0.1\ng[2][1] = 0.3\n", "line 3: g[2][1] set again (first on line 2)"),
    ("preset = sphere\ng[1][1] = 2\n",
     "line 2: a preset config takes no dim, signature or g entries"),
    ("preset = ppwave\nsignature = 4,0\n",
     "line 2: a preset config takes no dim, signature or g entries"),
    ("dim = 3\nparam.n = 5\n", "line 2: param keys need a preset"),
    ("dim = 3\ng[1][1] = 1\ndim = 4\n", "line 3: dim set again (first on line 1)"),
    (["--preset", "sphere", "--param", "radius=-1"], "parameter radius must be > 0, got -1"),
    (["--preset", "sphere", "--param", "radius=0"], "parameter radius must be > 0, got 0"),
    (["--preset", "hyperbolic", "--param", "radius=-1"], "parameter radius must be > 0, got -1"),
    ("preset = hyperbolic\nparam.radius = 0\n", "parameter radius must be > 0, got 0"),
], ids=["param-flag", "param-nan", "config-dim", "config-signature", "config-param",
        "param-fraction", "param-bool", "config-param-fraction", "config-entry-twice",
        "config-preset-and-entry", "config-preset-and-signature", "config-param-no-preset",
        "config-dim-twice", "sphere-radius-negative", "sphere-radius-zero",
        "hyperbolic-radius-negative", "config-hyperbolic-radius-zero"])
def test_malformed_number_exit_two(capsys, tmp_path, source, message):
    if isinstance(source, str):
        path = tmp_path / "metric.cfg"
        path.write_text(source)
        source = ["--config", str(path)]
    code, _, err = run(capsys, ["tensors"] + source)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("source", [["--preset", "sphere", "--param", "n=4.0"],
                                    "preset = sphere\nparam.n = 4\n"],
                         ids=["param-flag", "config-param"])
def test_integral_n_written_as_a_float_is_accepted(capsys, tmp_path, source):
    if isinstance(source, str):
        path = tmp_path / "metric.cfg"
        path.write_text(source)
        source = ["--config", str(path)]
    code, out, _ = run(capsys, ["tensors"] + source)
    assert code == 0
    assert json.loads(out)["n"] == 4


@pytest.mark.parametrize("argv", [["tensors", "--point=-0.5,0.1,0.2"], ["verify"]],
                         ids=["tensors", "verify"])
def test_entry_outside_its_math_domain_exits_two(capsys, tmp_path, argv):
    # log(x1) at x1 = -0.5, and at the x1 < 0 among verify's sample points
    path = tmp_path / "metric.cfg"
    path.write_text("dim = 3\ng[1][1] = 2 + log(x1)\ng[2][2] = 1\ng[3][3] = 1\n")
    code, _, err = run(capsys, argv + ["--config", str(path)])
    assert code == 2
    assert "error: math domain error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["tensors", "verify"])
@pytest.mark.parametrize("text, point", [
    ("dim = 4\ng[1][1] = 1e100\ng[2][2] = 1\ng[3][3] = 1\ng[4][4] = 1\n", []),
    ("dim = 3\ng[1][1] = exp(400*x1)\ng[2][2] = 1\ng[3][3] = 1\n", ["--point=1,0,0"]),
], ids=["huge-entry", "steep-entry"])
def test_entries_past_the_singularity_bound_exit_two(capsys, tmp_path, command, text, point):
    # max|g_ij| max|g^ij| is 1e100 and e^400: the metric is singular relative to its entries
    path = tmp_path / "metric.cfg"
    path.write_text(text)
    code, _, err = run(capsys, [command, "--config", str(path)] + point)
    assert code == 2
    assert "error: metric singular" in err and "Traceback" not in err


def test_one_large_entry_of_a_well_conditioned_metric_exits_zero(capsys, tmp_path):
    # det = 1e5 is small against max|g_ij|^4, but max|g_ij| max|g^ij| = 1e5
    path = tmp_path / "metric.cfg"
    path.write_text("dim = 4\ng[1][1] = 1e5\ng[2][2] = 1\ng[3][3] = 1\ng[4][4] = 1\n")
    code, out, _ = run(capsys, ["tensors", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["signature"] == [4, 0]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--samples", "-1"], "samples must be >= 0, not -1"),
    (["tensors", "--samples", "-2"], "samples must be >= 0, not -2"),
    (["verify", "--loops", "-1"], "loops must be >= 0, not -1"),
    (["tensors", "--seed", "-1"], "seed must be >= 0, not -1"),
    (["verify", "--format", "json", "--tol-rank", "nan"], "tol_rank must be finite and > 0"),
    (["holonomy", "--tol-transport", "0"], "tol_transport must be finite and > 0"),
    (["tensors", "--tol-tensor=-1e-9"], "tol_tensor must be finite and > 0"),
    (["holonomy", "--radius", "inf"], "radius must be finite and > 0"),
    (["holonomy", "--loops", "0"], "loops must be >= 3, the number of coordinate rectangles"),
    (["verify", "--loops", "2"], "loops must be >= 3, the number of coordinate rectangles"),
], ids=["verify-samples", "tensors-samples", "loops", "seed", "tol-rank-nan",
        "tol-transport-zero", "tol-tensor-negative", "radius-inf", "holonomy-loops-floor",
        "verify-loops-floor"])
def test_unusable_run_settings_exit_two(capsys, argv, message):
    code, out, err = run(capsys, argv + ["--preset", "sphere"])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("variant, dimension", [("tractor-induced", 0), ("levi-civita", 3)])
def test_holonomy_loops_stay_in_the_hyperbolic_chart(capsys, variant, dimension):
    # the default loop radius 0.25 exceeds the chart margin at the default
    # base point; the loop family caps it as verify does
    code, out, _ = run(capsys, ["holonomy", "--preset", "hyperbolic", "--variant", variant])
    assert code == 0
    assert json.loads(out)["dimension"] == dimension


@pytest.mark.parametrize("variant", ["ambient", "crude"])
def test_holonomy_lifted_variants_leave_the_slice(capsys, monkeypatch, variant):
    """`holonomy --variant ambient` (and `crude`) transports verify's
    off-slice loop family: the connection sees nodes with s != 0, and the
    dimension is that of verify's ambient estimate."""
    heights = []
    cls = tp.AmbientOracle if variant == "ambient" else tp.CrudeOracle
    real = cls.omega_nodes

    def recording(self, points, tangents):
        heights.append(np.max(np.abs(np.asarray(points)[:, 0])))
        return real(self, points, tangents)

    monkeypatch.setattr(cls, "omega_nodes", recording)
    code, out, _ = run(capsys, ["holonomy", "--preset", "bumpy", "--variant", variant])
    monkeypatch.undo()
    assert code == 0 and max(heights) > 0.01
    suite = report._Suite(RunConfig(preset="bumpy"))
    alg = hol.holonomy_algebra(suite.ambient, suite.abase, suite.off_loops, LOOP_TOL,
                               suite.cfg.tol_rank)
    assert json.loads(out)["dimension"] == alg.dim == 10


def _strict_json(text):
    """json.loads refusing the non-standard Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_holonomy_reports_loops_without_a_log_series(capsys):
    # at radius 0.5 several s2xs2 loop transports are too far from the
    # identity for the log series; they read "inf" and the dimension holds
    code, out, _ = run(capsys, ["holonomy", "--preset", "s2xs2", "--radius", "0.5",
                                "--point", "0,0,0,0"])
    assert code == 0
    data = _strict_json(out)
    assert data["dimension"] == 10
    residuals = [row["log_residual"] for row in data["loops"]]
    assert all(r == "inf" or r <= 1e-6 for r in residuals)
    assert "inf" in residuals


def test_holonomy_with_a_non_finite_connection_exits_two(capsys, monkeypatch):
    def nan_omega(self, points, tangents):
        return np.full((len(points), self.fiber_dim, self.fiber_dim), np.nan)

    monkeypatch.setattr(tp.TractorOracle, "omega_nodes", nan_omega)
    code, out, err = run(capsys, ["holonomy", "--preset", "flat"])
    assert code == 2 and not out
    assert "non-finite connection matrix at t=0.000000, 2h=" in err


def test_verify_json_is_strict_when_a_residual_is_inf(capsys):
    # at loop radius 0.5 some s2xs2 loop transports have no log series,
    # so holonomy-loop-logs reads inf
    code, out, _ = run(capsys, ["verify", "--preset", "s2xs2", "--radius", "0.5",
                                "--point", "0,0,0,0"])
    assert code == 1
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert checks["holonomy-loop-logs"]["residual"] == "inf"
    assert checks["holonomy-loop-logs"]["pass"] is False


# ROADMAP item 1 (the exact ambient curvature) must make these pass
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the finite-difference ambient "
                   "curvature's noise fails ambient and holonomy checks at this radius")
@pytest.mark.parametrize("name, radius", [("sphere", "0.5"), ("sphere", "0.35"),
                                          ("hyperbolic", "0.5")])
def test_verify_passes_at_a_curvature_radius_below_one(capsys, name, radius):
    code, _, _ = run(capsys, ["verify", "--preset", name, "--param", f"radius={radius}"])
    assert code == 0


# ROADMAP item 1 (the exact ambient curvature) must make this pass
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the finite-difference ambient "
                   "curvature's stencil steps past the chart edge")
def test_verify_passes_with_a_loop_near_the_chart_edge(capsys):
    # the loops stay inside the 0.9 * margin cap, with a rectangle corner at
    # x1 = 0.997; the stencil around it steps h = 2e-3 past the edge x1 = 1
    code, _, err = run(capsys, ["verify", "--preset", "sphere", "--point", "0.97,0,0"])
    assert code == 0, err


@pytest.mark.parametrize("flags, settings", [
    ([], {}),
    (["--seed", "7", "--samples", "2", "--loops", "6", "--tol-rank", "1e-5"],
     {"seed": 7, "samples": 2, "loops": 6, "tol_rank": 1e-5}),
], ids=["defaults", "flags"])
def test_cli_report_config_is_the_run_configs(capsys, tmp_path, flags, settings):
    """The CLI sets only the flags given; RunConfig supplies every default."""
    path = tmp_path / "report.json"
    main(["verify", "--preset", "flat", "--out", str(path)] + flags)
    want = run_verify(RunConfig(preset="flat", **settings)).to_dict()["config"]
    assert json.loads(path.read_text())["config"] == want


def test_parser_restates_no_run_config_default():
    args = vars(cli._build_parser().parse_args(["verify", "--preset", "flat"]))
    assert set(args) == {"command", "run", "preset"}


def test_report_config_lists_every_field_but_the_output_ones():
    config = RunConfig(point=np.array([0.1, 0.2, 0.3]), out="x.json", format="text").to_dict()
    assert set(config) == {f.name for f in fields(RunConfig)} - {"out", "format"}
    assert config["point"] == [0.1, 0.2, 0.3] and type(config["point"]) is list


def test_empty_point_uses_the_default_base_point(capsys):
    code, out, _ = run(capsys, ["tensors", "--preset", "sphere", "--point", ""])
    assert code == 0
    assert (code, out) == run(capsys, ["tensors", "--preset", "sphere"])[:2]


def test_verify_flat_passes_and_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "--preset", "flat", "--seed", "42", "--loops", "5",
            "--samples", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()

    def strip_seconds(path):
        data = json.loads(path.read_text())
        for c in data["checks"]:
            c["seconds"] = 0.0
        return json.dumps(data, sort_keys=True)

    assert strip_seconds(out1) == strip_seconds(out2)
    data = json.loads(out1.read_text())
    assert data["summary"]["pass"] is True
    assert data["schema_version"] == 1

"""Command-line front door.

Subcommands: tensors, tractor, ambient, holonomy, verify.  Exit codes:
0 all checks pass, 1 some check failed, 2 configuration or domain error
(a metric entry evaluated outside the domain of log, sqrt or division
included).
The TRACTOR_FORGE_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import holonomy as hol
from . import transport as tp
from .ambient import AmbientGeometry, ambient_point
from .curvature import compute_stack, stack_at
from .expr import EvaluationDomainError
from .metric import PRESET_NAMES, MetricError, metric_jet, signature_of
from .report import (AMBIENT_IDENTITY_TOL, LOOP_TOL, RunConfig, off_slice_family, report_emit,
                     run_verify, torsion_cotton_residual)
from .tractor import connection_matrix, normality_check, tractor_metric

log = logging.getLogger("tractor_forge")

_ORACLES = {cls.name: cls for cls in (tp.TractorOracle, tp.AmbientOracle, tp.CrudeOracle,
                                       tp.LeviCivitaOracle)}


def _parse_point(text: str) -> list | None:
    """The coordinates of `--point`; None (the default base point) for ""."""
    if not text:
        return None
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise MetricError(f"cannot parse point {text!r}") from exc


def _parse_params(items) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise MetricError(f"--param expects NAME=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        out[key.strip()] = parsed
    return out


_SETTINGS = {f.name for f in fields(RunConfig)}
# flags whose text is parsed before it becomes a RunConfig field
_PARSE = {"params": _parse_params, "point": _parse_point}


def _build_parser() -> argparse.ArgumentParser:
    # RunConfig holds the defaults: a flag that is not given is left out
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    src = common.add_argument_group("metric source")
    src.add_argument("--preset", help=f"built-in metric name ({', '.join(PRESET_NAMES)})")
    src.add_argument("--config", dest="config_path", metavar="PATH",
                     help="metric config file")
    src.add_argument("--param", dest="params", action="append", metavar="NAME=VALUE",
                     help="preset parameter (repeatable), e.g. n=4 or eps=0.1")
    common.add_argument("--point", help="chart base point, comma-separated")
    common.add_argument("--tol-tensor", type=float)
    common.add_argument("--tol-transport", type=float)
    common.add_argument("--tol-rank", type=float)
    common.add_argument("--samples", type=int)
    common.add_argument("--loops", type=int,
                        help="total loop-family size per suite, at least the "
                             "n(n-1)/2 coordinate rectangles (unset: see "
                             "RunConfig.loop_count)")
    common.add_argument("--radius", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=("json", "csv", "text"))

    parser = argparse.ArgumentParser(
        prog="tractor-forge",
        description="Conformal tractor / ambient-connection computations.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tensors", parents=[common],
                   help="curvature stack invariants at sampled points"
                   ).set_defaults(run=cmd_tensors)
    sub.add_parser("tractor", parents=[common],
                   help="tractor connection and normality residuals"
                   ).set_defaults(run=cmd_tractor)
    p_amb = sub.add_parser("ambient", parents=[common],
                           help="ambient metric, torsion, and scaling checks")
    p_amb.add_argument("--s", type=float, default=0.0,
                       help="ambient s coordinate of the evaluation point")
    p_amb.add_argument("--q", type=float, default=1.0,
                       help="ambient q coordinate of the evaluation point (> 0)")
    p_amb.set_defaults(run=cmd_ambient)
    p_hol = sub.add_parser("holonomy", parents=[common],
                           help="holonomy algebra estimation for one connection")
    p_hol.add_argument("--variant", choices=list(_ORACLES), default=tp.TractorOracle.name)
    p_hol.set_defaults(run=cmd_holonomy)
    sub.add_parser("verify", parents=[common],
                   help="run the full identity battery on one metric"
                   ).set_defaults(run=cmd_verify)
    return parser


def _config_from_args(args: dict) -> RunConfig:
    """The RunConfig of the parsed flags that name its fields."""
    settings = {name: value for name, value in args.items() if name in _SETTINGS}
    for name in settings.keys() & _PARSE.keys():
        settings[name] = _PARSE[name](settings[name])
    return RunConfig(**settings)


def _emit(report, cfg: RunConfig) -> None:
    text = report_emit(report, cfg.format, cfg.out)
    if not cfg.out:
        sys.stdout.write(text)


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def cmd_tensors(cfg: RunConfig) -> int:
    spec = cfg.metric_spec()
    base = cfg.base_point(spec)
    rng = np.random.default_rng(cfg.seed)
    points = spec.sample_points(rng, cfg.samples)
    st = stack_at(spec, base)
    samples = compute_stack(metric_jet(spec, points))
    payload = {
        "n": spec.n,
        "signature": list(signature_of(st.g)),
        "base_point": [float(v) for v in base],
        "at_base": {
            "scalar_curvature": float(st.Scal),
            "ricci_norm": _maxabs(st.Ric),
            "weyl_norm": _maxabs(st.W),
            "cotton_york_norm": _maxabs(st.CY),
            "schouten": [[float(v) for v in row] for row in st.P],
        },
        "over_samples": {
            "count": int(cfg.samples),
            "max_weyl_norm": float(np.max(np.abs(samples.W), initial=0.0)),
            "max_cotton_york_norm": float(np.max(np.abs(samples.CY), initial=0.0)),
        },
    }
    payload["conformally_flat"] = bool(
        payload["over_samples"]["max_weyl_norm"] <= cfg.tol_tensor
        and payload["over_samples"]["max_cotton_york_norm"] <= cfg.tol_tensor)
    _emit(payload, cfg)
    return 0


def cmd_tractor(cfg: RunConfig) -> int:
    spec = cfg.metric_spec()
    base = cfg.base_point(spec)
    st = stack_at(spec, base)
    rng = np.random.default_rng(cfg.seed)
    X = rng.standard_normal(spec.n)
    rep = normality_check(st)
    payload = {
        "base_point": [float(v) for v in base],
        "fiber_metric_corner": float(tractor_metric(st.g)[0, -1]),
        "sample_connection_norm": _maxabs(connection_matrix(st, X)),
        "normality": {
            "preserves_null_direction": rep["preserves_null_direction"]["residual"],
            "ricci_contraction_vanishes": rep["ricci_contraction_vanishes"]["residual"],
        },
        "normality_pass": bool(rep["pass"]),
    }
    _emit(payload, cfg)
    return 0 if payload["normality_pass"] else 1


def cmd_ambient(cfg: RunConfig, s: float, q: float) -> int:
    spec = cfg.metric_spec()
    base = cfg.base_point(spec)
    geom = AmbientGeometry(spec)
    p = ambient_point(s, base, q)
    st = stack_at(spec, base)
    f, _ = geom.f_map(p, st)
    h = geom.metric(p, st)
    XY = np.random.default_rng(cfg.seed).standard_normal((4, 2, spec.n))  # four pairs (X, Y)
    res_tor = torsion_cotton_residual(geom, p, XY[:, 0], XY[:, 1], st)
    hom = geom.homogeneity_checks(p, np.random.default_rng(cfg.seed), st)
    payload = {
        "point": {"s": s, "base": [float(v) for v in base], "q": q},
        "f_eigenvalues": sorted(float(v) for v in np.linalg.eigvals(f).real),
        "metric_corner_SQ": float(h[0, -1]),
        "default_s_bound": geom.default_s_bound(base, q),
        "torsion_vs_cotton_york": res_tor,
        "homogeneity": hom,
        "nabF_identity": geom.nabF_check(p, np.random.default_rng(cfg.seed), st),
    }
    # the residuals verify's ambient-torsion-cotton, -homogeneity, -dphi-closed
    # and -nabF judge, by the same tolerances
    ok = (all(res <= cfg.tol_transport for res in (res_tor, *hom.values()))
          and payload["nabF_identity"] <= AMBIENT_IDENTITY_TOL)
    payload["pass"] = bool(ok)
    _emit(payload, cfg)
    return 0 if ok else 1


def cmd_holonomy(cfg: RunConfig, variant: str) -> int:
    spec = cfg.metric_spec()
    base = cfg.base_point(spec)
    loops = cfg.loop_family(spec, base)
    oracle = _ORACLES[variant](spec)
    if oracle.point_dim == spec.n + 2:  # ambient and crude: verify's loops off the slice
        _, loops = off_slice_family(AmbientGeometry(spec), base, loops)
        base = ambient_point(0.0, base, 1.0)
    alg = hol.holonomy_algebra(oracle, base, loops, LOOP_TOL, cfg.tol_rank)
    H, G = alg.fiber_metric, alg.loop_transports
    drift = np.max(np.abs(G.swapaxes(1, 2) @ H @ G - H), axis=(1, 2))
    distance = np.max(np.abs(G - np.eye(len(H))), axis=(1, 2))
    loop_rows = [{
        "loop": idx,
        "kind": "rectangle" if len(lp.segments) > 1 else "trig",
        "metric_drift": float(drift[idx]),
        "distance_from_identity": float(distance[idx]),
        "log_residual": float(alg.log_residuals[idx]),
    } for idx, lp in enumerate(loops)]
    payload = {
        "variant": variant,
        "base_point": [float(v) for v in base],
        "dimension": alg.dim,
        "rank_tolerance": alg.rank_tol,
        "sv_profile": [float(f"{v:.6e}") for v in alg.sv_profile[:12]],
        "fixed_vectors": [[float(f"{c:.10e}") for c in v]
                          for v in hol.fixed_vectors(alg)],
        "orthogonal_algebra_residual": hol.algebra_metric_residual(alg),
        "bracket_closure_residual": hol.bracket_closure_residual(alg),
        "loops": loop_rows,
    }
    table = [("loop", "kind", "metric_drift", "distance_from_identity", "log_residual")] + [
        [row["loop"], row["kind"], f"{row['metric_drift']:.6e}",
         f"{row['distance_from_identity']:.6e}", f"{row['log_residual']:.6e}"]
        for row in loop_rows]
    _emit(table if cfg.format == "csv" else payload, cfg)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verify(cfg)
    _emit(report, cfg)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    level = os.environ.get("TRACTOR_FORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = vars(_build_parser().parse_args(argv))
    command, run = args.pop("command"), args.pop("run")
    try:
        cfg = _config_from_args(args)
        log.info("command=%s preset=%s config=%s seed=%d",
                 command, cfg.preset, cfg.config_path, cfg.seed)
        # the flags left are the command's own: ambient's s and q, holonomy's variant
        return run(cfg, **{name: value for name, value in args.items()
                           if name not in _SETTINGS})
    except (MetricError, EvaluationDomainError, tp.TransportError, OSError) as exc:
        log.debug("exit 2", exc_info=exc)  # the traceback, at TRACTOR_FORGE_LOG=DEBUG
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

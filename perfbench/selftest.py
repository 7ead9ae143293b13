"""Self-test of the benchmark itself (not of tractor_forge).

    python3 perfbench/selftest.py        # about two minutes on 2 cores

For each workload it runs one traced process and one untraced process and
checks that

* the traced run reproduces the untraced outputs exactly (run.py compares
  traced op 0 with an untraced op 0 of the same process: the verify JSON
  byte for byte apart from `seconds`, the holonomy dimensions, verdict and
  singular values, the sweep's curvature arrays) and reports correct;
* each layer counter is non-zero where the workload exercises the layer
  and zero where the workload bypasses it;
* the metric names and units match BENCHMARK.json, and every end-to-end
  value is positive;
* the contention correction scales each stretch between kernel samples by
  its own factor and leaves the kernel runs out;
* in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layer figures each workload must exercise (> 0) or bypass (== 0).
_HOLONOMY_LAYERS = [
    "metric.jet2_calls", "metric.jet3_calls", "metric.self_s",
    "curvature.connection_calls", "curvature.stack_calls", "curvature.self_s",
    "transport.path_evals", "transport.path_eval_s", "transport.rhs_evals",
    "transport.transports", "transport.transport_ms", "transport.self_s",
    "tractor.omega_calls", "tractor.self_s", "ambient.omega_calls",
    "ambient.fd_curvature_calls", "ambient.self_s", "holonomy.log_attempts",
    "holonomy.log_accept_ratio", "holonomy.tractor_s", "holonomy.ambient_s",
    "holonomy.self_s",
]
EXPECT = {
    "sweep-sphere": {
        "nonzero": ["expr.compile_s", "metric.jet3_calls", "metric.jet3_us",
                    "metric.self_s", "curvature.stack_calls", "curvature.stack_us",
                    "curvature.self_s"],
        "zero": ["metric.jet2_calls", "curvature.connection_calls",
                 "transport.path_evals", "transport.rhs_evals", "transport.transports",
                 "transport.self_s", "tractor.omega_calls", "ambient.omega_calls",
                 "ambient.omega_offslice_calls", "ambient.fd_curvature_calls",
                 "holonomy.log_attempts", "holonomy.self_s", "report.self_s",
                 "report.emit_s", "cli.self_s"],
    },
    "holonomy-ppwave": {
        "nonzero": ["expr.compile_s"] + _HOLONOMY_LAYERS,
        "zero": ["ambient.omega_offslice_calls", "report.self_s", "report.emit_s",
                 "cli.self_s"],
    },
    "verify-bumpy": {
        "nonzero": ["expr.compile_s", "expr.self_s"] + _HOLONOMY_LAYERS + [
            "ambient.omega_offslice_calls", "report.self_s", "report.emit_s",
            "cli.self_s"],
        "zero": [],
    },
}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=175, check=False)


def _result(proc, label, problems):
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{label}: correct is false\n{proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    return result


def _check_names(result, declared, label, problems):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")


def _check_correction(problems):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import speed

    ref = speed.REF_S
    sp = speed.Speedometer()
    sp.times, sp.kernel_s = [0.0, 1.0], [2 * ref, ref]
    # 0.5 s at half speed, the kernel run at 1.0 left out, then the rest at
    # the median of the two samples' speeds
    want = 0.5 * 0.5 + (2.0 - 1.0 - ref) * (ref / (1.5 * ref))
    got = sp.corrected(0.5, 2.0)
    if abs(got - want) > 1e-12:
        problems.append(f"contention correction: {got} != {want}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_py = str(HERE / "run.py")
    problems: list[str] = []
    _check_correction(problems)
    for name, expect in EXPECT.items():
        print(f"{name}: traced", flush=True)
        traced = _result(_run([run_py, "--workload", name, "--seed", "3",
                               "--seconds", "0", "--trace", "1"]), f"{name} traced", problems)
        if traced:
            _check_names(traced, bench["per_layer"], f"{name} traced", problems)
            values = {k: v["value"] for k, v in traced["metrics"].items()}
            problems += [f"{name}: {k} = 0, expected > 0"
                         for k in expect["nonzero"] if not values.get(k, 0) > 0]
            problems += [f"{name}: {k} = {values.get(k)}, expected 0"
                         for k in expect["zero"] if values.get(k) != 0]
        print(f"{name}: untraced", flush=True)
        plain = _result(_run([run_py, "--workload", name, "--seed", "3",
                              "--seconds", "0", "--trace", "0"]), f"{name} untraced", problems)
        if plain:
            _check_names(plain, bench["end_to_end"], f"{name} untraced", problems)
            problems += [f"{name}: end-to-end {k} = {v['value']}, expected > 0"
                         for k, v in plain["metrics"].items() if not v["value"] > 0]

    print("bare directory", flush=True)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run([*bench["command"][1:], "--workload", "sweep-sphere", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"bare directory: exit code {proc.returncode}, "
                            f"stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare)

    for msg in problems:
        print(f"FAIL {msg}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

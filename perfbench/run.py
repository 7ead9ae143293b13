"""tractor-forge benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload sweep-sphere --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With one workload, the last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
every metric by name with its unit and sample count.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics and the tracing
overhead.  `--workload all` runs every workload untraced and traced, each
in its own process.  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up probes count from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5   # fresh-process set-ups per untraced run; setup_s is their median
MIN_OPS = 2         # verify-bumpy ops take ~20 s; a run keeps at least two
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timings are corrected for host contention (see speed.py) and reported
# as medians; the raw figures are printed beside them.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("stack_p50_ms", "ms"), ("stack_p99_ms", "ms"))


def _median(values):
    return statistics.median(values) if values else 0.0


def _pct(values, p):
    """Nearest-rank percentile; the smallest value when there are few."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)] if ordered else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _setup_child(workload: str, seed: int) -> dict:
    """Set-up time of a fresh interpreter, measured by that interpreter.

    It counts from the start of this script, so it includes importing
    numpy and tractor_forge, not the interpreter's own start.  Returns the
    raw time and the correction factor measured right after it.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _closed_loop(wl, seconds: float, start: float, min_ops: int, span=None,
                 before_op=None, speedo=None):
    """Run ops 0, 1, ... until `seconds` after `start`, at least `min_ops`.

    `before_op(k, elapsed)` runs before op k, outside its timing.  Returns
    the op results, their wall times and, with a speedometer, their wall
    times corrected for contention (kernel runs left out).
    """
    results, walls, corrected = [], [], []
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        if before_op is not None:
            before_op(k, time.perf_counter() - start)
        t0 = time.perf_counter()
        try:
            if span is None:
                res = wl.op(k)
            else:
                with span("bench.op"):
                    res = wl.op(k)
        except Exception:  # an op that raises is a failed op; stop the run
            traceback.print_exc()
            results.append(None)
            break
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if speedo:
            corrected.append(speedo.corrected(t0, t1))
        results.append(res)
        k += 1
    return results, walls, corrected


def _tally(results):
    attempted = sum(r.attempted if r else 1 for r in results)
    failed = sum(r.failed if r else 1 for r in results)
    unexpected = [msg for r in results for msg in (r.unexpected if r else ["op raised"])]
    return attempted, failed, unexpected


def _line(name, value, unit, note=""):
    print(f"{name:30s} {value:14.6g} {unit:9s} {note}".rstrip())


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name](seed, str(OUT))
    wl.setup()

    # Set-up samples are spread over the run, so that their median does
    # not hang on the contention of one moment.
    setups = []
    due = [seconds * i / (SETUP_SAMPLES - 1) for i in range(SETUP_SAMPLES - 1)]
    speedo = speed.Speedometer()

    rss = []  # peak resident set after MIN_OPS ops, so it does not grow with speed

    def before_op(k, elapsed):
        if k == MIN_OPS:
            rss.append(_peak_rss_mb())
        while due and due[0] <= elapsed:
            due.pop(0)
            setups.append(_setup_child(name, seed))
        speedo.tick()

    speedo.attach("metric", "metric_jet")
    probe = speed.LatencyProbe("curvature", "stack_at", speedo)
    try:
        results, walls, corrected = _closed_loop(wl, seconds, time.perf_counter(),
                                                 MIN_OPS, before_op=before_op,
                                                 speedo=speedo)
    finally:
        probe.close()
        speedo.detach()
    if not rss:
        rss.append(_peak_rss_mb())
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_child(name, seed))
    attempted, failed, unexpected = _tally(results)
    stack_raw = [d * 1e3 for d in probe.durations]
    stack_ms = [d * 1e3 * speedo.factor_at(t)
                for t, d in zip(probe.starts, probe.durations)]
    values = {
        "setup_s": _median([c["raw_s"] * c["factor"] for c in setups]),
        "wall_s": _median(corrected),
        "peak_rss_mb": rss[0],
        "stack_p50_ms": _pct(stack_ms, 50),
        "stack_p99_ms": _pct(stack_ms, 99),
    }
    n_stack = f"of {len(stack_ms)} stack_at calls"
    above = sum(v > values["stack_p99_ms"] for v in stack_ms)
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups spread over the run",
        "wall_s": f"median of {len(walls)} ops",
        "peak_rss_mb": f"max resident set of the measuring process over its first {MIN_OPS} ops",
        "stack_p50_ms": n_stack,
        "stack_p99_ms": f"{n_stack}, {above} above",
    }
    for key, unit in END_TO_END:
        _line(key, values[key], unit, notes[key])
    kernel = _median(speedo.kernel_s)
    _line("contention_x", kernel / speed.REF_S, "ratio",
          f"median of {len(speedo.kernel_s)} kernel samples over its uncontended time")
    _line("raw.setup_s", _median([c["raw_s"] for c in setups]), "s", "uncorrected")
    _line("raw.wall_s", _median(walls), "s", "uncorrected")
    _line("raw.stack_p50_ms", _pct(stack_raw, 50), "ms", "uncorrected")
    _line("raw.stack_p99_ms", _pct(stack_raw, 99), "ms", "uncorrected")
    for key in ("tractor_holonomy_s", "ambient_holonomy_s"):
        times = [r.timings[key] for r in results if r and key in r.timings]
        if times:
            _line(f"raw.{key}", _median(times), "s", f"uncorrected, median of {len(times)} ops")
    _line("ops_failed_frac", failed / attempted, "ratio", f"{failed}/{attempted}")
    out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return _result(unexpected, attempted, failed, out)


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Untraced op 0 as the reference, then traced ops 0, 1, ... ."""
    wl = WORKLOADS[name](seed, str(OUT))
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    setup_summary = tracer.summarize()

    start = time.perf_counter()
    ref, ref_walls, _ = _closed_loop(wl, 0, start, 1)
    tracer.reset()
    tracer.install()
    try:
        results, walls, _ = _closed_loop(wl, seconds, start, 1, tracer.span)
    finally:
        tracer.uninstall()
    attempted, failed, unexpected = _tally(ref + results)
    if ref[0] and results[0] and ref[0].output != results[0].output:
        unexpected.append("traced op 0 output differs from the untraced op 0 output")

    overhead = walls[0] - ref_walls[0] if walls and ref_walls else 0.0
    ops = tracer.summarize()
    metrics = spans.layer_metrics(ops, setup_summary, max(1, len(walls)), overhead,
                                  ref_walls[0] if ref_walls else 0.0)
    for key, m in metrics.items():
        _line(key, m["value"], m["unit"])
    print(f"traced ops {len(walls)}, untraced op 0 {ref_walls[0] if ref_walls else 0:.4f} s, "
          f"traced op 0 {walls[0] if walls else 0:.4f} s")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "machine": _machine(),
                   "setup": setup_summary, "ops": ops, "metrics": metrics,
                   **tracer.spans()}, fh)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return _result(unexpected, attempted, failed, metrics)


def _result(unexpected, attempted, failed, metrics) -> dict:
    for msg in unexpected[:20]:
        print(f"INCORRECT: {msg}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} seed {seed} trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace} failed with exit code {proc.returncode}")
                return 1
            summary.setdefault(name, {})["traced" if trace else "untraced"] = \
                json.loads(lines[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] for w in summary.values() for r in w.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tractor_forge" / "__init__.py").is_file():
        print(f"error: no tractor_forge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, str(OUT)).setup()
        raw = time.perf_counter() - T_START
        print(json.dumps({"raw_s": raw, "factor": speed.setup_factor()}))
        return 0
    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} {json.dumps(_machine())}")
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

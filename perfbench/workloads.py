"""The benchmark's three workloads.

Each workload is a closed loop run by one single-threaded client: the next
op starts when the previous one returns.  `setup` does what every user of
the workload pays before the first result: importing the package,
building the metric, generating the first inputs and the first jet call
at each order the workload uses (which compiles the jet evaluator).
tractor_forge is imported inside `setup`, so set-up time includes it, and
library functions are always reached through their module at call time,
so the spans and probes in spans.py see every call.

`op(k)` runs op number k and returns an `OpResult`.  Inputs depend only on
the seed and on k.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OpResult:
    attempted: int
    failed: int
    unexpected: list = field(default_factory=list)  # failures no known defect explains
    output: object = None  # compared between traced and untraced runs
    timings: dict = field(default_factory=dict)


def _import(*names):
    return [importlib.import_module(f"tractor_forge.{name}") for name in names]


class SweepSphere:
    """stack_at at seeded points of the round 3-sphere chart."""

    name = "sweep-sphere"
    points_per_op = 64
    tol = 1e-8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _points(self, k: int):
        rng = np.random.default_rng((self.seed, k))
        return self.spec.sample_points(rng, self.points_per_op)

    def setup(self):
        self.metric, self.curvature = _import("metric", "curvature")
        self.spec = self.metric.preset("sphere")
        self.curvature.stack_at(self.spec, self._points(0)[0])

    def op(self, k: int) -> OpResult:
        points = self._points(k)
        digest = hashlib.sha256()
        failed = 0
        bad = []
        for x in points:
            st = self.curvature.stack_at(self.spec, x)
            R = st.Riem  # [l,i,j,k]; first Bianchi sums the cyclic (i,j,k)
            bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
            scale = max(1.0, float(np.max(np.abs(R))))
            residuals = {
                "scal": abs(st.Scal - 6.0),
                "weyl": float(np.max(np.abs(st.W))),
                "cotton_york": float(np.max(np.abs(st.CY))),
                "bianchi": float(np.max(np.abs(bianchi))) / scale,
            }
            worst = [name for name, res in residuals.items() if not res <= self.tol]
            if worst:
                failed += 1
                bad.append(f"{x.tolist()}: {worst}")
            for arr in (st.Riem, st.P, st.W, st.CY):
                digest.update(arr.tobytes())
        return OpResult(len(points), failed, bad, digest.hexdigest())


class HolonomyPpwave:
    """Tractor vs ambient holonomy on the pp-wave, verify's default loop family."""

    name = "holonomy-ppwave"
    loops = 12      # RunConfig.loops
    radius = 0.25   # RunConfig.radius
    transport_tol = 1e-9
    rank_tol = 1e-6
    residual_tol = 1e-6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _inputs(self, k: int):
        """Base point and loop family as verify draws them, from (seed, k)."""
        rng = np.random.default_rng((self.seed, k))
        base = self.spec.sample_points(rng, 1)[0] * 0.5
        n = self.spec.n
        loops = self.transport.loop_family(base, self.loops - n * (n - 1) // 2,
                                           self.radius, rng)
        return base, loops

    def setup(self):
        (self.metric, self.curvature, self.transport, self.holonomy,
         self.ambient) = _import("metric", "curvature", "transport", "holonomy", "ambient")
        self.spec = self.metric.preset("ppwave")
        base, _ = self._inputs(0)
        self.curvature.connection_at(self.spec, base)
        self.curvature.stack_at(self.spec, base)

    def op(self, k: int) -> OpResult:
        tp, hol = self.transport, self.holonomy
        base, loops = self._inputs(k)
        abase = self.ambient.ambient_point(0.0, base, 1.0)
        t0 = time.perf_counter()
        alg_t = hol.holonomy_algebra(tp.TractorOracle(self.spec, "induced"), base,
                                     loops, self.transport_tol, self.rank_tol)
        t1 = time.perf_counter()
        alg_a = hol.holonomy_algebra(tp.AmbientOracle(self.spec), abase,
                                     [tp.lift_loop(lp) for lp in loops],
                                     self.transport_tol, self.rank_tol)
        t2 = time.perf_counter()
        cmp = hol.compare_holonomy(alg_t, alg_a)
        residuals = {
            "tractor_algebra_metric": hol.algebra_metric_residual(alg_t),
            "ambient_algebra_metric": hol.algebra_metric_residual(alg_a),
            "tractor_bracket_closure": hol.bracket_closure_residual(alg_t),
            "ambient_bracket_closure": hol.bracket_closure_residual(alg_a),
        }
        bad = [f"{name}={res:.3e}" for name, res in residuals.items()
               if not res <= self.residual_tol]
        if cmp["verdict"] != "equal":
            bad.append(f"verdict={cmp['verdict']} dims={cmp['dim_a']}/{cmp['dim_b']}")
        output = (alg_t.dim, alg_a.dim, cmp["verdict"], cmp["residual_a_in_b"],
                  cmp["residual_b_in_a"], tuple(alg_t.sv_profile), tuple(alg_a.sv_profile))
        return OpResult(1, int(bool(bad)), [f"op {k}: {b}" for b in bad], output,
                        {"tractor_holonomy_s": t1 - t0, "ambient_holonomy_s": t2 - t1})


class VerifyBumpy:
    """`tractor-forge verify --preset bumpy`, in-process, default RunConfig.

    The command's inputs are RunConfig's defaults (seed 42 included), so
    the benchmark seed does not change them: verify's cost differs by
    about 25% between its seeds and a run fits only two verifies.
    """

    name = "verify-bumpy"
    # Schouten-sign defect (ROADMAP Open item 1): these two checks fail on
    # every metric with nonzero Schouten tensor.  They count as failed ops;
    # any other failing check makes the run incorrect.
    known_failures = {"ambient-curvature-block", "ambient-ricci-on-slice"}

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.reference = None

    def setup(self):
        self.cli, self.metric, self.curvature = _import("cli", "metric", "curvature")
        spec = self.metric.preset("bumpy")
        x = np.zeros(spec.n)
        self.curvature.connection_at(spec, x)
        self.curvature.stack_at(spec, x)

    def op(self, k: int) -> OpResult:
        path = os.path.join(self.workdir, f"verify-{os.getpid()}-{k}.json")
        try:
            code = self.cli.main(["verify", "--preset", "bumpy", "--out", path])
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        finally:
            if os.path.exists(path):
                os.remove(path)
        for check in report["checks"]:
            check["seconds"] = 0.0
        text = json.dumps(report, indent=2, sort_keys=True)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        bad = [f"unexpected failing check {name}" for name in failed
               if name not in self.known_failures]
        if code != (1 if failed else 0):
            bad.append(f"exit code {code} with {len(failed)} failing checks")
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            bad.append("report differs from the run's first report apart from seconds")
        return OpResult(len(report["checks"]), len(failed), bad, text)


WORKLOADS = {cls.name: cls for cls in (SweepSphere, HolonomyPpwave, VerifyBumpy)}

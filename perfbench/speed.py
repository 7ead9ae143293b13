"""Correction of timings for contention from other tenants of the host.

On the 2-vCPU host this benchmark was written on, other tenants slow this
process by up to 1.8x for stretches of 5 to 30 s and shift its speed for
minutes at a time.  CPU time grows with wall time in those stretches, so it
is contention for the core, not preemption.  A fixed calibration kernel with
the same instruction mix as tractor_forge (small numpy calls between
Python-level loops) slows by the same factor: over 90 s its time moved by
+-30% while the ratio of `stack_at` time to kernel time stayed within +-5%.

`Speedometer` runs the kernel between ops and, through a hook on a hot
library function, about every `INTERVAL_S` inside ops.  A timing is
corrected to the reference speed by scaling each stretch of it by
`REF_S / kernel time` of the latest samples; the kernel's own runs are
left out of every timing that contains them.
"""

from __future__ import annotations

import bisect
import importlib
import statistics
import time

import numpy as np

import spans

# Kernel time on a lightly loaded vCPU of the reference host (2-vCPU Xeon
# VM, CPython 3.11, numpy 2.4).  It fixes the scale of corrected seconds
# only; comparisons between runs do not depend on it.
REF_S = 0.0021
INTERVAL_S = 0.1

_A = np.arange(16.0).reshape(4, 4) / 7.0 + np.eye(4)


def kernel() -> float:
    acc = 0.0
    for i in range(150):
        b = np.einsum("ij,jk->ik", _A, _A)
        acc += float(np.linalg.solve(_A, b[:, 0])[0])
        for j in range(20):
            acc += (i * j) % 7 * 0.5
    return acc


class Speedometer:
    """Kernel timings taken through a run, and the corrections they imply."""

    def __init__(self):
        kernel()  # first calls pay for numpy's einsum and solve set-up
        self.times: list[float] = []     # start of each sample
        self.kernel_s: list[float] = []  # kernel wall time of each sample
        self.spent = 0.0                 # total wall time spent in the kernel
        self._next = 0.0
        self._undo: list = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0
        self._next = t1 + INTERVAL_S

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def attach(self, module: str, attr: str) -> None:
        """Sample from inside ops, at calls of a function every workload makes often."""
        fn = getattr(importlib.import_module(f"tractor_forge.{module}"), attr)
        tick = self.tick

        def hooked(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        hooked.__wrapped__ = fn
        self._undo += spans.rebind(fn, hooked)

    def detach(self) -> None:
        spans.restore(self._undo)
        self._undo = []

    def factor_at(self, t: float) -> float:
        """REF_S over the median kernel time of the last three samples at or before t."""
        idx = max(1, bisect.bisect_right(self.times, t))
        return REF_S / statistics.median(self.kernel_s[max(0, idx - 3):idx])

    def corrected(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] at the uncontended speed, kernel runs left out.

        Each stretch between samples is scaled by the factor current at
        its start.
        """
        total = 0.0
        start = t0
        for idx in range(bisect.bisect_right(self.times, t0),
                         bisect.bisect_left(self.times, t1)):
            total += (self.times[idx] - start) * self.factor_at(start)
            start = self.times[idx] + self.kernel_s[idx]
        return total + (t1 - start) * self.factor_at(start)


class LatencyProbe:
    """Per-call wall time of one public function, through all its bindings.

    Kernel time spent inside a call is subtracted from it.  Used with
    tracing off, so stack latency can be reported on every workload; it
    costs one clock pair per call.
    """

    def __init__(self, module: str, attr: str, speedo: Speedometer):
        fn = getattr(importlib.import_module(f"tractor_forge.{module}"), attr)
        self.starts: list[float] = []
        self.durations: list[float] = []
        starts, durations, clock = self.starts, self.durations, time.perf_counter

        def timed(*args, **kwargs):
            spent = speedo.spent
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(clock() - t0 - (speedo.spent - spent))
                starts.append(t0)

        timed.__wrapped__ = fn
        self._undo = spans.rebind(fn, timed)

    def close(self) -> None:
        spans.restore(self._undo)


def setup_factor(samples: int = 3) -> float:
    """Correction for a set-up just finished in this fresh process."""
    kernel()
    runs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return REF_S / statistics.median(runs)

"""Fixed reference computations that measure how fast the host runs now.

The host this benchmark runs on is shared: over a few minutes the same work
takes anywhere from 1x to 1.5x its best time, in CPU time as much as in
wall time, because other tenants' load changes the speed of the cores
(clock boost, shared caches) and the cost of mapping memory into a new
process.  A run therefore times a reference computation between its
operations and reports each operation's time relative to it: a change to
akzeta moves the ratio, a change of host speed moves both and cancels.

Neither reference uses akzeta code, so no change to the package can move
them.  Each matches the kind of work it calibrates:

- ``kernel`` for catalog cases, run inside the worker interpreter: x87
  ``powl`` weights and extended-precision prefix sums (the DP kernel and
  ``_outer_arrays``), interpreter loops, and 50-digit mpmath arithmetic
  (``zeta_em``);
- ``process_sample`` for CLI calls: a fresh interpreter importing numpy
  and mpmath, the start-up that dominates a one-off call.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

LD = np.longdouble
N = 6_000           # arrays that stay in a core's own cache
# Median CPU times on the 2-core Xeon VM the benchmark was written on: the
# speed that the gated times refer to.
REFERENCE_S = 0.005            # one ``kernel`` run
PROCESS_REFERENCE_S = 0.25     # one ``process_sample``


def kernel() -> float:
    n = np.arange(1, N + 1, dtype=LD) + LD(0.25)
    w = n ** LD(-2.5)                                        # x87 powl
    acc = float(np.sum(np.cumsum(w[::-1])[::-1] / n))        # prefix sums
    k = 0
    for j in range(1, 4000):
        k += (j * j) % 7
    with mp.workdps(50):
        acc += float(mp.fsum(mp.mpf(1) / mp.mpf(j) ** 3 for j in range(1, 150)))
    return acc + k


def sample() -> float:
    """CPU seconds of one kernel run."""
    t = time.process_time()
    kernel()
    return time.process_time() - t


def children_cpu() -> float:
    """User + system CPU time of every child process waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def process_sample(env: dict) -> float:
    """CPU seconds of a fresh interpreter that imports numpy and mpmath."""
    before = children_cpu()
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], env=env,
                   capture_output=True, check=True, timeout=60)
    return children_cpu() - before


class Sampler:
    """Reference samples spread evenly over a pass: ``take()``, called
    between operations, takes one sample for every ``every_s`` seconds since
    the last, so a long operation is followed by a burst."""

    MAX_BURST = 25

    def __init__(self, measure=sample, every_s: float = 0.25):
        self.measure, self.every_s = measure, every_s
        measure()                    # first-call set-up is not a sample
        self.last = None

    def take(self) -> tuple[list[float], float]:
        """The samples now due, and the wall time they took."""
        now = time.perf_counter()
        due = 1 if self.last is None else min(self.MAX_BURST,
                                              int((now - self.last) / self.every_s))
        if not due:
            return [], 0.0
        samples = [self.measure() for _ in range(due)]
        self.last = time.perf_counter()
        return samples, self.last - now

"""The reference kernel that puts every benchmark time on one machine speed.

The benchmark was tuned on a shared 2-vCPU VM whose speed drifts by
20-40% in phases that last tens of seconds to minutes, so a run's wall
times depend more on when it ran than on the program. Longer runs do not
help: for one oracle-enhance command repeated for four minutes, the
medians of consecutive 10 s windows spread by 17% (quartile distance over
the median), and those of 60 s windows by 19%. ``README.md`` (Steadiness)
has the spreads with and without the rescaling below.

``kernel`` is fixed benchmark code that the program cannot change: numpy
element-wise work and an FFT on arrays near the per-core L2 size, plus a
pure-Python loop, the same kinds of work the workloads do. It runs between
the timed rounds (and between the set-up probes), and each timed interval
is rescaled by ``REFERENCE_S / (mean time of the kernel runs either side
of it)``: the time it would have taken on a machine that runs the kernel
in ``REFERENCE_S``. A workload that fans out over two threads is rescaled
by a kernel that also runs on two threads at once, because that workload
slows down when either core does.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# About the kernel's median time, by thread count, on the 2-vCPU Xeon VM
# the benchmark was tuned on. Fixed: they only set the scale of the
# reported times.
REFERENCE_S = {1: 0.115, 2: 0.265}

_X = np.random.default_rng(0).standard_normal(200_000)


def _work() -> None:
    for _ in range(20):
        y = np.exp(-_X * _X) * np.sin(_X) + np.sqrt(np.abs(_X))
        float(np.abs(np.fft.rfft(y[:16384])).sum())
    acc = 0
    for i in range(200_000):
        acc += i * i % 7


def kernel(threads: int = 1) -> float:
    """Wall seconds of the reference kernel: once on one thread and, for
    ``threads`` > 1, once more on that many threads at the same time."""
    t0 = time.perf_counter()
    _work()
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lambda _: _work(), range(threads)))
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float, threads: int = 1) -> float:
    """An interval of wall seconds at reference speed, given the times of
    ``kernel(threads)`` measured just before and just after it."""
    return REFERENCE_S[threads] * seconds / (0.5 * (before + after))

"""Host-speed calibration for the benchmark's timings.

On a small shared host the speed of a core drifts by tens of percent within
seconds to minutes: every piece of code slows down together and the time
shows up as user time, not as steal. A timing taken alone then measures the
host as much as the program. The workers therefore time a fixed reference
kernel, which nothing in ``nucfio`` can change, between their timed
scenarios and convert their times into reference seconds: the seconds the
work would have taken on a host where one ``measure()`` takes ``REF_S``.

The kernel mixes what the workloads spend their time on, since the host's
drift slows each kind of work by a different amount: an interpreted loop,
dense eigenproblems, element-wise work on a fresh 500k-point array and
random-access gathers from it. Its inputs are fixed, never drawn from the
workload seed.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

REF_S = 0.040  # seconds one measure() takes on a 2-vCPU Xeon VM at its usual speed

_rng = np.random.default_rng(20180722)
_A = _rng.standard_normal((128, 128))
_A = _A + _A.T
_N = 500_000  # 4 MB: past the per-core cache
_RAMP = np.linspace(-3.0, 3.0, 1000)
_IDX = _rng.integers(0, _N, 400_000).astype(np.int32)
_OUT = np.empty(_IDX.size)


def _kernel() -> None:
    # roughly equal parts: interpreted loop, dense eigenproblems,
    # element-wise work on a large array, and a random-access gather from it
    s = 0
    for i in range(120_000):
        s += i * i
    for _ in range(9):
        np.linalg.eigvalsh(_A)
    # Fresh pages, as the workloads' arrays get, but mapped here directly:
    # a large array from malloc would raise glibc's mmap threshold and so
    # change how the program's own arrays are allocated, and its peak RSS.
    with mmap.mmap(-1, _N * 8) as pages:
        y = np.frombuffer(pages, dtype=np.float64)
        y.reshape(-1, _RAMP.size)[:] = _RAMP
        np.cos(y, out=y)
        y *= 0.5
        np.sin(y, out=y)
        for _ in range(3):
            np.take(y, _IDX, out=_OUT)
        del y  # the mapping cannot close while an array views it


def measure(n: int = 1) -> float:
    """Seconds one run of the reference kernel takes now, or the median
    of ``n`` runs."""
    runs = []
    for _ in range(n):
        start = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def to_ref(seconds: float, cal: float) -> float:
    """``seconds`` of host time, taken while the kernel took ``cal``
    seconds, in reference seconds."""
    return seconds * REF_S / cal

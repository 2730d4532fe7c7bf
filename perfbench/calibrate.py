"""Host-speed calibration: timing against a fixed reference kernel.

On a virtual machine that shares its physical cores with other tenants the
same code runs at different speeds from minute to minute: in a slow
stretch every op, and a kernel run beside it, takes up to about 1.6 times
as long.  A stretch can outlast a whole run, so no estimator over one run's
op times can tell it from a slower program.

The benchmark therefore times a fixed kernel that shares no code with
surfwalk between its ops, and scales each op time by the kernel's
``reference_s`` over its time around that op.  A calibrated time is the
op's time on a host running at the speed where the kernel takes
``reference_s``.  A change to surfwalk moves the op times and leaves the
kernel alone, so it shows in full; a change of host speed moves both, and
cancels.

Interpreter-bound code and large dense linear algebra do not slow down
alike: over the same minute the first swung by about 40 % and the second
by about 20 %.  So there are two kernels, and each workload is calibrated
with the one that does its kind of work (``workloads.WORKLOADS``).
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A kernel sample is taken before an op once this long has passed since the
# last one, so that short ops share samples and long ops get their own.
INTERVAL_S = 0.05
# An op is scaled by the median of this many samples on each side of it.
NEIGHBOURS = 2
# A set-up is scaled by the median of this many samples taken after it.
SETUP_SAMPLES = 25

_RNG = np.random.default_rng(20250113)
_SMALL = [_RNG.standard_normal((4, 4)) for _ in range(96)]
_MATRIX = _RNG.standard_normal((100, 100)) + 1j * _RNG.standard_normal((100, 100)) + 20 * np.eye(100)
_LARGE = _RNG.standard_normal((300, 300)) + 1j * _RNG.standard_normal((300, 300)) + 30 * np.eye(300)


def _interp_work() -> float:
    """Dictionary, tuple and sorting work plus many tiny numpy calls."""
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i * 7919 % 257, i % 7)
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    total = float(sum(v for _, v in ordered[::3]))
    for m in _SMALL:
        total += float(np.abs(m @ m.T).sum())
    return total + float(np.abs(np.linalg.inv(_MATRIX)).sum())


def _dense_work() -> float:
    """One dense complex inverse of a 300 x 300 matrix."""
    return float(np.abs(np.linalg.inv(_LARGE)).sum())


@dataclass(frozen=True)
class Kernel:
    name: str
    work: Callable[[], float]
    # The kernel's nominal time: about its typical time on the 2-vCPU Xeon
    # VM the baseline in README.md was measured on.
    reference_s: float

    def time(self) -> float:
        """One timed run."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def speed_factor(self) -> float:
        """reference_s over the median of SETUP_SAMPLES fresh runs, after one
        untimed run (first-call costs are not the host's speed)."""
        self.work()
        return self.reference_s / statistics.median(self.time() for _ in range(SETUP_SAMPLES))


INTERP = Kernel("interp", _interp_work, 0.004)
DENSE = Kernel("dense", _dense_work, 0.012)


class Calibration:
    """Kernel samples taken along a run, each with the time it was taken."""

    def __init__(self, kernel: Kernel, clock=time.perf_counter, timer=None):
        self.reference_s = kernel.reference_s
        self.clock = clock
        self.timer = timer or kernel.time
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        self.at.append(self.clock())
        self.took.append(self.timer())

    def maybe_sample(self):
        if not self.at or self.clock() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """reference_s over the median kernel time of the NEIGHBOURS samples
        taken last before ``start`` and the NEIGHBOURS first after ``end``."""
        first = bisect.bisect_left(self.at, start)
        last = bisect.bisect_left(self.at, end)
        near = self.took[max(first - NEIGHBOURS, 0):first] + self.took[last:last + NEIGHBOURS]
        return self.reference_s / statistics.median(near)

    def scale(self, samples: list[list]) -> list[list]:
        """Each op's (start, time) samples as times at the reference speed
        (None for a failed run)."""
        return [[None if t is None else t * self.factor(s, s + t) for s, t in column] for column in samples]

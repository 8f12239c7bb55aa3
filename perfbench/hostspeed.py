"""Host-speed probe: scales a measured time to a fixed reference host speed.

The benchmark shares a few cores of a host with other tenants, and the speed
of a core swings by up to 2x over seconds to minutes as they load it; raw
wall times of the same code then spread far more than any useful bound.
While a timed region runs, a ``SIGALRM`` interval timer interrupts it every
``PERIOD_S`` and times two short fixed kernels right there, on the same core
at the same moment: a pure-Python loop nest shaped like the banded Cholesky
factorization in ``etlab.linalg`` (list indexing and float arithmetic in the
interpreter), and numpy operations on a small 2-D array like the kinetic
solver's. Each kernel runs once to warm the caches the program just used,
then once timed. A probe is also taken just before and just after the
region, so short regions still get samples.

If a kernel takes ``d`` seconds, the host runs it at ``ref / d`` times the
reference speed. Samples come evenly in time, so the mean of that ratio is
the host's average speed for that kind of work over the region. Load slows
interpreter loops more than numpy array work, so the host speed for a
region is the weighted geometric mean ``py ** w * np ** (1 - w)`` of the
two, with ``w`` about the share of the region's time spent in interpreter
loops, and

    scaled time = (region time - time spent in probes) * host speed

is the time the region would take on a host where the kernels take
``REF_PY_S`` and ``REF_NP_S``. The kernels are benchmark code and use
nothing from etlab, so a change to the program moves the region time and
not the probe. Python runs signal handlers between bytecodes, so inside a
long C call (numpy, LAPACK) the next probe waits until the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List

PERIOD_S = 0.025
# Round figures near the kernels' times on the 2-vCPU Xeon VM the benchmark
# was written on, where the host speed they give read 0.75 to 1.3.
REF_PY_S = 2.0e-4
REF_NP_S = 1.0e-4
# Set-up runs before numpy is imported, so it is probed with the interpreter
# kernel alone. It is mostly imports (reading and unmarshalling bytecode,
# running module bodies, loading extensions), which load slows about half as
# much as the interpreter kernel: fitted on set-up times of ten runs of each
# workload.
SETUP_PY_WEIGHT = 0.5
_N, _BW, _REPS = 64, 2, 4
_COLS = [[1.0 + 1e-3 * ((7 * j + k) % 11) for k in range(_BW + 1)] for j in range(_N)]
_ARRAYS: list = []


def py_kernel() -> float:
    """Fixed interpreter work: the column updates of a banded Cholesky."""
    s = 0.0
    cols = _COLS
    for _ in range(_REPS):
        for j in range(_BW, _N):
            for p in range(j - _BW, j):
                colp = cols[p]
                l_jp = colp[j - p] * 1e-3
                for k in range(_BW + 1 - (j - p)):
                    s += colp[j - p + k] * l_jp
    return s


def np_kernel() -> None:
    """Fixed array work: exponentials, products, shifts and row sums."""
    if not _ARRAYS:
        import numpy as np

        a = np.linspace(0.1, 1.0, 128 * 64).reshape(128, 64)
        _ARRAYS.extend((np, a, np.empty_like(a)))
    np, a, b = _ARRAYS
    for _ in range(3):
        np.exp(-a, out=b)
        b *= a
        b[1:] -= 0.5 * b[:-1]
        b.sum(axis=1)


def _timed(kernel: Callable[[], object]) -> float:
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples host speed during timed regions; one region at a time.

    ``py_weight`` is the weight ``w`` of the interpreter kernel; with
    ``with_numpy=False`` only that kernel runs, and the host speed is
    ``py ** w``.
    """

    def __init__(
        self, py_weight: float, with_numpy: bool = True, period_s: float = PERIOD_S
    ) -> None:
        self.py_weight = py_weight
        self.with_numpy = with_numpy
        self.period_s = period_s
        self.py_durations: List[float] = []
        self.np_durations: List[float] = []
        # All time spent probing, to subtract from regions timed around
        # ``start`` and ``stop``.
        self.probe_s = 0.0
        self._armed = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        self.py_durations.append(_timed(py_kernel))
        if self.with_numpy:
            self.np_durations.append(_timed(np_kernel))
        self.probe_s += time.perf_counter() - start

    def start(self) -> None:
        """Take a probe, then sample every ``period_s`` until ``stop``."""
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scale(self) -> float:
        """Mean host speed over the regions, relative to the reference host."""
        w = self.py_weight
        py = statistics.fmean(REF_PY_S / d for d in self.py_durations)
        if not self.with_numpy:
            return py**w
        arr = statistics.fmean(REF_NP_S / d for d in self.np_durations)
        return py**w * arr ** (1.0 - w)

    def scaled(self, region_s: float) -> float:
        """A region timed around ``start`` and ``stop``, as seconds on the
        reference host."""
        return (region_s - self.probe_s) * self.scale()

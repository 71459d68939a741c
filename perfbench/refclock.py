"""The reference clock: fixed kernels timed right after every operation.

The test machine moves between CPU speed states about 1.8x apart that
last tens of seconds, so raw wall time of one run says more about the
machine than about the program.  Each operation is therefore paired with
a kernel that imports nothing from sepdeut, timed right after it, and its
reference time is

    wall time * (nominal kernel time / paired kernel time).

Two kernels were chosen by measurement (see README.md):

* `small` mixes interpreter-bound work with numpy calls on 40-point
  arrays, the shape of work in panel quadrature and scalar CSV rows.
  It tracks `report`, the fit and the CLI grids.
* `array` evaluates a masked special-function-like expression on
  100 000 points, the shape of work in the transform oracle.  It tracks
  `validate`, whose time the small kernel follows poorly, and the
  set-up of every workload (interpreter start and imports).

The nominal times are constants of the benchmark: the kernels' median
times on the reference machine, so reference and wall time agree there.

An operation that lasts longer than the speed states do would be
converted by whatever state held at its end.  So while an operation runs,
a timer signal runs a tenth (small) or a third (array) of its kernel
every TICK_S seconds, in the main thread between bytecodes; the slices,
scaled up, join the paired kernel as samples of the machine's speed
during the operation, and their time is taken off the operation's wall
time.  An infeasible fit does a near-constant 171-199 normalisation
solves, yet its reference time from the paired kernel alone ranged over
4.0-10.5 s.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: nominal kernel times in seconds (2-core Xeon, Python 3.11.7, numpy 2.4.6)
NOMINAL_S = {"small": 2.8e-3, "array": 10.0e-3}

_SMALL_X = np.linspace(0.05, 3.0, 40)
_ARRAY_X = np.linspace(0.0, 1280.0, 100_000)

#: seconds between kernel slices during an operation
TICK_S = 0.1


def _small(iterations=250):
    x = _SMALL_X
    acc = 0.0
    table = {}
    for i in range(iterations):
        y = np.sin(x) / x
        small = x < 0.5
        acc += float(y @ x) + float(np.any(small))
        key = (i * 2654435761) % 1021
        table[key & 31] = table.get(key & 31, 0) + key
    return acc + len(table)


def _array(repeats=3):
    x = _ARRAY_X
    acc = 0.0
    for _ in range(repeats):
        small = x < 0.5
        y = np.empty_like(x)
        y[~small] = np.sin(x[~small]) / x[~small]
        y[small] = 1.0
        acc += float((x * x * y / (x * x + 0.05)).reshape(-1, 40).sum())
    return acc


KERNELS = {"small": _small, "array": _array}


def _small_slice():
    return _small(25)


def _array_slice():
    return _array(1)


# (slice of the kernel run on each tick, kernel time / slice time as measured)
_SLICES = {"small": (_small_slice, 9.9), "array": (_array_slice, 2.86)}


def kernel_time(name: str) -> float:
    """Wall time in seconds of one run of the named kernel."""
    fn = KERNELS[name]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def reference(wall_s: float, kernel_s: float, name: str) -> float:
    """Wall time converted to the reference clock."""
    return wall_s * NOMINAL_S[name] / kernel_s


class Clock:
    """Times operations against one kernel, sampling it during long ones."""

    def __init__(self, name: str):
        self.name = name
        #: the slice function; a traced run wraps it so slices get spans of their own
        self.slice, self._factor = _SLICES[name]
        self._slices = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.slice()
        self._slices.append(time.perf_counter() - t0)

    def time(self, fn, *args):
        """Run fn(*args); return (result, wall_s, kernel_s).

        wall_s excludes the slices; kernel_s is the time one kernel took at
        the machine's average speed over the paired kernel and the slices.
        """
        self._slices = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # pooled: kernel work done over time taken, a slice being 1/factor of a kernel
        stolen = sum(self._slices)
        kernel = (kernel_time(self.name) + stolen) / (1.0 + len(self._slices) / self._factor)
        return result, wall - stolen, kernel

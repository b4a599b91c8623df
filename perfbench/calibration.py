"""Host-speed probe that corrects the benchmark's timings for host drift.

On a shared host the speed of one process changes by tens of percent from
one second to the next, with no steal time and no other runnable process
in the VM: other tenants of the physical machine contend for its cores,
caches and memory bandwidth.  A fixed loop that never touches cbftk slows
down with the jobs, so its time is a control variate for theirs.
``probe`` times that loop; it runs between every two timed jobs and every
two set-up interpreters.  A run's job times are divided by ``slowdown`` of
all the probes taken among them, and each set-up time by ``slowdown`` of
the two probes on either side of it, at ``SETUP_ELASTICITY``.
The correction does not depend on the program, so a change that makes
cbftk faster moves the corrected figures by the same factor as the raw
ones.

The loop has three equal parts, one per kind of work the program does:
Python-level arithmetic on small objects (the AD reference path), numpy
calls on 4-vectors (RK4 steps with the filter) and numpy on arrays the size
of a 401 x 401 grid (grid scans).  It runs with the garbage collector off
and writes its large arrays into buffers of its own, so that its time does
not depend on how many objects or how much heap the program left behind.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# median probe time on the host the bounds were set on (a shared 2-vCPU
# Xeon VM); it only sets the scale of the corrected figures
REFERENCE_S = 0.05
# elasticity of job time to probe time.  Over 20 runs of each workload on
# that host, the regression slope of log throughput on the log of the run's
# median probe time was -0.55 to -0.86 per workload and plant.  Taking out
# three quarters of the probes' relative slowdown gave a smaller spread of
# throughput across runs than a half on 7 of the 8 pairs, and taking out
# all of it over-corrected some.
ELASTICITY = 0.75
# set-up interpreters (0.2 s each) follow the probe less closely: over 80 of
# them the slope of log set-up time on log probe time was 0.22.  Half of
# the two bracketing probes' slowdown kept the median set-up time of ten
# runs within 0.141-0.169 s over sixteen sets; three quarters of the median
# probe of the whole set-up phase over-corrected (IQR/median 0.34-0.44).
SETUP_ELASTICITY = 0.5

_COS_GRID = np.cos(np.linspace(-3.0, 3.0, 401 * 401))
_Y = np.empty_like(_COS_GRID)
_A = np.empty_like(_COS_GRID)
_RATE = np.eye(4) * 0.99


class _Pair:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, other):
        return _Pair(self.v + other.v, self.d + other.d)

    def __mul__(self, other):
        return _Pair(self.v * other.v, self.v * other.d + self.d * other.v)


def _objects(n=12000):
    acc, x = _Pair(0.0, 0.0), _Pair(0.5, 1.0)
    for i in range(n):
        acc = acc * x + _Pair((i % 7) * 1e-3, 0.0)
        if acc.v > 10.0:
            acc = _Pair(0.0, 0.0)
    return acc.v


def _small_arrays(n=4000):
    x = np.array([0.1, -0.2, 0.3, 0.05])
    for _ in range(n):
        x = _RATE @ x + 0.001 * np.cos(x)
    return float(x @ x)


def _large_arrays(n=7):
    # y <- sin(y) c + sqrt|y| / 2 in place, with c = cos(grid); |y| stays below 2
    y, a, c = _Y, _A, _COS_GRID
    np.copyto(y, c)
    for _ in range(n):
        np.abs(y, out=a)
        np.sqrt(a, out=a)
        np.multiply(a, 0.5, out=a)
        np.sin(y, out=y)
        np.multiply(y, c, out=y)
        np.add(y, a, out=y)
    return float(y.sum())


def probe() -> float:
    """Seconds the fixed loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _objects()
        _small_arrays()
        _large_arrays()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(probe_times, elasticity: float = ELASTICITY) -> float:
    """How much slower than the reference host the work ran among which
    ``probe_times`` were taken; divide its seconds by this."""
    return (statistics.median(probe_times) / REFERENCE_S) ** elasticity

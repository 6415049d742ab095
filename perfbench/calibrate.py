"""A fixed calibration kernel that says how fast the machine is right now.

The benchmark runs on shared machines whose speed moves by half over
minutes, for every program alike.  So every op is followed by timings of
this kernel, one per started ``EVERY_S`` of the op, so that the kernel's
mean weighs the machine's state by time.  The kernel is a fixed mix of the
work the library does (a Python loop, scipy ``quad`` on Python integrands,
small numpy array operations) that calls no ``lorentzk`` code, so no change
to the library can make it faster or slower.
A run's times are then given in reference seconds: seconds scaled by
(``REF_S`` over the kernel's mean time in that run) to the power ``SLOPE``.

On the 2-vCPU x86-64 VM the benchmark was built on, the machine switches
between a fast and a slow state (the kernel takes about 0.40 or 0.70 ms)
every few seconds, and the time of a long op grows with the share of it
spent in the slow state, so the mean, not the median, is what tracks it.
The library's work slows more than the small kernel does: over passes of
fixed work, the log of a pass's time against the log of the kernel's mean
had slope 1.24 (verify-oracle), 1.32 (check-weights) and 1.38 (norm), and
scaling with ``SLOPE`` = 1.3 instead of 1 cut the passes' variation from
0.060, 0.088 and 0.052 to 0.054, 0.072 and 0.030 (coefficients of
variation).  A reference second is a second of a machine on which the
kernel takes ``REF_S``.
"""

import gc
import math
import statistics
import time

import numpy as np
from scipy.integrate import quad

REF_S = 5e-4
SLOPE = 1.3
EVERY_S = 0.05

samples: list[float] = []


def kernel() -> float:
    """Run the kernel once, with the garbage collector off; return and keep its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += math.sqrt(i) * 0.5
        quad(lambda x: x ** 0.3 * math.log1p(x), 0.0, 2.0)
        quad(lambda x: x ** -0.4 * math.exp(-x), 0.0, 50.0)
        z = np.arange(300.0)
        np.cumsum(z * z).sum()
        np.searchsorted(z, 17.5)
        seconds = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    samples.append(seconds)
    return seconds


def after(seconds: float) -> None:
    """Time the kernel once per started ``EVERY_S`` of an op that took ``seconds``."""
    for _ in range(1 + int(seconds / EVERY_S)):
        kernel()


def scale(values: list[float]) -> float:
    """Reference seconds per second, from kernel times taken alongside a measurement."""
    return (REF_S / statistics.fmean(values)) ** SLOPE

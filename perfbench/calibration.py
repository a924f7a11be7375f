"""Machine-speed probes for timings on a shared, drifting machine.

On a machine shared with other tenants, speed drifts: ten stock_matrix
runs, one after another, read 3.0 to 4.7 s for a cv matrix, and every
operation in a run moved together (by 1.3-1.4x between the slow and the
fast minutes); within a run, samples of one operation on one input
ranged 2x, in modes that switch within seconds. A run's median is blind
to that; a spread over runs is dominated by it.

The benchmark therefore probes the machine's speed right before and
right after every timed operation with a fixed kernel, written against
numpy and scipy alone (no paclab code, so no change to the program can
move it), and divides the operation's time by the mean of the two
points. A point is the median of PASSES kernel passes over REFERENCE_S,
so a corrected timing reads as seconds at the speed where the kernel
takes REFERENCE_S. Work on a thread pool is probed with the kernel on
every core at once. The report prints the raw wall times too.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.signal import fftconvolve, hilbert

#: Kernel time at the reference speed: its median on a 2-vCPU Xeon VM
#: (2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = 0.010

#: Kernel passes at each calibration point of a run.
PASSES = 4

_RNG = np.random.default_rng(20261017)
_X = _RNG.standard_normal(1 << 16)
_TAPS = _RNG.standard_normal(1201)


def kernel_seconds():
    """One pass of a filter-and-analytic-signal kernel, like paclab's inner
    loops: FFT convolution, Hilbert transform, complex elementwise work."""
    t0 = time.perf_counter()
    z = hilbert(fftconvolve(_X, _TAPS, mode="same"))
    float(np.abs(np.mean(np.abs(z) * np.exp(1j * np.angle(z)))))
    return time.perf_counter() - t0


def pooled_kernel_seconds(pool, threads):
    """Wall time of one kernel pass on each of threads threads at once."""
    t0 = time.perf_counter()
    list(pool.map(lambda _: kernel_seconds(), range(threads)))
    return time.perf_counter() - t0


class SpeedProbe:
    """The speed points of one run.

    With threads > 1 every pass runs the kernel on that many threads at
    once, for work that a thread pool spreads over every core.
    """

    def __init__(self, threads=1):
        self.threads = threads
        self.points = []

    def calibrate(self):
        """A new point: median of PASSES kernel passes over REFERENCE_S.

        Above 1 means slower than the reference speed.
        """
        if self.threads == 1:
            passes = [kernel_seconds() for _ in range(PASSES)]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                passes = [pooled_kernel_seconds(pool, self.threads) for _ in range(PASSES)]
        self.points.append(float(np.median(passes)) / REFERENCE_S)
        return self.points[-1]

    @property
    def mean(self):
        return float(np.mean(self.points))

"""Time-series containers and analytic-signal operations.

Power convention throughout the package: power = mean of squared samples,
reported in "Watt" as a dimensionless bookkeeping unit.

The analytic signal is computed here on scipy.fft (hilbert below), so the
package does not import scipy.signal to load; only the Welch estimates of
paclab.spectral import it, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from .errors import (
    DegeneratePhaseError,
    EmptyResultError,
    InvalidInputError,
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real-valued time series.

    The time axis is implicit: t_k = k / fs for k = 0..N-1.
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        a = np.array(self.samples, dtype=float, copy=True)
        if a.ndim != 1 or a.size == 0:
            raise InvalidInputError("samples must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("samples must all be finite")
        fs = float(self.fs)
        if not (fs > 0 and np.isfinite(fs)):
            raise InvalidInputError("fs must be a positive finite rate")
        object.__setattr__(self, "samples", _readonly(a))
        object.__setattr__(self, "fs", fs)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.fs

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs


@dataclass(frozen=True)
class ComplexSeries:
    """Complex-valued series on the same uniform time base as Signal."""

    values: np.ndarray
    fs: float

    def __post_init__(self):
        v = np.array(self.values, dtype=complex, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("values must all be finite")
        fs = float(self.fs)
        if not (fs > 0 and np.isfinite(fs)):
            raise InvalidInputError("fs must be a positive finite rate")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "fs", fs)

    def __len__(self) -> int:
        return self.values.size


def hilbert(x: np.ndarray) -> np.ndarray:
    """Analytic signal of a real 1-d array, by the full-length DFT.

    The steps of scipy.signal.hilbert: transform, double bins
    1..ceil(N/2)-1, zero the negative-frequency bins (DC, and Nyquist for
    even N, are kept), inverse transform. So the result is bitwise
    scipy's, for odd and even N alike.
    """
    n = len(x)
    xf = fft(x, n)
    xf[1:(n + 1) // 2] *= 2.0
    xf[n // 2 + 1:] = 0.0
    return ifft(xf)


def analytic(x: Signal) -> ComplexSeries:
    """Analytic representation of a real signal.

    Computed by the full-length DFT construction: double the strictly
    positive frequency bins, zero the strictly negative ones, keep DC and
    Nyquist, inverse transform. The real part reproduces the input; the
    imaginary part is its discrete Hilbert transform. Modulus and argument
    give instantaneous amplitude and phase.
    """
    if len(x) < 4:
        raise InvalidInputError("analytic signal needs at least 4 samples")
    z = hilbert(x.samples)
    return ComplexSeries(z, x.fs)


def amplitude(z: ComplexSeries) -> Signal:
    """Instantaneous amplitude: elementwise modulus."""
    return Signal(np.abs(z.values), z.fs)


def phase(z: ComplexSeries) -> Signal:
    """Instantaneous phase in [-pi, pi).

    Raises if any sample has zero modulus (undefined argument).
    """
    mod = np.abs(z.values)
    if not np.all(mod > 0):
        raise DegeneratePhaseError("zero-modulus sample has no phase")
    p = np.angle(z.values)
    # np.angle returns (-pi, pi]; fold the single closed endpoint
    p = np.where(p == np.pi, -np.pi, p)
    return Signal(p, z.fs)


def instantaneous_frequency(z: ComplexSeries) -> Signal:
    """Instantaneous frequency in Hz from the unwrapped phase derivative.

    Central differences on interior samples, one-sided at the endpoints,
    so the output has the same length as the input.
    """
    if len(z) < 3:
        raise InvalidInputError("need at least 3 samples to differentiate")
    mod = np.abs(z.values)
    if not np.all(mod > 0):
        raise DegeneratePhaseError("zero-modulus sample has no phase")
    phi = np.unwrap(np.angle(z.values))
    f = np.gradient(phi, 1.0 / z.fs) / (2.0 * np.pi)
    return Signal(f, z.fs)


def power(x: Signal) -> float:
    """Mean squared sample value."""
    return float(np.mean(x.samples * x.samples))


def trim(x: Signal, n_edge: int) -> Signal:
    """Drop n_edge samples from each end (filter-transient removal)."""
    n_edge = int(n_edge)
    if n_edge < 0:
        raise InvalidInputError("n_edge must be nonnegative")
    if 2 * n_edge >= len(x):
        raise EmptyResultError("trim would consume the entire signal")
    if n_edge == 0:
        return x
    return Signal(x.samples[n_edge:-n_edge], x.fs)

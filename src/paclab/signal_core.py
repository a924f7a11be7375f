"""Time-series containers and analytic-signal operations.

Power convention throughout the package: power = mean of squared samples,
reported in "Watt" as a dimensionless bookkeeping unit.

The analytic signal is computed here on scipy.fft (hilbert below), as
are the filters and the Welch estimates in their modules: the package
never imports scipy.signal.

One rule (_numbers, _series, _rate) decides what paclab takes as samples
and rates, one (_real, _is_count) what it takes as settings. Before the
filter bank or a Welch estimate reads a Signal, check_amplitude bounds
its peak, so that no square formed from it overflows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from .errors import (
    DegeneratePhaseError,
    EmptyResultError,
    InvalidInputError,
)


# Bound on A² · max(N, N/fs) for a signal of N samples at fs Hz whose
# largest |sample| is A. The largest squares formed from a signal stay
# finite under it (float max is 1.8e308):
# - Welch's cross density |Pxy|², in coherence. A segment of M <= N
#   samples, mean removed (at most 2A) and tapered by w scaled by
#   c = 1/sqrt(fs·Σw²), has a DFT of modulus at most 2A·c·Σw, which is
#   2A·sqrt(M/fs) at most (Cauchy-Schwarz). So |Pxy| <= 2·|Sx|·|Sy|
#   <= 8·Ax·Ay·N/fs, and |Pxy|² <= 64·(1e150)², about 6e301. cv's
#   second signal, the modulus of a unit-gain Morlet band, peaks below A.
# - The band RMS (mca's gates, power): a sum of N squares of a band that
#   peaks at g·A is at most g²·1e150, finite for any band gain g < 1e79.
_SCALE_LIMIT = 1e150


def _numbers(values, name: str, shape: str = "one-dimensional", complex_ok=False) -> np.ndarray:
    """values as an array, uncast and, if one already, uncopied. Text,
    object, ragged and (unless complex_ok) complex input is refused, not
    cast: a cast parses text, or drops an imaginary part with a warning."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nest of sequences
        raise InvalidInputError(f"{name} must be {shape}") from None
    if a.dtype.kind not in ("biufc" if complex_ok else "biuf"):
        raise InvalidInputError(f"{name} must hold {'' if complex_ok else 'real '}numbers")
    return a


def _series(values, name: str, dtype=float) -> np.ndarray:
    """values under _numbers as a read-only copy of dtype (float or
    complex), checked to be a non-empty 1-d series of finite samples."""
    a = np.array(_numbers(values, name, complex_ok=dtype is complex), dtype=dtype)
    if a.ndim != 1 or a.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must all be finite")
    a.setflags(write=False)
    return a


def _real(value, name: str, must: str = "a finite real number", ok=None) -> float:
    """value as a float if it is one finite int or float (NumPy scalars and
    0-d arrays too) and ok, when given, holds of that float; else, for a
    bool, text, complex, None, a sequence, a non-finite or out-of-range
    value, InvalidInputError(f"{name} must be {must}"), and no warning."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nest of sequences
        a = None
    if (a is None or a.ndim != 0 or a.dtype.kind not in "iuf" or not math.isfinite(a)
            or ok is not None and not ok(float(a))):
        raise InvalidInputError(f"{name} must be {must}")
    return float(a)


def _rate(fs) -> float:
    """fs as a float: _real, and positive."""
    return _real(fs, "fs", "a positive finite rate", lambda f: f > 0)


def _instance(value, cls, name: str):
    """value if it is a cls, else InvalidInputError naming cls."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def _is_count(v) -> bool:
    """True for an integer that is not a bool: True is an Integral, but
    it counts nothing. The one rule for every count paclab takes."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real-valued time series.

    The time axis is implicit: t_k = k / fs for k = 0..N-1. samples, a
    non-empty 1-d sequence of finite bool, integer or float numbers, are
    kept as a read-only float copy; fs is a positive finite real number.
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _series(self.samples, "samples"))
        object.__setattr__(self, "fs", _rate(self.fs))

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
    """Complex-valued series on the same uniform time base and rules as Signal."""

    values: np.ndarray
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "values", _series(self.values, "values", complex))
        object.__setattr__(self, "fs", _rate(self.fs))

    def __len__(self) -> int:
        return self.values.size


def check_amplitude(a: np.ndarray, fs: float) -> None:
    """Refuse, with InvalidInputError, samples `a` at fs Hz whose largest
    |sample| A, over N samples, has A² · max(N, N/fs) above 1e150: past
    that bound the squares the measures and the Welch estimates form can
    overflow. The filter bank and the Welch estimates check every series
    they read."""
    peak = max(float(a.max()), -float(a.min()))
    n = a.size
    bound = math.sqrt(_SCALE_LIMIT / max(n, n / fs))
    if peak > bound:
        raise InvalidInputError(
            f"peak amplitude {peak:.3g} exceeds {bound:.3g}, the bound for "
            f"{n} samples at {fs:g} Hz"
        )


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
    if not (_is_count(n_edge) and n_edge >= 0):
        raise InvalidInputError("n_edge must be an integer >= 0")
    if 2 * n_edge >= len(x):
        raise EmptyResultError("trim would consume the entire signal")
    if n_edge == 0:
        return x
    return Signal(x.samples[n_edge:-n_edge], x.fs)

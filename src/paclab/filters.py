"""Narrow-band filtering: constant-bandwidth Gabor kernels, proportional
Morlet kernels, zero-phase application, the three-band triplet, and the
filter bank every coupling measure reads its bands from."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .errors import AliasingError, InvalidInputError, OutOfBandError, SignalTooShortError
from .signal_core import ComplexSeries, Signal

# Envelope extent of truncated kernels, in Gaussian standard deviations.
# 4 leaves ~7e-6 stopband ripple at 8 Hz detune for a 1 Hz band; 5 gets
# below 1e-6, which the narrow-band rejection contract requires.
DEFAULT_TRUNCATION = 5.0
MORLET_TRUNCATION = 4.0


@dataclass(frozen=True)
class FilterSpec:
    """Band-pass configuration.

    mode "constant": Gaussian-envelope cosine kernel whose -3 dB full width
    of the magnitude response is bw_hz at any center frequency.
    mode "proportional": complex Morlet kernel with a fixed cycle count, so
    bandwidth grows with the center frequency.
    """

    center: float
    bw_hz: float = 1.0
    cycles: float = 4.0
    mode: str = "constant"
    truncation: float = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not (self.center > 0):
            raise InvalidInputError("center frequency must be positive")
        if self.mode not in ("constant", "proportional"):
            raise InvalidInputError(f"unknown filter mode: {self.mode!r}")
        if self.mode == "constant" and not (self.bw_hz > 0):
            raise InvalidInputError("bw_hz must be positive")
        if self.mode == "proportional" and not (self.cycles >= 1):
            raise InvalidInputError("cycles must be at least 1")
        if not (self.truncation > 0):
            raise InvalidInputError("truncation must be positive")


@dataclass(frozen=True)
class Kernel:
    """Sampled FIR taps, symmetric support, unit gain at the center frequency."""

    taps: np.ndarray
    fs: float
    center: float

    @property
    def half_length(self) -> int:
        return (len(self.taps) - 1) // 2


def _center_gain(taps: np.ndarray, t: np.ndarray, center: float) -> complex:
    return np.sum(taps * np.exp(-2j * np.pi * center * t))


def gabor_beta(bw_hz: float) -> float:
    # -3 dB full width bw_hz: |H(f)|^2 = exp(-2 pi^2 df^2 / beta^2) = 1/2
    # at df = bw/2
    return math.pi * bw_hz / math.sqrt(2.0 * math.log(2.0))


def gabor_half_length(bw_hz: float, fs: float, truncation: float = DEFAULT_TRUNCATION) -> int:
    beta = gabor_beta(bw_hz)
    sigma_t = 1.0 / (beta * math.sqrt(2.0))
    return int(math.ceil(truncation * sigma_t * fs))


def gabor_kernel(spec: FilterSpec, fs: float) -> Kernel:
    """Real Gaussian-envelope cosine kernel with unit center-frequency gain."""
    if spec.center >= fs / 2:
        raise AliasingError(f"center {spec.center} Hz at or above Nyquist {fs / 2} Hz")
    beta = gabor_beta(spec.bw_hz)
    half = gabor_half_length(spec.bw_hz, fs, spec.truncation)
    t = np.arange(-half, half + 1) / fs
    g = np.exp(-((beta * t) ** 2)) * np.cos(2.0 * np.pi * spec.center * t)
    g = g / np.abs(_center_gain(g, t, spec.center))
    return Kernel(g, fs, spec.center)


def morlet_half_length(center: float, cycles: float, fs: float) -> int:
    sigma_t = cycles / (2.0 * math.pi * center)
    return int(math.ceil(MORLET_TRUNCATION * sigma_t * fs))


def morlet_kernel(center: float, cycles: float, fs: float) -> Kernel:
    """Complex Morlet kernel, truncated at 4 envelope standard deviations."""
    if center >= fs / 2:
        raise AliasingError(f"center {center} Hz at or above Nyquist {fs / 2} Hz")
    if not (center > 0):
        raise InvalidInputError("center frequency must be positive")
    sigma_t = cycles / (2.0 * math.pi * center)
    half = morlet_half_length(center, cycles, fs)
    t = np.arange(-half, half + 1) / fs
    w = np.exp(2j * np.pi * center * t) * np.exp(-(t * t) / (2.0 * sigma_t * sigma_t))
    w = w / np.abs(_center_gain(w, t, center))
    return Kernel(w, fs, center)


def _apply(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    half = (len(taps) - 1) // 2
    if len(taps) > len(samples):
        raise SignalTooShortError(
            f"kernel of {len(taps)} taps cannot filter {len(samples)} samples"
        )
    padded = np.pad(samples, half, mode="reflect")
    return fftconvolve(padded, taps, mode="valid")


def bandpass(x: Signal, spec: FilterSpec) -> Signal:
    """Zero-phase narrow-band filtering with reflection-padded edges.

    Same-length output; the symmetric kernel introduces no group delay.
    """
    k = gabor_kernel(spec, x.fs)
    return Signal(_apply(x.samples, k.taps), x.fs)


def morlet_bandpass(x: Signal, center: float, cycles: float = 4.0) -> ComplexSeries:
    """Complex band signal from Morlet filtering.

    The modulus is the band's amplitude envelope and the argument its
    instantaneous phase, so no separate analytic step is needed. A real
    tone splits half its amplitude into negative frequencies the complex
    kernel ignores; the factor 2 restores the analytic-part amplitude
    (a unit cosine at the center comes out with envelope 1).
    """
    k = morlet_kernel(center, cycles, x.fs)
    return ComplexSeries(2.0 * _apply(x.samples, k.taps), x.fs)


def triplet(x: Signal, m: float, n: float, bw: float = 1.0) -> Signal:
    """Sum of the three narrow bands n-m, n (doubled), n+m.

    The doubled center restores the carrier-to-sideband ratio of a unit
    amplitude-modulated tone, so the output's envelope carries the
    modulation at full depth while everything outside the three bands is
    rejected.
    """
    if not (m >= 1):
        raise OutOfBandError("modulating frequency must be at least 1 Hz")
    if n - m < 1:
        raise OutOfBandError(f"lower band {n - m} Hz falls under 1 Hz")
    if n + m >= x.fs / 2:
        raise OutOfBandError(f"upper band {n + m} Hz reaches Nyquist")
    lo = bandpass(x, FilterSpec(center=n - m, bw_hz=bw))
    mid = bandpass(x, FilterSpec(center=n, bw_hz=bw))
    hi = bandpass(x, FilterSpec(center=n + m, bw_hz=bw))
    return Signal(lo.samples + 2.0 * mid.samples + hi.samples, x.fs)


_MISSING = object()


class FilterBank:
    """Cached band outputs of one input signal.

    Keyed by (family, center, bandwidth-or-cycles). Plain dict storage:
    concurrent readers are safe, concurrent first-fill may compute a band
    twice and the identical result wins. A bank lives as long as its
    owner keeps it: compute_matrix shares one across a whole grid, a
    measure called without one uses a fresh bank for that call only.
    Values the measures derive from one band (its phase, a gate on it)
    are kept by `derived` under the same rules, apart from the bands.
    """

    def __init__(self, x: Signal):
        self.x = x
        self._cache: dict = {}
        self._derived: dict = {}

    def derived(self, key: tuple, compute):
        """compute(), worked out once per key for the bank's lifetime.

        None is a valid result and is kept like any other.
        """
        out = self._derived.get(key, _MISSING)
        if out is _MISSING:
            out = compute()
            self._derived[key] = out
        return out

    def gabor(self, center: float, bw: float) -> np.ndarray:
        key = ("gabor", float(center), float(bw))
        out = self._cache.get(key)
        if out is None:
            out = bandpass(self.x, FilterSpec(center=center, bw_hz=bw)).samples
            self._cache[key] = out
        return out

    def morlet(self, center: float, cycles: float) -> np.ndarray:
        key = ("morlet", float(center), float(cycles))
        out = self._cache.get(key)
        if out is None:
            out = morlet_bandpass(self.x, center, cycles).values
            self._cache[key] = out
        return out

    @property
    def n_filterings(self) -> int:
        return len(self._cache)

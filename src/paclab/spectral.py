"""Welch power spectral density and magnitude-squared coherence.

Both are scipy.signal's Welch estimates. scipy.signal takes about a
second to import, so welch_psd and coherence import it on first use:
only the commands that estimate a spectrum (cv, psd) pay for it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePhaseError,
    InvalidInputError,
    SignalTooShortError,
    UnreliableEstimateError,
)
from .signal_core import Signal


@dataclass(frozen=True)
class WelchSpec:
    """Segmentation settings for Welch-type estimates."""

    window_len: int = 4096
    overlap: float = 0.25
    window: str = "hann"

    def __post_init__(self):
        if self.window_len < 8:
            raise InvalidInputError("window_len must be at least 8")
        if not (0.0 <= self.overlap < 1.0):
            raise InvalidInputError("overlap must be in [0, 1)")


@dataclass(frozen=True)
class Spectrum:
    """Frequency bins with density or coherence values."""

    freqs: np.ndarray
    values: np.ndarray
    kind: str  # "psd" or "coherence"

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.shape != v.shape or f.ndim != 1:
            raise InvalidInputError("freqs and values must be matching 1-d arrays")
        if np.any(np.diff(f) <= 0):
            raise InvalidInputError("freqs must be strictly increasing")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)

    def value_at(self, freq: float) -> float:
        """Value at the bin nearest freq; exact midpoints take the lower bin."""
        idx = int(np.argmin(np.abs(self.freqs - freq)))
        return float(self.values[idx])


def _effective_segments(n: int, window_len: int, overlap: float) -> tuple[int, int]:
    win = min(window_len, n)
    hop = win - int(win * overlap)
    if hop <= 0:
        hop = 1
    segs = 1 + (n - win) // hop
    return win, segs


def welch_psd(x: Signal, spec: WelchSpec | None = None) -> Spectrum:
    """One-sided Welch density; its integral over [0, fs/2] estimates power.

    A window longer than the signal is clipped to the signal length (with a
    warning), which degrades the estimate to a single periodogram.
    """
    spec = spec or WelchSpec()
    n = len(x)
    if n < 8:
        raise SignalTooShortError("need at least 8 samples for a spectrum")
    win, _ = _effective_segments(n, spec.window_len, spec.overlap)
    if win < spec.window_len:
        warnings.warn(
            f"window of {spec.window_len} clipped to signal length {win}",
            stacklevel=2,
        )
    import scipy.signal  # on first use: see the module docstring

    freqs, psd = scipy.signal.welch(
        x.samples,
        fs=x.fs,
        window=spec.window,
        nperseg=win,
        noverlap=int(win * spec.overlap),
        detrend="constant",
        scaling="density",
    )
    return Spectrum(freqs, psd, "psd")


def coherence(x: Signal, y: Signal, spec: WelchSpec | None = None) -> Spectrum:
    """Magnitude-squared coherence per bin over a shared segmentation.

    Needs at least two averaged segments; with a single segment the
    estimator degenerates to 1 everywhere, so that case raises. A signal
    whose Welch spectrum holds no power (a constant, once each segment's
    mean is removed) has no coherence: DegeneratePhaseError.
    """
    spec = spec or WelchSpec()
    if len(x) != len(y) or x.fs != y.fs:
        raise InvalidInputError("coherence needs equal-length, equal-rate signals")
    n = len(x)
    win, segs = _effective_segments(n, spec.window_len, spec.overlap)
    if segs < 2:
        raise UnreliableEstimateError(
            f"only {segs} segment(s) of {win} samples; need at least 2"
        )
    import scipy.signal  # on first use: see the module docstring

    # scipy.signal.coherence's own steps, so that a spectrum without power
    # raises instead of dividing 0 by 0
    welch_args = dict(fs=x.fs, window=spec.window, nperseg=win,
                      noverlap=int(win * spec.overlap), detrend="constant")
    freqs, pxx = scipy.signal.welch(x.samples, **welch_args)
    _, pyy = scipy.signal.welch(y.samples, **welch_args)
    if not (pxx.any() and pyy.any()):
        raise DegeneratePhaseError("coherence needs power in both signals")
    _, pxy = scipy.signal.csd(x.samples, y.samples, **welch_args)
    coh = np.abs(pxy) ** 2 / pxx / pyy
    coh = np.clip(coh, 0.0, 1.0)
    return Spectrum(freqs, coh, "coherence")

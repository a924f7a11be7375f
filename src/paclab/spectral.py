"""Welch power spectral density and magnitude-squared coherence.

Both are scipy.signal's Welch estimates, computed on scipy.fft so that
the package never imports scipy.signal: each signal's segments are
taken at once (a strided view), each segment's mean is removed, it is
tapered by the periodic Hann window scaled to a density, and one 2-D
rfft transforms them all. Every step is the one scipy.signal.csd takes,
in its order and with its expressions, so welch_psd and coherence are
bitwise scipy.signal.welch and scipy.signal.coherence (tested against
them). coherence transforms each signal once, where scipy's coherence
transforms each twice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import rfft, rfftfreq

from .errors import (
    DegeneratePhaseError,
    InvalidInputError,
    SignalTooShortError,
    UnreliableEstimateError,
)
from .signal_core import Signal, _is_count, _numbers, _real, check_amplitude


# The taper of every Welch segment.
WINDOW = "hann"


@dataclass(frozen=True)
class WelchSpec:
    """Segmentation settings for Welch-type estimates: segments of
    window_len samples that overlap by the fraction `overlap`. Every
    segment is tapered by WINDOW."""

    window_len: int = 4096
    overlap: float = 0.25

    def __post_init__(self):
        if not (_is_count(self.window_len) and self.window_len >= 8):
            raise InvalidInputError("window_len must be an integer of at least 8")
        _real(self.overlap, "overlap", "in [0, 1)", lambda v: 0.0 <= v < 1.0)


@dataclass(frozen=True)
class Spectrum:
    """Frequency bins with density or coherence values."""

    freqs: np.ndarray
    values: np.ndarray
    kind: str  # "psd" or "coherence"

    def __post_init__(self):
        f = np.asarray(_numbers(self.freqs, "freqs"), dtype=float)
        v = np.asarray(_numbers(self.values, "values"), dtype=float)
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


def _effective_segments(n: int, window_len: int, overlap: float) -> tuple[int, int, int]:
    """Window length, hop and segment count of a Welch estimate on n
    samples; the window is clipped to n."""
    win = min(window_len, n)
    hop = win - int(win * overlap)
    return win, hop, 1 + (n - win) // hop


def _hann(m: int) -> np.ndarray:
    """Periodic Hann window of m samples, by the steps of
    scipy.signal.get_window("hann", m): the symmetric window of m + 1
    samples without its last one."""
    if m <= 1:
        return np.ones(m)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)))[:-1]


@lru_cache(maxsize=8)
def _density_window(m: int, fs: float) -> np.ndarray:
    """The Hann taper of m samples scaled to a density at fs Hz, by
    scipy's ShortTimeFFT expression. Its builtin sum loops in Python over
    the m samples, so the window is kept per (m, fs)."""
    w = _hann(m)
    w = w * (1 / np.sqrt(sum(w.real**2 + w.imag**2) / (1 / fs)))
    w.setflags(write=False)
    return w


def _stft(a: np.ndarray, fs: float, win: int, hop: int) -> np.ndarray:
    """One-sided STFT of samples `a` at fs Hz, frequency × segment and
    C-contiguous: segments of win samples every hop samples, each mean
    removed and then tapered. The copy matters: a mean over segments along
    contiguous memory sums in the order of scipy's, a mean over a
    transposed view does not. The tapered segments go before that copy,
    so the two are never held at once."""
    check_amplitude(a, fs)
    segs = sliding_window_view(a, win)[::hop]
    segs = segs - segs.mean(axis=-1, keepdims=True)
    segs *= _density_window(win, fs)
    s = rfft(segs, axis=-1)
    del segs
    return np.ascontiguousarray(s.T)


def _average(p: np.ndarray, win: int) -> np.ndarray:
    """Welch's one-sided average of per-segment spectra p (frequency ×
    segment): every bin but DC and, for even win, Nyquist counts twice."""
    p[1:-1 if win % 2 == 0 else None] *= 2
    return p.mean(axis=-1)


def welch_psd(x: Signal, spec: WelchSpec | None = None) -> Spectrum:
    """One-sided Welch density; its integral over [0, fs/2] estimates power.

    A window longer than the signal is clipped to the signal length (with a
    warning), which degrades the estimate to a single periodogram. A
    signal past check_amplitude's bound is refused: InvalidInputError.
    """
    spec = spec or WelchSpec()
    n = len(x)
    if n < 8:
        raise SignalTooShortError("need at least 8 samples for a spectrum")
    win, hop, _ = _effective_segments(n, spec.window_len, spec.overlap)
    if win < spec.window_len:
        warnings.warn(
            f"window of {spec.window_len} clipped to signal length {win}",
            stacklevel=2,
        )
    s = _stft(x.samples, x.fs, win, hop)
    psd = _average(s.real**2 + s.imag**2, win)
    return Spectrum(rfftfreq(win, 1 / x.fs), psd, "psd")


def coherence(x: Signal, y: Signal, spec: WelchSpec | None = None) -> Spectrum:
    """Magnitude-squared coherence per bin over a shared segmentation.

    Needs at least two averaged segments; with a single segment the
    estimator degenerates to 1 everywhere, so that case raises. A signal
    whose Welch spectrum holds no power (a constant, once each segment's
    mean is removed) has no coherence: DegeneratePhaseError. A signal
    past check_amplitude's bound is refused: InvalidInputError. So are
    spectra whose largest densities multiply to less than the smallest
    normal float (a huge rate or a tiny amplitude), where every |Pxy|²
    underflows and the coherence would read 0.
    """
    spec = spec or WelchSpec()
    if len(x) != len(y) or x.fs != y.fs:
        raise InvalidInputError("coherence needs equal-length, equal-rate signals")
    return _coherence(x.samples, y.samples, x.fs, spec)


def _coherence(a: np.ndarray, b: np.ndarray, fs: float, spec: WelchSpec) -> Spectrum:
    """coherence of the equal-length samples a and b at fs Hz, read in
    place: cv hands its column's trimmed views here without copying them.
    Each is refused past check_amplitude's bound as in coherence."""
    win, hop, segs = _effective_segments(a.size, spec.window_len, spec.overlap)
    if segs < 2:
        raise UnreliableEstimateError(
            f"only {segs} segment(s) of {win} samples; need at least 2"
        )
    sx = _stft(a, fs, win, hop)
    sy = _stft(b, fs, win, hop)
    # scipy.signal.coherence's own steps, so that a spectrum without power
    # raises instead of dividing 0 by 0
    pxx = _average(sx.real**2 + sx.imag**2, win)
    pyy = _average(sy.real**2 + sy.imag**2, win)
    if not (pxx.any() and pyy.any()):
        raise DegeneratePhaseError("coherence needs power in both signals")
    # |Pxy|² <= Pxx·Pyy in every bin (Cauchy-Schwarz), so below the smallest
    # normal float every |Pxy|² is subnormal or 0 and the coherence would
    # read 0 whatever the signals share; the densities scale as 1/fs, so a
    # huge rate gets here
    if pxx.max() * pyy.max() < np.finfo(float).tiny:
        raise InvalidInputError(
            "coherence underflows: the product of the two spectra's largest densities "
            f"is below {np.finfo(float).tiny:.3g}")
    # scipy.signal.csd(x, y) conjugates x's transform, not y's
    pxy = _average(sy * sx.conj(), win)
    coh = np.abs(pxy) ** 2 / pxx / pyy
    coh = np.clip(coh, 0.0, 1.0)
    return Spectrum(rfftfreq(win, 1 / fs), coh, "coherence")

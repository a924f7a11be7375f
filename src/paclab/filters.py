"""Narrow-band filtering: constant-bandwidth Gabor kernels, proportional
Morlet kernels, zero-phase application, the three-band triplet, and the
filter bank every coupling measure reads its bands from.

A kernel is applied by FFT convolution of the reflection-padded signal
on scipy.fft: rfft/irfft for the real Gabor taps, fft/ifft for the
complex Morlet taps, at the transform lengths and slices of
scipy.signal.fftconvolve(..., "valid"), so the public functions give
bitwise what fftconvolve gives; like the rest of the package, this
module does not import scipy.signal. A kernel's length is checked
against the signal before any tap is built. The padded signal's rfft
depends on the kernel's length alone, so the filter bank takes it once
per Gabor kernel length and shares it across its bands. A bank fills a
Morlet band the same way when the signal is long next to the 1 Hz
Morlet kernel (_spectrum_taps): from one rfft of the signal padded for
that kernel, with two transforms per band where morlet_bandpass runs
three. Such a band is the same convolution at a wider padding and a
longer transform, so it differs from morlet_bandpass's by rounding only,
about 1e-15 of its maximum; on a shorter signal a bank's Morlet band is
bitwise morlet_bandpass's. A bank refuses a signal past
signal_core.check_amplitude's bound before it fills any band."""

from __future__ import annotations

import math
import numbers
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft

from .errors import AliasingError, InvalidInputError, OutOfBandError, SignalTooShortError
from .signal_core import ComplexSeries, Signal, _real, check_amplitude

# Envelope extent of every Gabor kernel, in Gaussian standard deviations.
# 4 leaves ~7e-6 stopband ripple at 8 Hz detune for a 1 Hz band; 5 gets
# below 1e-6, which the narrow-band rejection contract requires.
DEFAULT_TRUNCATION = 5.0
MORLET_TRUNCATION = 4.0


@dataclass(frozen=True)
class FilterSpec:
    """Gabor band-pass configuration: a Gaussian-envelope cosine kernel
    whose magnitude response has -3 dB full width bw_hz at any center,
    cut at DEFAULT_TRUNCATION standard deviations of its envelope.
    Morlet bands take a cycle count instead, in morlet_bandpass."""

    center: float
    bw_hz: float = 1.0

    def __post_init__(self):
        _real(self.center, "center", "positive and finite", lambda v: v > 0)
        # an infinite beta times the kernel's t = 0 makes a NaN tap
        _real(self.bw_hz, "bw_hz", "positive, with a finite Gabor kernel",
              lambda v: v > 0 and math.isfinite(gabor_beta(v)))


def _center_gain(taps: np.ndarray, t: np.ndarray, center: float) -> complex:
    return np.sum(taps * np.exp(-2j * np.pi * center * t))


def gabor_beta(bw_hz: float) -> float:
    # -3 dB full width bw_hz: |H(f)|^2 = exp(-2 pi^2 df^2 / beta^2) = 1/2
    # at df = bw/2
    return math.pi * bw_hz / math.sqrt(2.0 * math.log(2.0))


def _half_length(extent: float) -> int:
    """ceil(extent), the half-length in samples of a kernel reaching
    `extent` samples from its centre. No signal is long enough for an
    infinite (or NaN) extent, which would also overflow the ceil."""
    if not math.isfinite(extent):
        raise SignalTooShortError(f"a kernel reaching {extent} samples fits no signal")
    return int(math.ceil(extent))


def _check_nyquist(center: float, fs: float) -> None:
    if center >= fs / 2:
        raise AliasingError(f"center {center} Hz at or above Nyquist {fs / 2} Hz")


def gabor_half_length(bw_hz: float, fs: float) -> int:
    beta = gabor_beta(bw_hz)
    sigma_t = 1.0 / (beta * math.sqrt(2.0))
    return _half_length(DEFAULT_TRUNCATION * sigma_t * fs)


def _gabor_half(spec: FilterSpec, fs: float, n_samples: int | None) -> int:
    """Half-length of spec's Gabor kernel at fs, after gabor_kernel's check
    of the centre against Nyquist and then, given n_samples, a check that
    the kernel fits that many samples: a caller filtering a signal calls
    this before any tap is built."""
    _check_nyquist(spec.center, fs)
    half = gabor_half_length(spec.bw_hz, fs)
    if n_samples is not None:
        _check_fits(n_samples, 2 * half + 1)
    return half


def gabor_kernel(spec: FilterSpec, fs: float) -> np.ndarray:
    """Taps of the real Gaussian-envelope cosine kernel: symmetric
    support, unit center-frequency gain."""
    half = _gabor_half(spec, fs, None)
    beta = gabor_beta(spec.bw_hz)
    t = np.arange(-half, half + 1) / fs
    # a huge bandwidth overflows the square off centre, and exp(-inf) is
    # the correct 0 tap there: the taps come out [0, 1, 0]
    with np.errstate(over="ignore"):
        g = np.exp(-((beta * t) ** 2)) * np.cos(2.0 * np.pi * spec.center * t)
    return g / np.abs(_center_gain(g, t, spec.center))


def morlet_half_length(center: float, cycles: float, fs: float) -> int:
    sigma_t = cycles / (2.0 * math.pi * center)
    return _half_length(MORLET_TRUNCATION * sigma_t * fs)


def _morlet_half(center: float, cycles: float, fs: float, n_samples: int | None) -> int:
    """Half-length of the Morlet kernel, after morlet_kernel's checks of
    the centre and the cycle count and then, given n_samples, a check
    that the kernel fits that many samples, as _gabor_half."""
    _real(center, "center", "positive and finite", lambda v: v > 0)
    _check_nyquist(center, fs)
    # inf passes, to be refused as a kernel that fits no signal; a count so
    # small that morlet_kernel's variance underflows would make a NaN tap
    if not (isinstance(cycles, numbers.Real) and cycles == math.inf):
        _real(cycles, "cycles")
    sigma_t = cycles / (2.0 * math.pi * center)
    if not (cycles > 0 and 2.0 * sigma_t * sigma_t > 0):
        raise InvalidInputError(f"cycles of {cycles} has no finite Morlet kernel")
    half = morlet_half_length(center, cycles, fs)
    if n_samples is not None:
        _check_fits(n_samples, 2 * half + 1)
    return half


def morlet_kernel(center: float, cycles: float, fs: float) -> np.ndarray:
    """Taps of the complex Morlet kernel, truncated at 4 envelope
    standard deviations, with unit center-frequency gain."""
    half = _morlet_half(center, cycles, fs, None)
    sigma_t = cycles / (2.0 * math.pi * center)
    t = np.arange(-half, half + 1) / fs
    # as in gabor_kernel: a tiny variance overflows to exp(-inf), the 0 tap
    with np.errstate(over="ignore"):
        w = np.exp(2j * np.pi * center * t) * np.exp(-(t * t) / (2.0 * sigma_t * sigma_t))
    return w / np.abs(_center_gain(w, t, center))


def _check_fits(n_samples: int, n_taps: int) -> None:
    if n_taps > n_samples:
        raise SignalTooShortError(f"kernel of {n_taps} taps cannot filter {n_samples} samples")


def conv_size(n_samples: int, n_taps: int) -> int:
    """Transform length fftconvolve uses to filter n_samples reflection-padded
    by half an n_taps kernel on each side."""
    return next_fast_len(n_samples + 2 * (n_taps - 1), True)


class ReflectedSpectrum:
    """rfft of a real series reflection-padded for an n_taps kernel, at
    fftconvolve's transform length `nfft`.

    filter(rfft(taps, nfft)) is bit for bit fftconvolve(padded, taps,
    "valid"), which scipy computes as irfft(rfft(padded) * rfft(taps))
    and a centred slice, so one spectrum serves every kernel of that length.
    """

    def __init__(self, samples: np.ndarray, n_taps: int):
        _check_fits(len(samples), n_taps)
        self.n_samples = len(samples)
        self.n_taps = n_taps
        self.nfft = conv_size(self.n_samples, n_taps)
        padded = np.pad(samples, (n_taps - 1) // 2, mode="reflect")
        self.values = rfft(padded, self.nfft)

    def filter(self, kernel_spectrum: np.ndarray) -> np.ndarray:
        full = irfft(self.values * kernel_spectrum, self.nfft)
        return full[self.n_taps - 1:self.n_taps - 1 + self.n_samples]


def _kernel_spectrum(spec: FilterSpec, fs: float, nfft: int) -> np.ndarray:
    """rfft at nfft of spec's Gabor kernel: what ReflectedSpectrum.filter takes."""
    return rfft(gabor_kernel(spec, fs), nfft)


def _gabor_band(padded: ReflectedSpectrum, spec: FilterSpec, fs: float) -> Signal:
    """The Gabor band of the series whose spectrum for spec's kernel is `padded`."""
    return Signal(padded.filter(_kernel_spectrum(spec, fs, padded.nfft)), fs)


def _morlet_band(padded: ReflectedSpectrum, center: float, cycles: float, fs: float) -> np.ndarray:
    """The Morlet band at center (doubled, as morlet_bandpass's) of the
    series whose padded spectrum is `padded`, for a kernel no longer than
    padded.n_taps: fftconvolve's complex path from two transforms, the
    taps' and the inverse. The padded series is real, so its full
    spectrum is the rfft half `padded` keeps and that half's conjugate
    mirror; the product is formed in the taps' spectrum and inverted in
    place."""
    taps = morlet_kernel(center, cycles, fs)
    nfft, half = padded.nfft, padded.values
    product = fft(taps, nfft)
    k = len(half)
    product[:k] *= half
    product[k:] *= half[nfft - k:0:-1].conj()
    full = ifft(product, overwrite_x=True)
    # sample i of the series is sample i + (n_taps - 1) // 2 of the padded
    # one, and the kernel's centre tap lies (len(taps) - 1) // 2 further on
    start = (padded.n_taps - 1) // 2 + (len(taps) - 1) // 2
    return 2.0 * full[start:start + padded.n_samples]


def _spectrum_taps(n_samples: int, cycles: float, fs: float) -> int | None:
    """Taps of the 1 Hz Morlet kernel of `cycles` cycles at fs when a
    bank fills Morlet bands of an n_samples signal from the signal's
    padded spectrum for that kernel, else None.

    1 Hz is the lowest centre a grid asks for, so that kernel is the
    widest of a matrix; a wider one, at a centre below 1 Hz, is filled
    by morlet_bandpass. With h1 its half-length, a band from the shared
    spectrum costs two complex transforms of about N + 4·h1 samples, and
    morlet_bandpass three of about N: they break even at N = 8·h1, so
    the spectrum is shared from N > 8·h1 on.
    """
    h1 = morlet_half_length(1.0, cycles, fs)
    return 2 * h1 + 1 if n_samples > 8 * h1 else None


def bandpass(x: Signal, spec: FilterSpec) -> Signal:
    """Zero-phase narrow-band filtering with reflection-padded edges.

    Same-length output; the symmetric kernel introduces no group delay.
    """
    n_taps = 2 * _gabor_half(spec, x.fs, len(x)) + 1  # refuses a kernel longer than x
    return _gabor_band(ReflectedSpectrum(x.samples, n_taps), spec, x.fs)


def morlet_bandpass(x: Signal, center: float, cycles: float = 4.0) -> ComplexSeries:
    """Complex band signal from Morlet filtering.

    The modulus is the band's amplitude envelope and the argument its
    instantaneous phase, so no separate analytic step is needed. A real
    tone splits half its amplitude into negative frequencies the complex
    kernel ignores; the factor 2 restores the analytic-part amplitude
    (a unit cosine at the center comes out with envelope 1).
    """
    _morlet_half(center, cycles, x.fs, len(x))  # as in bandpass
    taps = morlet_kernel(center, cycles, x.fs)
    # fftconvolve's complex path: fft/ifft at its complex-friendly
    # length, sliced like ReflectedSpectrum.filter
    n_samples, n_taps = len(x), len(taps)
    nfft = next_fast_len(n_samples + 2 * (n_taps - 1), False)
    padded = np.pad(x.samples, (n_taps - 1) // 2, mode="reflect")
    full = ifft(fft(padded, nfft) * fft(taps, nfft))
    return ComplexSeries(2.0 * full[n_taps - 1:n_taps - 1 + n_samples], x.fs)


def triplet(x: Signal, m: float, n: float, bw: float = 1.0) -> Signal:
    """Sum of the three narrow bands n-m, n (doubled), n+m.

    The doubled center restores the carrier-to-sideband ratio of a unit
    amplitude-modulated tone, so the output's envelope carries the
    modulation at full depth while everything outside the three bands is
    rejected.
    """
    _real(m, "m")
    _real(n, "n")
    _check_triplet(m, n, x.fs)
    return Signal(FilterBank(x).triplet(m, n, bw), x.fs)


def _check_triplet(m: float, n: float, fs: float) -> None:
    """OutOfBandError unless m >= 1 and the bands n-m, n+m lie in [1 Hz, Nyquist)."""
    if not (m >= 1):
        raise OutOfBandError("modulating frequency must be at least 1 Hz")
    if n - m < 1:
        raise OutOfBandError(f"lower band {n - m} Hz falls under 1 Hz")
    if n + m >= fs / 2:
        raise OutOfBandError(f"upper band {n + m} Hz reaches Nyquist")


_MISSING = object()


class _Memo:
    """Values by key, each computed once even when threads ask at once.

    A missed key is computed under that key's own lock, so later threads
    asking for it wait for it instead of computing it again. A compute
    that raises stores nothing, and the next waiter computes it instead.
    compute() may ask the memo for other keys, never for its own.
    `n_computed` counts the computes that returned, values dropped since
    included.
    """

    def __init__(self):
        self.values: dict = {}
        self.n_computed = 0
        self._locks: dict = {}  # key -> the lock its computes run under
        self._lock = threading.Lock()

    def get(self, key, compute):
        out = self.values.get(key, _MISSING)
        if out is not _MISSING:
            return out
        with self._lock:
            key_lock = self._locks.setdefault(key, threading.Lock())
        with key_lock:
            out = self.values.get(key, _MISSING)
            if out is _MISSING:
                out = compute()
                with self._lock:
                    self.values[key] = out
                    self.n_computed += 1
        return out

    def drop(self, key) -> None:
        """Forget key's value, if any; a later get computes it again."""
        with self._lock:
            self.values.pop(key, None)


def _gabor_key(center: float, bw: float) -> tuple:
    """FilterBank's key of the Gabor band at center with -3 dB width bw."""
    return ("gabor", float(center), float(bw))


def _morlet_key(center: float, cycles: float) -> tuple:
    """FilterBank's key of the Morlet band at center of `cycles` cycles."""
    return ("morlet", float(center), float(cycles))


class FilterBank:
    """Cached band outputs of one input signal.

    Keyed by _gabor_key or _morlet_key. Each band is filtered once: when
    concurrent columns miss the same band, one thread fills it and the
    others wait for its result. A bank lives as long as its owner keeps
    it: compute_matrix shares one across a whole grid, a measure called
    without one uses a fresh bank, planned for its one cell, for that
    call only.
    Every Gabor band is filled from one ReflectedSpectrum of the signal
    per kernel length, taken on the first fill of that length, and so is
    every Morlet band of a kernel no wider than the 1 Hz one on a signal
    of more than 8 of its half-lengths (_spectrum_taps), from the one
    spectrum for that kernel; other Morlet bands are filled by
    morlet_bandpass. A planned bank drops the Morlet spectrum after the
    last Morlet fill its plan names.
    A measure that needs only a compact form of a band (a slow band's
    phasor or phase-bin index, a band's power) keeps it through `reduce`,
    which lets the band go; `derived` keeps other values (a band's
    trimmed RMS, a kernel spectrum). Both live as long as the bank.

    A bank holds a band while planned reads of it are left. Without a
    plan that is the bank's lifetime. Given a read plan (`plan`), a band
    has one read for each column that reads it directly, over when that
    column is done (`done`), and one read by its reduction or by a single
    reader that releases it (`release`), over once reduced or released;
    it is dropped when its last read is over, and a band the plan does not
    name goes once reduced or released. No band is filled twice.
    `n_filterings` counts fills, kept or not.
    """

    def __init__(self, x: Signal):
        check_amplitude(x.samples, x.fs)
        self.x = x
        self._cache = _Memo()
        self._derived = _Memo()
        self._lock = threading.Lock()
        self._reads = None  # column -> the bands it reads directly, until done
        self._left = Counter()  # band key -> its planned reads not over yet
        self._unfilled = None  # the planned Morlet bands not filled yet

    def plan(self, reads: dict, once) -> None:
        """Read plan of a sweep: reads[column] holds the bands that column
        reads directly, and `once` the bands read one time: through
        `reduce`, or by the one reader that releases the band."""
        with self._lock:
            self._reads = {column: set(keys) for column, keys in reads.items()}
            self._left = Counter(key for keys in self._reads.values() for key in keys)
            self._left.update(set(once))
            self._unfilled = {key for key in self._left if key[0] == "morlet"}

    def done(self, column: int) -> None:
        """The planned column has returned: its direct reads are over."""
        with self._lock:
            for key in self._reads.pop(column):
                self._read_over(key)

    def _read_over(self, band_key: tuple) -> None:
        """One read of the band is over; drop it if none is left. Called
        under self._lock."""
        self._left[band_key] -= 1
        if self._left[band_key] <= 0:
            del self._left[band_key]
            self._cache.drop(band_key)

    def derived(self, key: tuple, compute):
        """compute(), worked out once per key for the bank's lifetime.

        None is a valid result and is kept like any other.
        """
        return self._derived.get(key, compute)

    def release(self, band_key: tuple) -> None:
        """One planned read of the band under band_key is over, outside
        `done`: a reduction's, or that of the one reader of a band the
        plan names among those read once. A bank without a plan keeps
        the band."""
        with self._lock:
            if self._reads is not None:
                self._read_over(band_key)

    def reduce(self, key: tuple, band_key: tuple, fn):
        """fn(band) of the band under band_key (a _gabor_key or a
        _morlet_key), worked out once and kept in `derived` under key.
        Each reduction is one read of the band, released once fn returns.
        fn returns a form of the band, never the band itself."""
        def compute():
            out = fn(self._band(band_key))
            self.release(band_key)
            return out

        return self.derived(key, compute)

    def _band(self, band_key: tuple) -> np.ndarray:
        """The band under a _gabor_key or a _morlet_key; KeyError for
        any other key."""
        kind, *args = band_key
        return {"gabor": self.gabor, "morlet": self.morlet}[kind](*args)

    def _signal_spectrum(self, n_taps: int) -> ReflectedSpectrum:
        """The signal's ReflectedSpectrum for kernels of n_taps, kept in
        `derived`."""
        return self.derived(("signal_spectrum", n_taps),
                            lambda: ReflectedSpectrum(self.x.samples, n_taps))

    def gabor(self, center: float, bw: float) -> np.ndarray:
        spec = FilterSpec(center=center, bw_hz=bw)  # checked before the key is made

        def fill():
            n_taps = 2 * _gabor_half(spec, self.x.fs, len(self.x)) + 1
            return _gabor_band(self._signal_spectrum(n_taps), spec, self.x.fs).samples

        return self._cache.get(_gabor_key(center, bw), fill)

    def gabor_power(self, center: float, bw: float, tr: int) -> float:
        """Mean square of the Gabor band at center without tr samples at
        each edge: a reduction of that band."""
        key = ("gabor_power", float(center), float(bw), int(tr))
        return self.reduce(key, _gabor_key(center, bw),
                           lambda band: float(np.mean(np.square(band[tr:band.size - tr]))))

    def triplet(self, m: float, n: float, bw: float) -> np.ndarray:
        """lo + 2·mid + hi of the Gabor bands at n-m, n and n+m, unchecked."""
        return self.gabor(n - m, bw) + 2.0 * self.gabor(n, bw) + self.gabor(n + m, bw)

    def morlet(self, center: float, cycles: float) -> np.ndarray:
        # checked before the key is made
        half = _morlet_half(center, cycles, self.x.fs, len(self.x))
        key = _morlet_key(center, cycles)

        def fill():
            x = self.x
            n_taps = _spectrum_taps(len(x), cycles, x.fs)
            if n_taps is None or 2 * half + 1 > n_taps:
                band = morlet_bandpass(x, center, cycles).values
            else:
                band = _morlet_band(self._signal_spectrum(n_taps), center, cycles, x.fs)
            with self._lock:
                if self._unfilled is not None:
                    self._unfilled.discard(key)
                    if not self._unfilled:
                        self._derived.drop(("signal_spectrum", n_taps))
            return band

        return self._cache.get(key, fill)

    def gabor_spectrum(self, center: float, bw: float, nfft: int) -> np.ndarray:
        """rfft at nfft of the Gabor kernel at center, kept in `derived`:
        the kernel spectrum ReflectedSpectrum.filter takes."""
        return self.derived(
            ("gabor_spectrum", float(center), float(bw), int(nfft)),
            lambda: _kernel_spectrum(FilterSpec(center=center, bw_hz=bw), self.x.fs, nfft))

    @property
    def n_filterings(self) -> int:
        """Bands filled so far, including those read only for their power."""
        return self._cache.n_computed

    @property
    def nbytes(self) -> int:
        """Bytes of every array the bank holds now, each counted once: the
        bands, the array values `derived` and `reduce` keep and the arrays
        inside their tuples, and each ReflectedSpectrum's values."""
        arrays = {}
        for value in [*self._cache.values.values(), *self._derived.values.values()]:
            if isinstance(value, ReflectedSpectrum):
                value = value.values
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    arrays[id(a)] = a.nbytes
        return sum(arrays.values())

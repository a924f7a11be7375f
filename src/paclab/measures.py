"""Phase-amplitude coupling measures.

Five estimators share this module: the narrowband-triplet measure
(mca_pac) and four reference measures (eps, mvl, cv, kld), plus the
phase-locking value and phase-binning support they build on.

Each measure is written once, per n column: _<name>_cells(x, n, cfg,
bands) is the measure on the column at n as a function of m. Work that
depends on n alone is done once per column; mca keeps the work that
depends on m alone in the filter bank for as long as the bank lives.
_<name>_column scores a column for compute_matrix, where a cell with
nothing to score is 0; the public per-cell function evaluates one cell
and raises instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import hilbert

from . import filters
from .errors import (
    DegenerateDistributionError,
    DegeneratePhaseError,
    InvalidInputError,
    OutOfBandError,
    SignalTooShortError,
)
from .filters import FilterBank, FilterSpec, gabor_half_length, morlet_half_length
from .signal_core import Signal
from .spectral import WelchSpec, coherence

# Degeneracy thresholds, relative to the reference level of each check.
# A filtered band whose energy sits at the kernel's stopband floor carries
# no phase information worth scoring. The envelope floor must sit above the
# truncated kernel's DC leakage (about 1.4e-7 of a constant input) so that
# a flat envelope counts as having no m-component at all.
ENVELOPE_FLOOR_REL = 1e-6
SLOW_BAND_FLOOR_REL = 1e-6
TRIPLET_FLOOR_REL = 1e-6

# Sideband legs whose RMS ratio falls below this are one-sided: the cell's
# envelope beat rides a single sideband, which double-counts intersections
# with harmonics of the true modulation. Such cells keep half credit.
BALANCE_RATIO = 1.0 / 3.0
BALANCE_PENALTY = 0.5

# Errors that mean "this cell has nothing to score", not "the run is
# broken": a column scores such cells 0.
_ZERO_CELL_ERRORS = (OutOfBandError, DegeneratePhaseError, DegenerateDistributionError)


@dataclass(frozen=True)
class MeasureConfig:
    """Shared knobs for all coupling measures."""

    mca_bw: float = 1.0
    morlet_cycles: float = 4.0
    kld_bins: int = 50
    edge_trim: Optional[int] = None  # None: largest kernel half-length in use; 0: no trim
    welch: WelchSpec = WelchSpec()

    def __post_init__(self):
        if not (self.mca_bw > 0):
            raise InvalidInputError("mca_bw must be positive")
        if not (self.morlet_cycles >= 1):
            raise InvalidInputError("morlet_cycles must be at least 1")
        if self.kld_bins < 2:
            raise InvalidInputError("kld_bins must be at least 2")
        tr = self.edge_trim
        if tr is not None and (not isinstance(tr, numbers.Integral) or tr < 0):
            raise InvalidInputError("edge_trim must be an integer >= 0 (or None)")

    def as_dict(self) -> dict:
        """Flat settings, as recorded in matrix meta and manifests."""
        return {
            "mca_bw": self.mca_bw,
            "morlet_cycles": self.morlet_cycles,
            "kld_bins": self.kld_bins,
            "edge_trim": self.edge_trim,
            "welch_window": self.welch.window_len,
            "welch_overlap": self.welch.overlap,
        }


@dataclass(frozen=True)
class PhaseAmplitudeDistribution:
    """Mean amplitude per phase bin, normalized to unit total."""

    bin_means: np.ndarray
    bin_counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.bin_means)

    @property
    def bin_centers(self) -> np.ndarray:
        edges = np.linspace(-np.pi, np.pi, self.n_bins + 1)
        return 0.5 * (edges[:-1] + edges[1:])


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(a * a)))


def _as_array(series, name: str) -> np.ndarray:
    if isinstance(series, Signal):
        return series.samples
    a = np.asarray(series, dtype=float)
    if a.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional")
    return a


def _check_trim(n_total: int, tr: int) -> None:
    if n_total - 2 * tr < 8:
        raise SignalTooShortError(
            f"signal of {n_total} samples leaves nothing after trimming {tr} per edge"
        )


def _trimmed(a: np.ndarray, tr: int) -> np.ndarray:
    """View of `a` without `tr` samples at each edge; tr == 0 keeps all."""
    return a[tr:a.size - tr]


def plv(phase_u, phase_v) -> float:
    """Phase-locking value: modulus of the mean unit phasor of the
    phase difference. 1 means perfect locking, 0 none."""
    u = _as_array(phase_u, "phase_u")
    v = _as_array(phase_v, "phase_v")
    if u.size != v.size or u.size == 0:
        raise InvalidInputError("phase series must have equal nonzero length")
    return float(np.abs(np.mean(np.exp(1j * (u - v)))))


def envelope_phase(env: Signal, m: float, bw: float = 1.0) -> Signal:
    """Phase of an amplitude envelope's component at m Hz.

    A strictly positive envelope is DC-dominated, so its raw analytic
    phase is meaningless; band-passing at the modulation frequency first
    isolates the oscillation whose phase matters. Raises when the envelope
    has no usable m Hz content.
    """
    filtered = filters.bandpass(env, FilterSpec(center=m, bw_hz=bw))
    ref = _rms(env.samples)
    if _rms(filtered.samples) <= ENVELOPE_FLOOR_REL * max(ref, 1e-300):
        raise DegeneratePhaseError(f"envelope has no component at {m} Hz")
    z = hilbert(filtered.samples)
    p = np.angle(z)
    p = np.where(p == np.pi, -np.pi, p)
    return Signal(p, env.fs)


def _scored(cell, m_values) -> np.ndarray:
    """cell(m) for each m of a column; a cell with nothing to score is 0."""
    out = np.zeros(len(m_values))
    for j, m in enumerate(m_values):
        try:
            out[j] = cell(m)
        except _ZERO_CELL_ERRORS:
            pass
    return out


def mca_pac(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None,
            bands=None) -> float:
    """Narrowband-triplet coupling strength of the (m, n) cell.

    The triplet of 1 Hz bands at n-m, n (doubled), n+m reconstructs the
    amplitude modulation of an n Hz carrier while rejecting wideband
    noise; the phase of that envelope's m Hz component is then compared
    against the phase of the slow band at m by PLV.

    The raw PLV saturates at any cell whose bands catch scaled copies of
    the same spectral lines, so three scale-invariant weights sharpen it:

    * capture: RMS ratio of the n band at nominal vs doubled bandwidth.
      Detuned centers lose narrowband energy twice as fast, so only a
      carrier actually centered on n scores full weight.
    * slow-band credibility: nested-band noise estimate at m. With narrow
      power p1 and doubled-bandwidth power p2, signal 2*p1 - p2 and noise
      p2 - p1 give an in-band SNR; cells whose slow band is mostly noise
      (or pure stopband floor) are suppressed or zeroed.
    * balance: a cell whose envelope beat rides one sideband leg only
      (the other near-empty) is an intersection artifact, not symmetric
      amplitude modulation; it keeps half credit.

    Degenerate cells score 0: empty slow band, empty carrier band, both
    sideband bands empty, or an envelope without an m component.
    """
    return _mca_cells(x, n, cfg, bands)(m)


def _mca_column(x: Signal, n: float, m_values, cfg: MeasureConfig, bands) -> np.ndarray:
    return _scored(_mca_cells(x, n, cfg, bands), m_values)


def _slow_weight(bank, m: float, bw: float, tr: int, x_ref: float):
    """Slow-band credibility of mca_pac at m, or None when the band is
    empty or all noise (the cell scores 0)."""
    xm_t = _trimmed(bank.gabor(m, bw), tr)
    if _rms(xm_t) <= SLOW_BAND_FLOOR_REL * x_ref:
        return None
    p1 = float(np.mean(xm_t * xm_t))
    p2 = float(np.mean(_trimmed(bank.gabor(m, 2.0 * bw), tr) ** 2))
    s_est = 2.0 * p1 - p2
    if s_est <= 0.0:
        return None
    n_est = p2 - p1
    if n_est <= 0.0 or s_est >= n_est:
        return 1.0
    ratio = s_est / n_est
    return ratio / (1.0 + ratio)


def _mca_cells(x: Signal, n: float, cfg: MeasureConfig | None, bands):
    """mca_pac of the column at n, as a function of m.

    The slow-band weight and the slow band's phase depend on m alone, so
    they are kept in the bank for the whole matrix, the phase only once a
    cell of that m needs it. Each cell keeps its own triplet envelope.
    """
    cfg = cfg or MeasureConfig()
    bank = bands if bands is not None else FilterBank(x)
    fs = x.fs
    bw = cfg.mca_bw
    tr = cfg.edge_trim if cfg.edge_trim is not None else gabor_half_length(bw, fs)
    x_ref = _rms(x.samples)

    def cell(m):
        if not (m >= 1) or n - m < 1 or n + m >= fs / 2:
            raise OutOfBandError(f"triplet bands for ({m}, {n}) Hz leave the valid range")
        _check_trim(len(x), tr)
        slow_weight = bank.derived(("mca_slow_weight", float(m), float(bw), tr, x_ref),
                                   lambda: _slow_weight(bank, m, bw, tr, x_ref))
        if slow_weight is None:
            return 0.0

        lo = bank.gabor(n - m, bw)
        mid = bank.gabor(n, bw)
        hi = bank.gabor(n + m, bw)
        r_lo = _rms(_trimmed(lo, tr))
        r_mid = _rms(_trimmed(mid, tr))
        r_hi = _rms(_trimmed(hi, tr))
        # coupling needs a carrier at n and at least one sideband; a cell
        # holding only filter-tail residue of distant lines would otherwise
        # score on numerically coherent envelope ripple
        if r_mid <= TRIPLET_FLOOR_REL * x_ref:
            return 0.0
        if max(r_lo, r_hi) <= TRIPLET_FLOOR_REL * x_ref:
            return 0.0
        trip = lo + 2.0 * mid + hi

        env = np.abs(hilbert(trip))
        try:
            ph_env = envelope_phase(Signal(env, fs), m, bw)
        except DegeneratePhaseError:
            return 0.0
        ph_slow = bank.derived(("mca_slow_phase", float(m), float(bw)),
                               lambda: np.angle(hilbert(bank.gabor(m, bw))))
        value = plv(_trimmed(ph_slow, tr), _trimmed(ph_env.samples, tr))

        mid_wide = bank.gabor(n, 2.0 * bw)
        r_wide = _rms(_trimmed(mid_wide, tr))
        capture = 1.0 if r_wide == 0.0 else min(1.0, r_mid / r_wide)

        big = max(r_lo, r_hi)
        balance = 1.0 if (big == 0.0 or min(r_lo, r_hi) > big * BALANCE_RATIO) else BALANCE_PENALTY

        return value * capture * slow_weight * balance

    return cell


def _check_band(m: float, n: float, fs: float) -> None:
    if not (m >= 1):
        raise OutOfBandError("modulating frequency must be at least 1 Hz")
    if n >= fs / 2:
        raise OutOfBandError(f"modulated frequency {n} Hz reaches Nyquist")


def _morlet_inputs(x: Signal, n: float, cfg: MeasureConfig | None, bands,
                   slow: bool = True, envelope_filter: bool = False):
    """Config and per-cell inputs of one Morlet-measure column at n.

    Returns cfg and inputs(m) -> (complex band at m, None unless `slow`;
    |zn|, worked out once per column; per-edge trim). The default trim is
    the widest kernel in use, counting the envelope band-pass when
    `envelope_filter`.
    """
    cfg = cfg or MeasureConfig()
    bank = bands if bands is not None else FilterBank(x)
    cycles = cfg.morlet_cycles
    amp_n = None

    def inputs(m):
        nonlocal amp_n
        _check_band(m, n, x.fs)
        zm = bank.morlet(m, cycles) if slow else None
        if amp_n is None:
            amp_n = np.abs(bank.morlet(n, cycles))
        tr = cfg.edge_trim
        if tr is None:
            tr = morlet_half_length(n, cycles, x.fs)
            if slow:
                tr = max(tr, morlet_half_length(m, cycles, x.fs))
            if envelope_filter:
                tr = max(tr, gabor_half_length(cfg.mca_bw, x.fs))
        _check_trim(len(x), tr)
        return zm, amp_n, tr

    return cfg, inputs


def eps(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None,
        bands=None) -> float:
    """Envelope phase synchronization with proportional-bandwidth filters.

    PLV between the slow band's phase and the phase of the fast band's
    envelope, both bands from Morlet filtering. Degenerate envelopes
    score 0.
    """
    return _eps_cells(x, n, cfg, bands)(m)


def _eps_column(x: Signal, n: float, m_values, cfg: MeasureConfig, bands) -> np.ndarray:
    return _scored(_eps_cells(x, n, cfg, bands), m_values)


def _eps_cells(x: Signal, n: float, cfg: MeasureConfig | None, bands):
    cfg, inputs = _morlet_inputs(x, n, cfg, bands, envelope_filter=True)

    def cell(m):
        zm, amp_n, tr = inputs(m)
        try:
            ph_env = envelope_phase(Signal(amp_n, x.fs), m, cfg.mca_bw)
        except DegeneratePhaseError:
            return 0.0
        return plv(_trimmed(np.angle(zm), tr), _trimmed(ph_env.samples, tr))

    return cell


def vector_length(phase, amp) -> float:
    """Modulus of the amplitude-weighted mean phasor |mean(a*e^{i*phase})|."""
    ph = _as_array(phase, "phase")
    a = _as_array(amp, "amp")
    if len(ph) != len(a):
        raise InvalidInputError("phase and amp lengths differ")
    return float(np.abs(np.mean(a * np.exp(1j * ph))))


def mvl(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None,
        bands=None) -> float:
    """Mean vector length: amplitude-weighted mean phasor of the slow phase."""
    return _mvl_cells(x, n, cfg, bands)(m)


def _mvl_column(x: Signal, n: float, m_values, cfg: MeasureConfig, bands) -> np.ndarray:
    return _scored(_mvl_cells(x, n, cfg, bands), m_values)


def _mvl_cells(x: Signal, n: float, cfg: MeasureConfig | None, bands):
    _, inputs = _morlet_inputs(x, n, cfg, bands)

    def cell(m):
        zm, amp_n, tr = inputs(m)
        return vector_length(_trimmed(np.angle(zm), tr), _trimmed(amp_n, tr))

    return cell


def cv(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None,
       bands=None) -> float:
    """Coherence between the raw signal and the fast band's envelope,
    read at the bin nearest the modulating frequency."""
    return _cv_cells(x, n, cfg, bands)(m)


def _cv_column(x: Signal, n: float, m_values, cfg: MeasureConfig, bands) -> np.ndarray:
    return _scored(_cv_cells(x, n, cfg, bands), m_values)


def _cv_cells(x: Signal, n: float, cfg: MeasureConfig | None, bands):
    # without a slow band the trim depends on n alone, so one coherence
    # spectrum serves the whole column
    cfg, inputs = _morlet_inputs(x, n, cfg, bands, slow=False)
    spectrum = None

    def cell(m):
        nonlocal spectrum
        _, amp_n, tr = inputs(m)
        if spectrum is None:
            raw = Signal(_trimmed(x.samples, tr), x.fs)
            env = Signal(_trimmed(amp_n, tr), x.fs)
            spectrum = coherence(raw, env, cfg.welch)
        return spectrum.value_at(m)

    return cell


def bin_amplitude_by_phase(phase, amp, n_bins: int) -> PhaseAmplitudeDistribution:
    """Mean amplitude in each of n_bins equal phase bins over [-pi, pi).

    Bin means are normalized to sum to one; empty bins contribute zero and
    are visible through bin_counts.
    """
    ph = _as_array(phase, "phase")
    a = _as_array(amp, "amp")
    if ph.size != a.size or ph.size == 0:
        raise InvalidInputError("phase and amp must have equal nonzero length")
    if int(n_bins) < 2:
        raise InvalidInputError("need at least 2 bins")
    if np.any(a < 0):
        raise InvalidInputError("amplitudes must be nonnegative")
    n_bins = int(n_bins)
    idx = np.floor((ph + np.pi) / (2.0 * np.pi) * n_bins).astype(int)
    idx = np.clip(idx, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=a, minlength=n_bins)
    means = np.zeros(n_bins)
    nonempty = counts > 0
    means[nonempty] = sums[nonempty] / counts[nonempty]
    total = means.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("no amplitude mass to distribute")
    return PhaseAmplitudeDistribution(means / total, counts)


def kld_from_distribution(dist: PhaseAmplitudeDistribution) -> float:
    """Normalized entropy deficit of a phase-amplitude distribution."""
    p = dist.bin_means
    nz = p > 0
    h = -float(np.sum(p[nz] * np.log(p[nz])))
    value = 1.0 - h / math.log(dist.n_bins)
    value = min(1.0, max(0.0, value))
    # a uniform distribution must score exactly zero, not summation dust
    if value < 1e-12:
        value = 0.0
    return value


def kld(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None,
        bands=None) -> float:
    """Entropy-based coupling: deviation of the amplitude-by-phase
    distribution from uniformity, normalized to [0, 1]."""
    return _kld_cells(x, n, cfg, bands)(m)


def _kld_column(x: Signal, n: float, m_values, cfg: MeasureConfig, bands) -> np.ndarray:
    return _scored(_kld_cells(x, n, cfg, bands), m_values)


def _kld_cells(x: Signal, n: float, cfg: MeasureConfig | None, bands):
    cfg, inputs = _morlet_inputs(x, n, cfg, bands)

    def cell(m):
        zm, amp_n, tr = inputs(m)
        dist = bin_amplitude_by_phase(_trimmed(np.angle(zm), tr), _trimmed(amp_n, tr),
                                      cfg.kld_bins)
        return kld_from_distribution(dist)

    return cell

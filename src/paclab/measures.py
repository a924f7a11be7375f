"""Phase-amplitude coupling measures.

Five estimators share this module: the narrowband-triplet measure
(mca_pac) and four reference measures (eps, mvl, cv, kld), plus the
phase-locking value and phase-binning support they build on.

Each measure is written once, as a cell factory: _<name>_cells(x, n,
cfg, bank) does the column's n-only work at once (the Morlet fill at n
and |z_n|, eps's padded envelope spectrum, cv's coherence) and returns
the measure on the column at n as a function of m, which raises an error
of that work where it reads the value. Next to the factories, a reads
function (_mca_reads, _morlet_reads for eps, mvl and kld, _cv_reads)
names the filter-bank bands a column reads directly and those it reads
only to reduce, from which compute_matrix plans how long the bank holds
each band. Work that depends on m alone is kept in the filter bank for
as long as the bank lives: each measure reduces its slow band at m,
through FilterBank.reduce, to one form, mca's slow-band weight and unit
phasor, eps's unit phasor z_m/|z_m|, mvl's unit phasor and kld's
phase-bin index (with its bin counts per trim). No reduction returns a
band, and no cell reads a slow band, only its form. mca and eps score
the PLV through one kernel, |mean(slow * conj(z_env/|z_env|))|, with no
angle and no complex exp.
compute_matrix builds each column's factory once and scores each cell
from it, a cell with nothing to score as 0; the public per-cell function
evaluates one cell on a one-cell bank, planned by the same reads
function, through _cell and raises instead. The public helpers plv,
vector_length and bin_amplitude_by_phase check their arguments, finite
samples included; the last two run the same private kernels as the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateDistributionError,
    DegeneratePhaseError,
    InvalidInputError,
    OutOfBandError,
    SignalTooShortError,
)
from .filters import (
    FilterBank,
    FilterSpec,
    ReflectedSpectrum,
    _check_triplet,
    _gabor_half,
    _gabor_key,
    _morlet_key,
    gabor_beta,
    gabor_half_length,
    morlet_half_length,
)
from .signal_core import Signal, _instance, _is_count, _real, _series, hilbert
from .spectral import WelchSpec
# cv's coherence on arrays, read in place; named coherence here, where the
# benchmark's traced run wraps it (perfbench/spans.py)
from .spectral import _coherence as coherence

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

# Most phase bins kld accepts. Each bin costs a slot in every per-m count
# array the bank keeps; past the samples of any realistic recording
# almost every bin is empty, and an unbounded count would size those
# arrays from unchecked input.
MAX_KLD_BINS = 100_000


@dataclass(frozen=True)
class MeasureConfig:
    """Shared knobs for all coupling measures."""

    mca_bw: float = 1.0
    morlet_cycles: float = 4.0
    kld_bins: int = 50
    edge_trim: Optional[int] = None  # None: largest kernel half-length in use; 0: no trim
    welch: WelchSpec = WelchSpec()

    def __post_init__(self):
        # mca's capture weight reads a band twice as wide, which must be
        # a valid FilterSpec too
        _real(self.mca_bw, "mca_bw", "positive, with a finite Gabor kernel at twice its width",
              lambda v: v > 0 and math.isfinite(gabor_beta(2.0 * v)))
        _real(self.morlet_cycles, "morlet_cycles", "finite and at least 1", lambda v: v >= 1)
        if not (_is_count(self.kld_bins) and 2 <= self.kld_bins <= MAX_KLD_BINS):
            raise InvalidInputError(f"kld_bins must be an integer in [2, {MAX_KLD_BINS}]")
        if self.edge_trim is not None and not (_is_count(self.edge_trim) and self.edge_trim >= 0):
            raise InvalidInputError("edge_trim must be an integer >= 0 (or None)")
        _instance(self.welch, WelchSpec, "welch")

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
    """A Signal's samples, or series under signal_core's rule for a series:
    the one argument check of plv, vector_length and bin_amplitude_by_phase."""
    return series.samples if isinstance(series, Signal) else _series(series, name)


def _trim(cfg: MeasureConfig, x: Signal, morlet=(), gabor=()) -> int:
    """Samples a cell trims at each edge of x: cfg.edge_trim, or else the
    half-length of the widest kernel it reads, the Morlet kernels at the
    centers `morlet` and the Gabor kernels of the widths `gabor`;
    SignalTooShortError when fewer than 8 samples are left."""
    tr = cfg.edge_trim
    if tr is None:
        tr = max([morlet_half_length(c, cfg.morlet_cycles, x.fs) for c in morlet]
                 + [gabor_half_length(bw, x.fs) for bw in gabor])
    if len(x) - 2 * tr < 8:
        raise SignalTooShortError(
            f"signal of {len(x)} samples leaves nothing after trimming {tr} per edge")
    return tr


def _trimmed(a: np.ndarray, tr: int) -> np.ndarray:
    """View of `a` without `tr` samples at each edge; tr == 0 keeps all."""
    return a[tr:a.size - tr]


def plv(phase_u, phase_v) -> float:
    """Phase-locking value: modulus of the mean unit phasor of the
    phase difference. 1 means perfect locking, 0 none."""
    u = _as_array(phase_u, "phase_u")
    v = _as_array(phase_v, "phase_v")
    if u.size != v.size:
        raise InvalidInputError("phase series must have equal length")
    return float(np.abs(np.mean(np.exp(1j * (u - v)))))


class _Envelope:
    """An amplitude envelope prepared for band-passing at width bw at many m.

    `samples` share the rate of the bank's signal. The reflection-padded
    envelope's spectrum is taken once, for the Gabor kernels of width bw,
    and each kernel's spectrum comes from the bank, so a band-pass is one
    product and one irfft, bit for bit filters.bandpass. The reference RMS
    of the envelope is worked out once.
    """

    def __init__(self, samples: np.ndarray, bank: FilterBank, bw: float):
        self.bank = bank
        self.bw = bw
        self.ref = _rms(samples)
        self.padded = ReflectedSpectrum(samples, 2 * gabor_half_length(bw, bank.x.fs) + 1)

    def analytic(self, m: float) -> np.ndarray:
        """Analytic signal of the envelope's band at m Hz; DegeneratePhaseError
        when that band sits at the kernel's floor."""
        filtered = self.padded.filter(self.bank.gabor_spectrum(m, self.bw, self.padded.nfft))
        if _rms(filtered) <= ENVELOPE_FLOOR_REL * max(self.ref, 1e-300):
            raise DegeneratePhaseError(f"envelope has no component at {m} Hz")
        return hilbert(filtered)


def envelope_phase(env: Signal, m: float, bw: float = 1.0) -> Signal:
    """Phase of an amplitude envelope's component at m Hz.

    A strictly positive envelope is DC-dominated, so its raw analytic
    phase is meaningless; band-passing at the modulation frequency first
    isolates the oscillation whose phase matters. Raises when the envelope
    has no usable m Hz content.
    """
    bank = FilterBank(env)
    _gabor_half(FilterSpec(center=m, bw_hz=bw), env.fs, len(env))  # bandpass's checks
    p = np.angle(_Envelope(env.samples, bank, bw).analytic(m))
    p = np.where(p == np.pi, -np.pi, p)
    return Signal(p, env.fs)


def _phase_locking(slow: np.ndarray, z_env: np.ndarray) -> float:
    """|mean(slow * conj(_unit(z_env)))| for unit phasors `slow`:
    plv(angle(slow), angle(z_env)) to rounding."""
    env = _unit(z_env)
    np.conjugate(env, out=env)
    np.multiply(slow, env, out=env)
    return float(np.abs(np.mean(env)))


def _cell(cells, reads, x: Signal, m: float, n: float, cfg: MeasureConfig | None) -> float:
    """One cell of a measure, on a one-cell bank; raises where a column
    would score 0."""
    _instance(x, Signal, "x")
    _real(m, "m")
    _real(n, "n")
    cfg = MeasureConfig() if cfg is None else _instance(cfg, MeasureConfig, "cfg")
    return cells(x, n, cfg, _cell_bank(x, reads, m, n, cfg))(m)


def _cell_bank(x: Signal, reads, m: float, n: float, cfg: MeasureConfig) -> FilterBank:
    """A fresh bank planned for the one cell (m, n) by the measure's reads
    function: a band read only to be reduced goes once reduced."""
    bank = FilterBank(x)
    _plan(bank, reads, [(0, n, [m])], cfg)
    return bank


def _plan(bank: FilterBank, reads, columns, cfg: MeasureConfig) -> None:
    """Give the bank the read plan of columns (i, n, m_values): the bands
    each column i reads directly, and the bands read only to be reduced."""
    direct, reduced = {}, set()
    for i, n, ms in columns:
        direct[i], to_reduce = reads(n, ms, cfg)
        reduced.update(to_reduce)
    bank.plan(direct, reduced)


def _once(compute):
    """compute() at once, as a function that returns its value, or raises
    its error, on every call. A column's n-only work goes through one of
    these, so building the column's cells never raises: each cell raises
    any error of the work where it reads the value, as if it did the work."""
    try:
        value, error = compute(), None
    except Exception as e:
        value, error = None, e

    def get():
        if error is not None:
            raise error
        return value

    return get


def mca_pac(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None) -> float:
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
    return _cell(_mca_cells, _mca_reads, x, m, n, cfg)


def _slow_band(xm, bank, m: float, bw: float, tr: int, x_ref: float):
    """(weight, unit phasor) of mca_pac's slow band xm at m, the weight its
    credibility: (None, None) when the band is empty or all noise (the cell
    scores 0), so the phasor is worked out only for a band that can score."""
    xm_t = _trimmed(xm, tr)
    if _rms(xm_t) <= SLOW_BAND_FLOOR_REL * x_ref:
        return None, None
    p1 = float(np.mean(xm_t * xm_t))
    p2 = bank.gabor_power(m, 2.0 * bw, tr)
    s_est = 2.0 * p1 - p2
    if s_est <= 0.0:
        return None, None
    n_est = p2 - p1
    if n_est <= 0.0 or s_est >= n_est:
        weight = 1.0
    else:
        ratio = s_est / n_est
        weight = ratio / (1.0 + ratio)
    return weight, _unit(hilbert(xm))


def _band_rms(bank, center: float, bw: float, tr: int) -> float:
    """Trimmed RMS of the Gabor band at center, kept in the bank."""
    return bank.derived(("band_rms", float(center), float(bw), tr),
                        lambda: _rms(_trimmed(bank.gabor(center, bw), tr)))


def _mca_cells(x: Signal, n: float, cfg: MeasureConfig, bank: FilterBank):
    """mca_pac of the column at n, as a function of m.

    The triplet is checked and summed by filters.triplet's rule. The
    slow-band weight and unit phasor depend on m alone, so they are kept
    in the bank for the whole matrix as one reduction of the slow band;
    so are each band's trimmed RMS and each envelope kernel's spectrum.
    The 2·bw bands behind the slow-band weight and the capture are read
    only for their trimmed power, which the bank keeps in place of the
    band. Each cell keeps its own triplet envelope.
    """
    bw = cfg.mca_bw
    x_ref = _rms(x.samples)

    def cell(m):
        _check_triplet(m, n, x.fs)
        tr = _trim(cfg, x, gabor=(bw,))
        slow_weight, slow = bank.reduce(
            ("mca_slow", float(m), float(bw), tr, x_ref), _gabor_key(m, bw),
            lambda xm: _slow_band(xm, bank, m, bw, tr, x_ref))
        if slow_weight is None:
            return 0.0

        r_lo = _band_rms(bank, n - m, bw, tr)
        r_mid = _band_rms(bank, n, bw, tr)
        r_hi = _band_rms(bank, n + m, bw, tr)
        # coupling needs a carrier at n and at least one sideband; a cell
        # holding only filter-tail residue of distant lines would otherwise
        # score on numerically coherent envelope ripple
        if r_mid <= TRIPLET_FLOOR_REL * x_ref:
            return 0.0
        if max(r_lo, r_hi) <= TRIPLET_FLOOR_REL * x_ref:
            return 0.0
        env = np.abs(hilbert(bank.triplet(m, n, bw)))
        try:
            z_env = _Envelope(env, bank, bw).analytic(m)
        except DegeneratePhaseError:
            return 0.0
        value = _phase_locking(_trimmed(slow, tr), _trimmed(z_env, tr))

        r_wide = math.sqrt(bank.gabor_power(n, 2.0 * bw, tr))
        capture = 1.0 if r_wide == 0.0 else min(1.0, r_mid / r_wide)

        big = max(r_lo, r_hi)
        balance = 1.0 if (big == 0.0 or min(r_lo, r_hi) > big * BALANCE_RATIO) else BALANCE_PENALTY

        return value * capture * slow_weight * balance

    return cell


def _mca_reads(n: float, m_values, cfg: MeasureConfig):
    """Bank bands the mca column at n reads: (those read directly, the
    triplet bands of its cells; those read only to be reduced, the slow
    bands at its m)."""
    bw = cfg.mca_bw
    triplets = [_gabor_key(c, bw) for m in m_values for c in (n - m, n, n + m)]
    return triplets, [_gabor_key(m, bw) for m in m_values]


def _check_band(m: float, n: float, fs: float) -> None:
    if not (m >= 1):
        raise OutOfBandError("modulating frequency must be at least 1 Hz")
    if n >= fs / 2:
        raise OutOfBandError(f"modulated frequency {n} Hz reaches Nyquist")


def _morlet_inputs(x: Signal, n: float, cfg: MeasureConfig, bank: FilterBank, slow: tuple):
    """Per-cell inputs of one Morlet-measure column at n.

    Returns (amp, inputs): amp() -> |zn|, worked out at once; inputs(m)
    -> (slow form at m, |zn|). `slow` is (key, fn): the Morlet band at m
    is reduced to fn(band), kept in the bank under key + (m,), once per m.
    """
    cycles = cfg.morlet_cycles
    amp = _once(lambda: np.abs(bank.morlet(n, cycles)))

    def inputs(m):
        _check_band(m, n, x.fs)
        form = bank.reduce(slow[0] + (float(m),), _morlet_key(m, cycles), slow[1])
        return form, amp()

    return amp, inputs


def _morlet_reads(n: float, m_values, cfg: MeasureConfig):
    """Bank bands an eps, mvl or kld column at n reads: (those read
    directly, the Morlet band at n; those read only to be reduced, the
    Morlet bands at its m)."""
    cycles = cfg.morlet_cycles
    return [_morlet_key(n, cycles)], [_morlet_key(m, cycles) for m in m_values]


def eps(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None) -> float:
    """Envelope phase synchronization with proportional-bandwidth filters.

    PLV between the slow band's phase and the phase of the fast band's
    envelope, both bands from Morlet filtering. Degenerate envelopes
    score 0.
    """
    return _cell(_eps_cells, _morlet_reads, x, m, n, cfg)


def _eps_cells(x: Signal, n: float, cfg: MeasureConfig, bank: FilterBank):
    # |zn| depends on n alone, so its padded spectrum, taken with |zn|,
    # serves every cell of the column; the bank keeps the envelope
    # kernels' spectra and the slow phasors z_m/|z_m|
    slow = (("eps_phasor", float(cfg.morlet_cycles)), _unit)
    amp, inputs = _morlet_inputs(x, n, cfg, bank, slow)
    envelope = _once(lambda: _Envelope(amp(), bank, cfg.mca_bw))

    def cell(m):
        phasor, _ = inputs(m)
        tr = _trim(cfg, x, morlet=(n, m), gabor=(cfg.mca_bw,))
        try:
            z_env = envelope().analytic(m)
        except DegeneratePhaseError:
            return 0.0
        return _phase_locking(_trimmed(phasor, tr), _trimmed(z_env, tr))

    return cell


def _unit(z: np.ndarray) -> np.ndarray:
    """z/|z| as a new array, and 1 where |z| == 0: the phasor of angle(0)
    == 0, so a zero sample is a phase like any other, not a NaN."""
    r = np.abs(z)
    zero = r == 0
    r[zero] = 1.0
    # each part over the real modulus, one rounding each: a complex
    # division by r as a complex number would round twice
    u = np.empty_like(z)
    np.divide(z.real, r, out=u.real)
    np.divide(z.imag, r, out=u.imag)
    u[zero] = 1.0
    return u


def _unit_phasor(z: np.ndarray) -> np.ndarray:
    """exp(1j * angle(z)), the slow band's form mvl reads."""
    return np.exp(1j * np.angle(z))


def _vector_length(phasor: np.ndarray, amp: np.ndarray) -> float:
    return float(np.abs(np.mean(amp * phasor)))


def vector_length(phase, amp) -> float:
    """Modulus of the amplitude-weighted mean phasor |mean(a*e^{i*phase})|."""
    ph = _as_array(phase, "phase")
    a = _as_array(amp, "amp")
    if len(ph) != len(a):
        raise InvalidInputError("phase and amp lengths differ")
    return _vector_length(np.exp(1j * ph), a)


def mvl(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None) -> float:
    """Mean vector length: amplitude-weighted mean phasor of the slow phase."""
    return _cell(_mvl_cells, _morlet_reads, x, m, n, cfg)


def _mvl_cells(x: Signal, n: float, cfg: MeasureConfig, bank: FilterBank):
    slow = (("mvl_phasor", float(cfg.morlet_cycles)), _unit_phasor)
    _, inputs = _morlet_inputs(x, n, cfg, bank, slow)

    def cell(m):
        phasor, amp_n = inputs(m)
        tr = _trim(cfg, x, morlet=(n, m))
        return _vector_length(_trimmed(phasor, tr), _trimmed(amp_n, tr))

    return cell


def cv(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None) -> float:
    """Coherence between the raw signal and the fast band's envelope,
    read at the bin nearest the modulating frequency. A flat signal or
    envelope has no coherence to read: DegeneratePhaseError. Spectra so
    small that the cross-spectrum underflows are refused:
    InvalidInputError, which a matrix raises too."""
    return _cell(_cv_cells, _cv_reads, x, m, n, cfg)


def _cv_cells(x: Signal, n: float, cfg: MeasureConfig, bank: FilterBank):
    # without a slow band the trim depends on n alone, so the whole column
    # is n-only work: one coherence spectrum (or its error) serves every
    # cell. The trimmed signal and |zn| go to it as views, not Signals
    def column():
        amp_n = np.abs(bank.morlet(n, cfg.morlet_cycles))
        tr = _trim(cfg, x, morlet=(n,))
        return coherence(_trimmed(x.samples, tr), _trimmed(amp_n, tr), x.fs, cfg.welch)

    spectrum = _once(column)

    def cell(m):
        _check_band(m, n, x.fs)
        return spectrum().value_at(m)

    return cell


def _cv_reads(n: float, m_values, cfg: MeasureConfig):
    """Bank bands the cv column at n reads, all of them directly: the
    Morlet band at n."""
    return [_morlet_key(n, cfg.morlet_cycles)], ()


def bin_amplitude_by_phase(phase, amp, n_bins: int) -> PhaseAmplitudeDistribution:
    """Mean amplitude in each of n_bins equal phase bins over [-pi, pi).

    Bin means are normalized to sum to one; empty bins contribute zero and
    are visible through bin_counts. A non-finite phase or amplitude has no
    bin: InvalidInputError.
    """
    ph = _as_array(phase, "phase")
    a = _as_array(amp, "amp")
    if ph.size != a.size:
        raise InvalidInputError("phase and amp must have equal length")
    if not (_is_count(n_bins) and 2 <= n_bins <= MAX_KLD_BINS):
        raise InvalidInputError(f"n_bins must be an integer in [2, {MAX_KLD_BINS}]")
    if np.any(a < 0):
        raise InvalidInputError("amplitudes must be nonnegative")
    n_bins = int(n_bins)
    idx = _phase_bins(ph, n_bins)
    return _distribution(idx, np.bincount(idx, minlength=n_bins), a, n_bins)


def _phase_bins(phase: np.ndarray, n_bins: int) -> np.ndarray:
    """Index of each phase's bin among n_bins over [-pi, pi), clipped to
    the range."""
    idx = np.floor((phase + np.pi) / (2.0 * np.pi) * n_bins).astype(int)
    return np.clip(idx, 0, n_bins - 1)


def _distribution(idx: np.ndarray, counts: np.ndarray, amp: np.ndarray,
                  n_bins: int) -> PhaseAmplitudeDistribution:
    """Phase-amplitude distribution of amp over bin indices idx, whose
    per-bin counts are `counts`."""
    sums = np.bincount(idx, weights=amp, minlength=n_bins)
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


def kld(x: Signal, m: float, n: float, cfg: MeasureConfig | None = None) -> float:
    """Entropy-based coupling: deviation of the amplitude-by-phase
    distribution from uniformity, normalized to [0, 1]."""
    return _cell(_kld_cells, _morlet_reads, x, m, n, cfg)


def _kld_cells(x: Signal, n: float, cfg: MeasureConfig, bank: FilterBank):
    cycles = float(cfg.morlet_cycles)
    n_bins = int(cfg.kld_bins)
    # bin indices are kept in the narrowest unsigned type that holds them
    slow = (("kld_bins", cycles, n_bins),
            lambda zm: _phase_bins(np.angle(zm), n_bins).astype(np.min_scalar_type(n_bins - 1)))
    _, inputs = _morlet_inputs(x, n, cfg, bank, slow)

    def cell(m):
        idx, amp_n = inputs(m)
        tr = _trim(cfg, x, morlet=(n, m))
        idx = _trimmed(idx, tr)
        counts = bank.derived(("kld_counts", float(m), cycles, n_bins, tr),
                              lambda: np.bincount(idx, minlength=n_bins))
        return kld_from_distribution(_distribution(idx, counts, _trimmed(amp_n, tr), n_bins))

    return cell

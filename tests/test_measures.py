"""Coupling measures: phase locking, phase binning, and the five estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, hilbert

from paclab import (
    AliasingError,
    DegenerateDistributionError,
    DegeneratePhaseError,
    FilterBank,
    FilterSpec,
    GridSpec,
    InvalidInputError,
    MeasureConfig,
    OutOfBandError,
    Signal,
    SignalTooShortError,
    WelchSpec,
    bin_amplitude_by_phase,
    benchmark_spec,
    compute_matrix,
    cv,
    envelope_phase,
    eps,
    kld,
    kld_from_distribution,
    mca_pac,
    morlet_bandpass,
    mvl,
    pink_noise,
    plv,
    synth_pac,
    vector_length,
)
import paclab.spectral
from paclab.filters import bandpass, gabor_half_length, gabor_kernel, morlet_half_length, triplet
from paclab.measures import (
    _ZERO_CELL_ERRORS,
    ENVELOPE_FLOOR_REL,
    MAX_KLD_BINS,
    _Envelope,
)
from paclab.signal_core import check_amplitude

FS = 1000.0
PAIR = (8, 45)


def coupled_signal(ami=0.25, seed=None, noise=0.0, dur=10.0):
    spec = benchmark_spec(PAIR, seed=seed)
    spec = type(spec)(
        m=spec.m, n=spec.n, ami=ami, duration=dur, fs=spec.fs,
        noise_power=noise, clean_scale=spec.clean_scale, seed=seed,
    )
    return synth_pac(spec).composite


# samples that are not real numbers; a cast to float would drop the
# imaginary part with a warning, or parse the text
NON_REAL = [
    pytest.param(np.array([1 + 1j, 2.0]), id="complex"),
    pytest.param(np.array([1.0, 2.0 + 0j]), id="complex-real-valued"),
    pytest.param(["a", "b"], id="text"),
    pytest.param(["1", "2"], id="numeral-text"),
    pytest.param(np.array([1.0, 2.0], dtype=object), id="object"),
]


class TestPlv:
    def test_identical_phases_lock_perfectly(self):
        p = np.random.default_rng(0).uniform(-np.pi, np.pi, 5000)
        assert plv(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_constant_offset_still_locks(self):
        p = np.random.default_rng(1).uniform(-np.pi, np.pi, 5000)
        assert plv(p, p + 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_independent_phases_near_zero(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(-np.pi, np.pi, 8000)
        v = rng.uniform(-np.pi, np.pi, 8000)
        # resultant of N random unit steps has expected length ~ sqrt(pi/4N)
        assert plv(u, v) < 0.03

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidInputError):
            plv(np.zeros(5), np.zeros(6))
        with pytest.raises(InvalidInputError):
            plv(np.zeros(0), np.zeros(0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_without_warning(self, bad):
        with pytest.raises(InvalidInputError, match="phase_u"):
            plv([bad, 1.0], [0.0, 1.0])
        with pytest.raises(InvalidInputError, match="phase_v"):
            plv([0.0, 1.0], [1.0, bad])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", NON_REAL)
    def test_non_real_rejected_without_warning(self, bad):
        with pytest.raises(InvalidInputError, match="phase_u must hold real numbers"):
            plv(bad, [0.0, 1.0])
        with pytest.raises(InvalidInputError, match="phase_v must hold real numbers"):
            plv([0.0, 1.0], bad)

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInputError, match="phase_u must be one-dimensional"):
            plv([[0.0, 1.0], [2.0]], [0.0, 1.0])

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.normal(size=500)
            v = rng.normal(size=500)
            assert 0.0 <= plv(u, v) <= 1.0


# plain lists, integer and bool arrays: real numbers the helpers cast to float
REAL_INPUTS = [
    pytest.param(lambda a: a.tolist(), id="list"),
    pytest.param(lambda a: a.astype(np.int64), id="int"),
    pytest.param(lambda a: a.astype(bool), id="bool"),
]


@pytest.mark.parametrize("given", REAL_INPUTS)
def test_helpers_cast_lists_int_and_bool_arrays(given):
    phase = given(np.array([-3, -1, 0, 1, 2, 3, 2, 0]))
    amp = given(np.array([1, 0, 2, 1, 3, 1, 4, 2]))
    phase_f, amp_f = np.array(phase, dtype=float), np.array(amp, dtype=float)
    assert plv(phase, amp) == plv(phase_f, amp_f)
    assert vector_length(phase, amp) == vector_length(phase_f, amp_f)
    dist = bin_amplitude_by_phase(phase, amp, 4)
    want = bin_amplitude_by_phase(phase_f, amp_f, 4)
    assert np.array_equal(dist.bin_means, want.bin_means)
    assert np.array_equal(dist.bin_counts, want.bin_counts)


class TestEnvelopePhase:
    def test_tracks_modulation_phase(self):
        t = np.arange(10000) / FS
        mod = np.sin(2 * np.pi * 8 * t)
        env = Signal(1.0 + 0.25 * mod, FS)
        ph = envelope_phase(env, 8.0)
        ref = np.angle(hilbert(mod))
        assert plv(ph.samples[1500:-1500], ref[1500:-1500]) > 0.99

    def test_constant_envelope_is_degenerate(self):
        with pytest.raises(DegeneratePhaseError):
            envelope_phase(Signal(np.full(10000, 2.0), FS), 8.0)

    def test_kernel_longer_than_envelope_raises_after_aliasing(self):
        env = Signal(np.full(1000, 2.0), FS)
        for bw in (1e-6, 5e-324):
            with pytest.raises(SignalTooShortError):
                envelope_phase(env, 8.0, bw)
            with pytest.raises(AliasingError):
                envelope_phase(env, 500.0, bw)

    def test_selects_requested_component(self):
        t = np.arange(10000) / FS
        a = np.sin(2 * np.pi * 8 * t)
        b = np.sin(2 * np.pi * 20 * t)
        env = Signal(1.0 + 0.25 * a + 0.25 * b, FS)
        ph = envelope_phase(env, 8.0)
        ref_a = np.angle(hilbert(a))[1500:-1500]
        ref_b = np.angle(hilbert(b))[1500:-1500]
        got = ph.samples[1500:-1500]
        assert plv(got, ref_a) > 0.95
        assert plv(got, ref_b) < 0.3


def reference_analytic_envelope(env, m, bw):
    """The analytic envelope band written with fftconvolve on the
    reflection-padded envelope: the band-pass every cached spectrum must
    reproduce bit for bit."""
    taps = gabor_kernel(FilterSpec(center=m, bw_hz=bw), env.fs)
    half = (len(taps) - 1) // 2
    filtered = fftconvolve(np.pad(env.samples, half, mode="reflect"), taps, mode="valid")
    ref = np.sqrt(np.mean(env.samples**2))
    if np.sqrt(np.mean(filtered**2)) <= ENVELOPE_FLOOR_REL * max(ref, 1e-300):
        raise DegeneratePhaseError(f"envelope has no component at {m} Hz")
    return hilbert(filtered)


def reference_envelope_phase(env, m, bw):
    """envelope_phase from reference_analytic_envelope."""
    p = np.angle(reference_analytic_envelope(env, m, bw))
    return np.where(p == np.pi, -np.pi, p)


def phase_or_error(fn, *args):
    try:
        return fn(*args)
    except DegeneratePhaseError:
        return "degenerate"


class TestEnvelopeFromSpectra:
    @settings(max_examples=30, deadline=None)
    @given(extra=st.integers(1, 17000),
           m=st.floats(1.0, 0.45 * FS, exclude_max=True),
           bw=st.sampled_from([0.5, 1.0, 2.0]),
           depth=st.sampled_from([0.0, 0.3]),
           noise=st.sampled_from([0.0, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_fftconvolve_envelope_phase(self, extra, m, bw, depth, noise, seed):
        n = 2 * gabor_half_length(bw, FS) + 1 + extra
        t = np.arange(n) / FS
        wave = np.sin(2 * np.pi * m * t)
        env = Signal(2.0 + depth * wave + noise * np.random.default_rng(seed).random(n), FS)
        want = phase_or_error(reference_envelope_phase, env, m, bw)
        got = phase_or_error(lambda: envelope_phase(env, m, bw).samples)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        # one prepared envelope, several kernels, a kernel spectrum reused:
        # the analytic band the measures read
        prepared = _Envelope(env.samples, FilterBank(env), bw)
        for center in (m, 1.0, m):
            want = phase_or_error(reference_analytic_envelope, env, center, bw)
            got = phase_or_error(prepared.analytic, center)
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_envelope_shorter_than_kernel(self):
        n_taps = 2 * gabor_half_length(1.0, FS) + 1
        env = Signal(1.0 + np.random.default_rng(0).random(n_taps - 1), FS)
        with pytest.raises(SignalTooShortError):
            envelope_phase(env, 8.0)
        with pytest.raises(SignalTooShortError):
            _Envelope(env.samples, FilterBank(env), 1.0)

    def test_center_at_nyquist_is_aliasing(self):
        env = Signal(np.full(3000, 2.0), FS)
        with pytest.raises(AliasingError):
            envelope_phase(env, FS / 2)

    def test_bank_keeps_one_kernel_spectrum_per_center(self, monkeypatch):
        import paclab.filters

        built = []
        real = paclab.filters.gabor_kernel

        def counting(spec, fs):
            built.append(spec.center)
            return real(spec, fs)

        monkeypatch.setattr(paclab.filters, "gabor_kernel", counting)
        x = coupled_signal(seed=0, noise=6250.0)
        # n = 1 has no cell with m < n; n = 2..12 hold 65 cells over m = 1..10
        compute_matrix(x, "eps", GridSpec(1, 10, 1, 12))
        assert sorted(built) == list(range(1, 11))
        built.clear()
        compute_matrix(x, "eps", GridSpec(1, 10, 1, 12), jobs=2)
        assert sorted(built) == list(range(1, 11))


# the function each Morlet measure's per-m slow-band form is computed by
SLOW_FORMS = {"mvl": "_unit_phasor", "kld": "_phase_bins"}


class TestSlowBandForms:
    @pytest.mark.parametrize("jobs", [None, 2])
    @pytest.mark.parametrize("method", sorted(SLOW_FORMS))
    def test_each_form_is_computed_once_per_m(self, monkeypatch, method, jobs):
        import paclab.measures

        name = SLOW_FORMS[method]
        real = getattr(paclab.measures, name)
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(paclab.measures, name, counting)
        x = coupled_signal(seed=0, noise=6250.0)
        # 65 cells over m = 1..10 (n = 1 has none with m < n)
        compute_matrix(x, method, GridSpec(1, 10, 1, 12), jobs=jobs)
        assert len(calls) == 10

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_eps_slow_phasor_is_computed_once_per_m(self, monkeypatch, jobs):
        # _unit makes eps's slow phasor, in the bank's reduction of the
        # slow band, and each cell's envelope phasor, inside
        # _phase_locking; no cell makes a slow phasor of its own
        import threading

        import paclab.measures

        real_unit = paclab.measures._unit
        real_locking = paclab.measures._phase_locking
        inside = threading.local()
        slow, envelope = [], []

        def unit(z):
            (envelope if getattr(inside, "locking", False) else slow).append(len(z))
            return real_unit(z)

        def locking(*args):
            inside.locking = True
            try:
                return real_locking(*args)
            finally:
                inside.locking = False

        monkeypatch.setattr(paclab.measures, "_unit", unit)
        monkeypatch.setattr(paclab.measures, "_phase_locking", locking)
        x = coupled_signal(seed=0, noise=6250.0)
        # 65 cells over m = 1..10 (n = 1 has none with m < n)
        compute_matrix(x, "eps", GridSpec(1, 10, 1, 12), jobs=jobs)
        # one phasor per m, each of a whole slow band
        assert slow == [len(x)] * 10
        assert envelope

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_mca_slow_phasor_is_computed_once_per_m(self, monkeypatch, jobs):
        # the phasor is made by _slow_band, inside the bank's reduction of
        # the slow band; count the calls that make one
        import paclab.measures

        real = paclab.measures._slow_band
        computed = []

        def counting(xm, bank, m, *args):
            weight, phasor = real(xm, bank, m, *args)
            if phasor is not None:
                computed.append(m)
            return weight, phasor

        monkeypatch.setattr(paclab.measures, "_slow_band", counting)
        x = coupled_signal(seed=0, noise=6250.0)
        mat = compute_matrix(x, "mca", GridSpec(1, 10, 30, 50), jobs=jobs)
        # made only for an m with a cell past the gates, and each such cell scores above 0
        scored = np.count_nonzero(mat.values.any(axis=0))
        assert 0 < scored < 10
        assert len(computed) == len(set(computed)) == scored

    @pytest.mark.parametrize("cfg", [
        MeasureConfig(),
        MeasureConfig(edge_trim=0),
        MeasureConfig(kld_bins=18, morlet_cycles=6.0),
        # bin indices kept as uint8 at 256 bins, uint16 at 257, uint32 at the most
        MeasureConfig(kld_bins=256),
        MeasureConfig(kld_bins=257),
        MeasureConfig(kld_bins=MAX_KLD_BINS),
    ], ids=["default", "no-trim", "bins-cycles", "bins-256", "bins-257", "bins-max"])
    def test_public_helpers_equal_the_cells(self, cfg):
        x = coupled_signal(seed=1, noise=6250.0)
        cycles = cfg.morlet_cycles
        for m, n in [(8, 45), (3, 30), (12, 40)]:
            tr = cfg.edge_trim
            if tr is None:
                tr = max(morlet_half_length(c, cycles, FS) for c in (m, n))
            keep = slice(tr, len(x) - tr)
            phase = np.angle(morlet_bandpass(x, m, cycles).values)[keep]
            amp = np.abs(morlet_bandpass(x, n, cycles).values)[keep]
            assert mvl(x, m, n, cfg) == vector_length(phase, amp)
            dist = bin_amplitude_by_phase(phase, amp, cfg.kld_bins)
            assert kld(x, m, n, cfg) == kld_from_distribution(dist)


class TestVectorLength:
    def test_cosine_modulated_amplitude(self):
        ph = np.linspace(-np.pi, np.pi, 100000, endpoint=False)
        amp = 1.0 + np.cos(ph)
        assert vector_length(ph, amp) == pytest.approx(0.5, abs=1e-9)

    def test_constant_amplitude_uniform_phase(self):
        ph = np.linspace(-np.pi, np.pi, 10000, endpoint=False)
        assert vector_length(ph, np.ones_like(ph)) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidInputError):
            vector_length(np.zeros(3), np.zeros(4))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["phase", "amp"])
    def test_non_finite_rejected_without_warning(self, bad, where):
        ph, amp = np.zeros(2), np.ones(2)
        (ph if where == "phase" else amp)[0] = bad
        with pytest.raises(InvalidInputError, match=where):
            vector_length(ph, amp)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", NON_REAL)
    def test_non_real_rejected_without_warning(self, bad):
        with pytest.raises(InvalidInputError, match="phase must hold real numbers"):
            vector_length(bad, [1.0, 1.0])
        with pytest.raises(InvalidInputError, match="amp must hold real numbers"):
            vector_length([0.0, 1.0], bad)


class TestBinAmplitudeByPhase:
    def test_uniform_is_flat(self):
        ph = np.linspace(-np.pi, np.pi, 50000, endpoint=False)
        d = bin_amplitude_by_phase(ph, np.ones_like(ph), 50)
        assert np.allclose(d.bin_means, 1.0 / 50, atol=1e-12)
        # float binning may shift a sample across an edge
        assert d.bin_counts.sum() == 50000
        assert np.all(np.abs(d.bin_counts - 1000) <= 2)

    def test_delta_concentrates(self):
        ph = np.zeros(100)
        d = bin_amplitude_by_phase(ph, np.ones(100), 50)
        assert d.bin_means.max() == pytest.approx(1.0)
        assert np.count_nonzero(d.bin_means) == 1

    def test_cosine_profile_follows_centers(self):
        ph = np.linspace(-np.pi, np.pi, 100000, endpoint=False)
        amp = 1.0 + np.cos(ph)
        d = bin_amplitude_by_phase(ph, amp, 50)
        expected = 1.0 + np.cos(d.bin_centers)
        expected = expected / expected.sum()
        assert np.allclose(d.bin_means, expected, atol=1e-4)

    def test_boundary_phases_stay_in_range(self):
        d = bin_amplitude_by_phase(
            np.array([-np.pi, np.pi]), np.array([1.0, 1.0]), 50
        )
        assert d.bin_counts[0] == 1
        assert d.bin_counts[-1] == 1

    def test_zero_amplitude_mass_raises(self):
        with pytest.raises(DegenerateDistributionError):
            bin_amplitude_by_phase(np.zeros(10), np.zeros(10), 10)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidInputError):
            bin_amplitude_by_phase(np.zeros(10), -np.ones(10), 10)

    def test_too_few_bins_rejected(self):
        with pytest.raises(InvalidInputError):
            bin_amplitude_by_phase(np.zeros(10), np.ones(10), 1)

    @pytest.mark.parametrize("n_bins", [3.7, 18.0, True, "18"])
    def test_bin_count_must_be_an_integer(self, n_bins):
        with pytest.raises(InvalidInputError):
            bin_amplitude_by_phase(np.zeros(10), np.ones(10), n_bins)
        assert bin_amplitude_by_phase(np.zeros(10), np.ones(10), np.int64(18)).n_bins == 18

    def test_too_many_bins_rejected_before_allocating(self):
        with pytest.raises(InvalidInputError):
            bin_amplitude_by_phase(np.zeros(10), np.ones(10), 10**12)
        assert bin_amplitude_by_phase(np.zeros(10), np.ones(10), MAX_KLD_BINS).n_bins \
            == MAX_KLD_BINS

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["phase", "amp"])
    def test_non_finite_rejected_without_warning(self, bad, where):
        ph = np.linspace(-3.0, 3.0, 10)
        amp = np.ones(10)
        (ph if where == "phase" else amp)[4] = bad
        with pytest.raises(InvalidInputError):
            bin_amplitude_by_phase(ph, amp, 18)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", NON_REAL)
    def test_non_real_rejected_without_warning(self, bad):
        with pytest.raises(InvalidInputError, match="phase must hold real numbers"):
            bin_amplitude_by_phase(bad, [1.0, 1.0], 4)
        with pytest.raises(InvalidInputError, match="amp must hold real numbers"):
            bin_amplitude_by_phase([0.1, 0.2], bad, 4)


class TestKldFromDistribution:
    def test_uniform_scores_exactly_zero(self):
        ph = np.linspace(-np.pi, np.pi, 50000, endpoint=False)
        d = bin_amplitude_by_phase(ph, np.ones_like(ph), 50)
        assert kld_from_distribution(d) == 0.0

    def test_delta_scores_one(self):
        d = bin_amplitude_by_phase(np.zeros(100), np.ones(100), 50)
        assert kld_from_distribution(d) == 1.0

    def test_half_support_value(self):
        # uniform over 25 of 50 bins: 1 - ln(25)/ln(50)
        ph = np.linspace(-np.pi, 0, 25000, endpoint=False)
        d = bin_amplitude_by_phase(ph, np.ones_like(ph), 50)
        assert kld_from_distribution(d) == pytest.approx(0.1771838201, abs=1e-4)


class TestMcaPac:
    def test_clean_coupling_scores_high(self):
        x = coupled_signal()
        assert mca_pac(x, 8, 45) > 0.95

    def test_uncoupled_tones_score_zero(self):
        x = coupled_signal(ami=0.0)
        assert mca_pac(x, 8, 45) == 0.0

    def test_wrong_modulator_scores_below_true(self):
        x = coupled_signal()
        assert mca_pac(x, 11, 45) < mca_pac(x, 8, 45)

    def test_out_of_band_triplets_raise(self):
        x = coupled_signal(dur=4.0)
        with pytest.raises(OutOfBandError):
            mca_pac(x, 0.5, 45)
        with pytest.raises(OutOfBandError):
            mca_pac(x, 45, 45)
        with pytest.raises(OutOfBandError):
            mca_pac(x, 60, 450)

    def test_short_signal_raises(self):
        x = Signal(np.zeros(2000), FS)
        with pytest.raises(SignalTooShortError):
            mca_pac(x, 8, 45)

    @pytest.mark.parametrize("trim", [None, 0])
    @pytest.mark.parametrize("fn", [mca_pac, eps], ids=lambda f: f.__name__)
    def test_band_too_narrow_for_signal_raises(self, fn, trim):
        # 5e-324 Hz gives an infinite kernel half-length, 1e-6 Hz a finite
        # one of 1e9 samples; neither may reach a kernel or trim size
        x = coupled_signal(dur=2.0)
        for bw in (1e-6, 5e-324):
            with pytest.raises(SignalTooShortError):
                fn(x, 8, 45, MeasureConfig(mca_bw=bw, edge_trim=trim))

    def test_scale_invariant(self):
        x = coupled_signal(noise=6250.0, seed=0)
        y = Signal(3.7 * x.samples, FS)
        assert abs(mca_pac(y, 8, 45) - mca_pac(x, 8, 45)) < 1e-6

    def test_deterministic(self):
        x = coupled_signal(noise=6250.0, seed=1)
        assert mca_pac(x, 8, 45) == mca_pac(x, 8, 45)


class TestReferenceMeasures:
    def test_eps_detects_clean_coupling(self):
        x = coupled_signal()
        assert eps(x, 8, 45) > 0.9

    def test_eps_uncoupled_low_or_zero(self):
        x = coupled_signal(ami=0.0)
        assert eps(x, 8, 45) < 0.2

    def test_mvl_scales_with_amplitude(self):
        x = coupled_signal(noise=6250.0, seed=2)
        y = Signal(3.7 * x.samples, FS)
        assert mvl(y, 8, 45) == pytest.approx(3.7 * mvl(x, 8, 45), rel=1e-9)

    def test_mvl_positive_on_coupling(self):
        x = coupled_signal()
        assert mvl(x, 8, 45) > 0.0

    def test_cv_detects_clean_coupling(self):
        x = coupled_signal()
        assert cv(x, 8, 45) > 0.9

    def test_cv_scale_invariant(self):
        x = coupled_signal(noise=6250.0, seed=3)
        y = Signal(3.7 * x.samples, FS)
        assert abs(cv(y, 8, 45) - cv(x, 8, 45)) < 1e-6

    def test_cv_bounds_both_series_it_reads_in_place(self, monkeypatch):
        # the column's coherence reads the trimmed signal and the trimmed
        # |zn| without copying them, and check_amplitude still bounds both
        x = coupled_signal(noise=6250.0, seed=3)
        seen = []

        def check(a, fs):
            seen.append(a)
            check_amplitude(a, fs)

        monkeypatch.setattr(paclab.spectral, "check_amplitude", check)
        cv(x, 8, 45)
        tr = morlet_half_length(45, MeasureConfig().morlet_cycles, FS)
        assert [a.size for a in seen] == [len(x) - 2 * tr] * 2
        assert np.shares_memory(seen[0], x.samples)
        assert np.array_equal(seen[0], x.samples[tr:-tr])

    def test_kld_modulated_vs_flat(self):
        coupled = kld(coupled_signal(), 8, 45)
        flat = kld(coupled_signal(ami=0.0), 8, 45)
        assert 0.005 < coupled < 0.1
        assert flat < 1e-3
        assert coupled > 10 * flat

    def test_kld_scale_invariant(self):
        x = coupled_signal(noise=6250.0, seed=4)
        y = Signal(3.7 * x.samples, FS)
        assert abs(kld(y, 8, 45) - kld(x, 8, 45)) < 1e-6

    def test_eps_scale_invariant(self):
        x = coupled_signal(noise=6250.0, seed=5)
        y = Signal(3.7 * x.samples, FS)
        assert abs(eps(y, 8, 45) - eps(x, 8, 45)) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_cv_on_a_flat_signal_has_nothing_to_score(self):
        x = Signal(np.zeros(10000), FS)
        with pytest.raises(_ZERO_CELL_ERRORS):
            cv(x, 8, 45)
        mat = compute_matrix(x, "cv", GridSpec(6, 10, 42, 48))
        assert not mat.values.any()

    def test_band_checks(self):
        x = coupled_signal(dur=4.0)
        for fn in (eps, mvl, kld, cv):
            with pytest.raises(OutOfBandError):
                fn(x, 0.5, 45)
            with pytest.raises(OutOfBandError):
                fn(x, 8, 600)


def angle_eps(x, m, n, cfg):
    """eps by the PLV's angle formula: plv(angle(z_m), envelope_phase(|z_n|))
    over the trimmed samples, 0 where the envelope has no m component."""
    cycles = cfg.morlet_cycles
    tr = cfg.edge_trim
    if tr is None:
        tr = max(morlet_half_length(m, cycles, FS), morlet_half_length(n, cycles, FS),
                 gabor_half_length(cfg.mca_bw, FS))
    keep = slice(tr, len(x) - tr)
    zm = morlet_bandpass(x, m, cycles).values
    amp = Signal(np.abs(morlet_bandpass(x, n, cycles).values), FS)
    ph_env = phase_or_error(lambda: envelope_phase(amp, m, cfg.mca_bw).samples)
    if isinstance(ph_env, str):
        return 0.0
    return plv(np.angle(zm)[keep], ph_env[keep])


class TestEpsPhasorPlv:
    """eps scores the PLV as |mean(unit(z_m) * conj(unit(z_env)))|; it must
    agree with the angle formula to rounding."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ami=st.sampled_from([0.0, 0.25, 0.9]),
           noise=st.sampled_from([0.0, 6250.0]),
           m=st.integers(1, 20),
           dn=st.integers(1, 80),
           cfg=st.sampled_from([MeasureConfig(), MeasureConfig(edge_trim=0),
                                MeasureConfig(morlet_cycles=6.0, mca_bw=2.0)]))
    def test_equals_the_angle_formula(self, seed, ami, noise, m, dn, cfg):
        x = coupled_signal(ami=ami, seed=seed, noise=noise)
        got = eps(x, m, m + dn, cfg)
        assert abs(got - angle_eps(x, m, m + dn, cfg)) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_exact_zeros_of_the_analytic_envelope(self, monkeypatch):
        import paclab.measures

        real = paclab.measures.hilbert
        zeroed = []

        def with_zeros(a):
            z = real(a)
            z[::7] = 0.0
            zeroed.append(z)
            return z

        monkeypatch.setattr(paclab.measures, "hilbert", with_zeros)
        x = coupled_signal(noise=6250.0, seed=3)
        got = eps(x, 8, 45)
        assert len(zeroed) == 1 and not zeroed[0][::7].any()
        assert math.isfinite(got)
        assert abs(got - angle_eps(x, 8, 45, MeasureConfig())) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_unit_phasor_of_zero_is_one(self):
        from paclab.measures import _unit

        z = np.array([0j, 3 + 4j, -2.0, 1e-300j])
        assert np.array_equal(_unit(z), [1, 0.6 + 0.8j, -1, 1j])
        assert np.array_equal(z, [0j, 3 + 4j, -2.0, 1e-300j])


def angle_mca(x, m, n, cfg):
    """mca_pac with its PLV term by the angle formula,
    plv(angle(slow), envelope_phase(|triplet|)), over the trimmed samples:
    the slow band's analytic angle and the triplet envelope's phase come
    from the public functions, the weights and gates from mca itself."""
    import paclab.measures

    def angle_plv(slow, z_env):
        bw = cfg.mca_bw
        tr = cfg.edge_trim if cfg.edge_trim is not None else gabor_half_length(bw, FS)
        keep = slice(tr, len(x) - tr)
        ph_slow = np.angle(hilbert(bandpass(x, FilterSpec(center=m, bw_hz=bw)).samples))
        env = Signal(np.abs(hilbert(triplet(x, m, n, bw).samples)), FS)
        return plv(ph_slow[keep], envelope_phase(env, m, bw).samples[keep])

    real = paclab.measures._phase_locking
    paclab.measures._phase_locking = angle_plv
    try:
        return mca_pac(x, m, n, cfg)
    finally:
        paclab.measures._phase_locking = real


class TestMcaPhasorPlv:
    """mca scores its PLV through the phase-locking kernel eps uses,
    |mean(unit(z_slow) * conj(unit(z_env)))|; it must agree with the angle
    formula to rounding."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ami=st.sampled_from([0.0, 0.25, 0.9]),
           noise=st.sampled_from([0.0, 6250.0]),
           m=st.integers(1, 20),
           n=st.integers(35, 55),
           cfg=st.sampled_from([MeasureConfig(), MeasureConfig(edge_trim=0),
                                MeasureConfig(mca_bw=2.0)]))
    def test_equals_the_angle_formula(self, seed, ami, noise, m, n, cfg):
        # cells around the 45 Hz carrier, where about a third of the noisy
        # ones pass every gate and reach the kernel
        x = coupled_signal(ami=ami, seed=seed, noise=noise)
        got = mca_pac(x, m, n, cfg)
        assert abs(got - angle_mca(x, m, n, cfg)) <= 1e-15

    def test_scores_the_coupled_cell(self):
        # the agreement above is not all zeros: the true cell reaches the kernel
        x = coupled_signal(noise=6250.0, seed=3)
        got = mca_pac(x, 8, 45)
        assert got > 0.5
        assert abs(got - angle_mca(x, 8, 45, MeasureConfig())) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_exact_zeros_of_the_analytic_envelope(self, monkeypatch):
        import paclab.measures

        real = paclab.measures._Envelope.analytic
        zeroed = []

        def with_zeros(env, m):
            z = real(env, m)
            z[::7] = 0.0
            zeroed.append(z)
            return z

        monkeypatch.setattr(paclab.measures._Envelope, "analytic", with_zeros)
        x = coupled_signal(noise=6250.0, seed=3)
        got = mca_pac(x, 8, 45)
        assert len(zeroed) == 1 and not zeroed[0][::7].any()
        assert math.isfinite(got) and got > 0.0
        # the reference's mca_pac and its envelope_phase read the same zeroed band
        assert abs(got - angle_mca(x, 8, 45, MeasureConfig())) <= 1e-15
        assert len(zeroed) == 3


ALL_MEASURES = (mca_pac, eps, mvl, cv, kld)


class TestMeasureConfig:
    def test_as_dict_lists_every_setting(self):
        cfg = MeasureConfig(edge_trim=3, welch=WelchSpec(window_len=512, overlap=0.5))
        assert cfg.as_dict() == {
            "mca_bw": 1.0,
            "morlet_cycles": 4.0,
            "kld_bins": 50,
            "edge_trim": 3,
            "welch_window": 512,
            "welch_overlap": 0.5,
        }

    @pytest.mark.parametrize("bins", [1, MAX_KLD_BINS + 1, 10**9, 18.0, 18.5, None, True])
    def test_kld_bins_outside_range_rejected(self, bins):
        with pytest.raises(InvalidInputError):
            MeasureConfig(kld_bins=bins)

    @pytest.mark.parametrize("bins", [2, np.int64(18), MAX_KLD_BINS])
    def test_kld_bins_in_range_accepted(self, bins):
        assert MeasureConfig(kld_bins=bins).kld_bins == bins

    # 1e308 is finite, but twice it, the width of mca's capture band,
    # overflows the Gabor beta
    @pytest.mark.parametrize("kw", [dict(mca_bw=math.inf), dict(mca_bw=1e308),
                                    dict(morlet_cycles=math.inf)],
                             ids=["bw-inf", "bw-1e308", "cycles-inf"])
    def test_settings_without_finite_kernels_rejected_by_name(self, kw):
        (name,) = kw
        with pytest.raises(InvalidInputError, match=name):
            MeasureConfig(**kw)


class TestEdgeTrim:
    @pytest.mark.parametrize("fn", ALL_MEASURES, ids=lambda f: f.__name__)
    def test_zero_trim_is_finite(self, fn):
        x = coupled_signal(noise=6250.0, seed=0)
        v = fn(x, 8, 45, MeasureConfig(edge_trim=0))
        assert math.isfinite(v)
        assert v >= 0.0

    def test_zero_trim_uses_every_sample(self):
        x = coupled_signal(noise=6250.0, seed=0)
        zm = morlet_bandpass(x, 8, 4.0).values
        zn = morlet_bandpass(x, 45, 4.0).values
        full = vector_length(np.angle(zm), np.abs(zn))
        assert mvl(x, 8, 45, MeasureConfig(edge_trim=0)) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("fn", ALL_MEASURES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [-1, 2.5, True, False])
    def test_negative_or_fractional_trim_rejected(self, fn, bad):
        x = coupled_signal(dur=4.0)
        with pytest.raises(InvalidInputError):
            fn(x, 8, 45, MeasureConfig(edge_trim=bad))


class TestRangesOnArbitraryInputs:
    def test_values_stay_in_range(self):
        rng = np.random.default_rng(7)
        cfg = MeasureConfig(welch=WelchSpec(window_len=512))
        for _ in range(10):
            x = Signal(rng.standard_normal(8000), FS)
            for fn in (mca_pac, eps, cv, kld):
                v = fn(x, 8, 45, cfg)
                assert 0.0 <= v <= 1.0
            assert mvl(x, 8, 45, cfg) >= 0.0


def _noise_floor_and_true_value(method_fn, method_name, seed):
    """Max over the full grid on noise alone vs the true-cell value on the
    matched coupled signal."""
    noise = pink_noise(10000, FS, 6250.0, seed=seed)
    mat = compute_matrix(noise, method=method_name)
    floor = float(mat.values.max())
    coupled = synth_pac(benchmark_spec(PAIR, seed=seed)).composite
    true_value = method_fn(coupled, *PAIR)
    return floor, true_value


class TestNoiseFloorSeparation:
    """A detector is only usable at 0.1 SNR if pure noise never outscores
    the true cell of an equally-noisy coupled recording."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mca_true_cell_beats_noise_floor(self, seed):
        floor, true_value = _noise_floor_and_true_value(mca_pac, "mca", seed)
        assert floor < true_value

    @pytest.mark.parametrize(
        "fn,name",
        [(eps, "eps"), (mvl, "mvl"), (cv, "cv"), (kld, "kld")],
    )
    @pytest.mark.xfail(
        strict=True,
        reason="at 0.1 SNR the wideband filters pass the noise spectrum "
        "wholesale; measured full-grid noise floors over seeds 0-4 always "
        "exceed the true cell (eps 0.44-0.64 vs 0.23-0.47, mvl 4.4-5.6 vs "
        "0.5-2.1, cv ~1.0 vs 0.04-0.94, kld 0.008-0.018 vs 0.0003-0.0014)",
    )
    def test_wideband_measures_drown_at_benchmark_snr(self, fn, name):
        floor, true_value = _noise_floor_and_true_value(fn, name, 0)
        assert floor < true_value

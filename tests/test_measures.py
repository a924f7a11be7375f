"""Coupling measures: phase locking, phase binning, and the five estimators."""

import math

import numpy as np
import pytest
from scipy.signal import hilbert

from paclab import (
    DegenerateDistributionError,
    DegeneratePhaseError,
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

FS = 1000.0
PAIR = (8, 45)


def coupled_signal(ami=0.25, seed=None, noise=0.0, dur=10.0):
    spec = benchmark_spec(PAIR, seed=seed)
    spec = type(spec)(
        m=spec.m, n=spec.n, ami=ami, duration=dur, fs=spec.fs,
        noise_power=noise, clean_scale=spec.clean_scale, seed=seed,
    )
    return synth_pac(spec).composite


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

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.normal(size=500)
            v = rng.normal(size=500)
            assert 0.0 <= plv(u, v) <= 1.0


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

    def test_band_checks(self):
        x = coupled_signal(dur=4.0)
        for fn in (eps, mvl, kld, cv):
            with pytest.raises(OutOfBandError):
                fn(x, 0.5, 45)
            with pytest.raises(OutOfBandError):
                fn(x, 8, 600)


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
    @pytest.mark.parametrize("bad", [-1, 2.5])
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

"""Coupled-signal synthesis, pink noise, and power calibration."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from paclab import (
    BENCHMARK_PAIRS,
    InvalidInputError,
    Signal,
    SynthesisSpec,
    benchmark_spec,
    clean_power_unit,
    pink_noise,
    power,
    snr,
    synth_pac,
    welch_psd,
)
from paclab.spectral import WelchSpec
from paclab.synthesis import BENCHMARK_AMI, BENCHMARK_DURATION, BENCHMARK_FS, clean_scale_for


class TestSynthesisSpec:
    def test_valid_roundtrip(self):
        s = SynthesisSpec(m=8, n=45, ami=0.25, duration=10.0, fs=1000.0,
                          noise_power=6250.0, clean_scale=2.0, seed=3)
        assert s.n_samples == 10000

    def test_defaults_are_the_benchmark_settings(self):
        s = SynthesisSpec(m=8, n=45)
        assert (s.ami, s.duration, s.fs) == (BENCHMARK_AMI, BENCHMARK_DURATION, BENCHMARK_FS)
        # the preset differs from the defaults in its noise and scale alone
        preset = benchmark_spec((8, 45))
        assert dataclasses.replace(preset, noise_power=0.0, clean_scale=1.0) == s

    @pytest.mark.parametrize("kw", [
        dict(m=45, n=8),
        dict(m=0, n=45),
        dict(m=8, n=600),
        dict(ami=-0.1),
        dict(duration=0.0005),
        dict(noise_power=-1.0),
        dict(duration=math.nan),
        dict(duration=math.inf),
        dict(fs=math.inf),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed=2.0),
        dict(seed="7"),
        dict(seed=True),
    ])
    def test_invalid(self, kw):
        base = dict(m=8, n=45, ami=0.25, duration=10.0, fs=1000.0,
                    noise_power=0.0, clean_scale=1.0, seed=0)
        base.update(kw)
        with pytest.raises(InvalidInputError):
            SynthesisSpec(**base)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sample_count_is_refused(self):
        # duration * fs is inf, which n_samples cannot round to an integer
        with pytest.raises(InvalidInputError, match="samples"):
            SynthesisSpec(m=8, n=45, duration=1e300, fs=1e300)

    # 1e308 is finite, but pink_noise's scale factor for it is not
    @pytest.mark.parametrize("kw", [dict(ami=math.inf), dict(noise_power=math.inf),
                                    dict(noise_power=1e308)],
                             ids=["ami-inf", "noise-inf", "noise-1e308"])
    def test_settings_with_non_finite_samples_rejected_by_name(self, kw):
        (name,) = kw
        with pytest.raises(InvalidInputError, match=name):
            SynthesisSpec(m=8, n=45, **kw)

    def test_largest_accepted_noise_power_gives_finite_samples(self):
        # the bound's 1/n_samples**2 is exact for 2 samples
        spec = SynthesisSpec(m=8, n=45, duration=0.002, noise_power=sys.float_info.max / 4)
        assert np.isfinite(synth_pac(spec).composite.samples).all()
        with pytest.raises(InvalidInputError, match="noise_power"):
            dataclasses.replace(spec, noise_power=spec.noise_power * 1.0000001)


    def test_largest_accepted_noise_power_is_finite_for_every_phase(self):
        # at seed 1993 |exp(i·phase)| of the one noise bin rounds to
        # 1 - 2^-53, so the noise's mean square falls just under 0.25
        for seed in (0, 1993):
            spec = SynthesisSpec(m=8, n=45, duration=0.002, seed=seed,
                                 noise_power=sys.float_info.max / 4)
            assert np.isfinite(synth_pac(spec).composite.samples).all()

    @pytest.mark.parametrize("seed", [None, 0, np.int64(7), 2**70])
    def test_valid_seeds(self, seed):
        assert SynthesisSpec(m=8, n=45, seed=seed).seed == seed


class TestCleanScale:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_negative_or_nan_power_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="clean_power"):
            clean_scale_for(bad, 0.25)

    def test_none_keeps_unit_scale(self):
        assert clean_scale_for(None, 0.25) == 1.0


class TestCleanComponent:
    def test_no_modulation_power(self):
        # sin + 0.5 cos carrier: powers add to 0.5 + 0.125
        spec = SynthesisSpec(m=8, n=45, ami=0.0, duration=10.0, fs=1000.0,
                             noise_power=0.0, clean_scale=1.0, seed=0)
        assert power(synth_pac(spec).clean) == pytest.approx(0.625, rel=1e-3)

    def test_modulated_power_closed_form(self):
        spec = SynthesisSpec(m=8, n=45, ami=0.25, duration=10.0, fs=1000.0,
                             noise_power=0.0, clean_scale=1.0, seed=0)
        assert clean_power_unit(0.25) == pytest.approx(0.640625, abs=1e-12)
        assert power(synth_pac(spec).clean) == pytest.approx(0.640625, rel=1e-3)

    def test_scale_is_quadratic_in_power(self):
        spec = SynthesisSpec(m=8, n=45, ami=0.25, duration=10.0, fs=1000.0,
                             noise_power=0.0, clean_scale=3.0, seed=0)
        assert power(synth_pac(spec).clean) == pytest.approx(9 * 0.640625, rel=1e-3)

    def test_composite_is_sum_of_parts(self):
        spec = SynthesisSpec(m=12, n=45, ami=0.25, duration=2.0, fs=1000.0,
                             noise_power=100.0, clean_scale=1.0, seed=5)
        parts = synth_pac(spec)
        assert np.array_equal(parts.composite.samples,
                              parts.clean.samples + parts.noise.samples)


class TestPinkNoise:
    def test_power_is_exact(self):
        x = pink_noise(100000, 1000.0, 6250.0, seed=0)
        assert power(x) == pytest.approx(6250.0, rel=1e-9)

    def test_zero_target_gives_zeros(self):
        x = pink_noise(1000, 1000.0, 0.0, seed=0)
        assert np.all(x.samples == 0.0)

    def test_seed_reproducibility(self):
        a = pink_noise(5000, 1000.0, 10.0, seed=42)
        b = pink_noise(5000, 1000.0, 10.0, seed=42)
        c = pink_noise(5000, 1000.0, 10.0, seed=43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_loglog_slope_near_minus_one(self):
        x = pink_noise(100000, 1000.0, 1.0, seed=1)
        psd = welch_psd(x, WelchSpec(window_len=4096, overlap=0.25))
        keep = (psd.freqs >= 2.0) & (psd.freqs <= 100.0)
        slope = np.polyfit(np.log(psd.freqs[keep]), np.log(psd.values[keep]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("n_samples", [2.9, 1000.0, True, 1, -3])
    def test_sample_count_must_be_an_integer_of_at_least_two(self, n_samples):
        with pytest.raises(InvalidInputError):
            pink_noise(n_samples, 1000.0, 1.0, seed=0)

    @pytest.mark.parametrize("target_power", [math.nan, math.inf, -1.0])
    def test_target_power_must_be_nonnegative_and_finite(self, target_power):
        with pytest.raises(InvalidInputError, match="target_power"):
            pink_noise(100, 1000.0, target_power, seed=0)

    def test_zero_mean_construction(self):
        x = pink_noise(10000, 1000.0, 5.0, seed=2)
        # DC bin is zeroed, so the sample mean vanishes to rounding
        assert abs(np.mean(x.samples)) < 1e-10


class TestSnr:
    def test_benchmark_ratio(self):
        assert 630.0 / 6250.0 == pytest.approx(0.1008)

    def test_self_ratio(self):
        x = pink_noise(1000, 1000.0, 3.0, seed=0)
        assert snr(x, x) == pytest.approx(1.0)

    def test_zero_clean(self):
        z = Signal(np.zeros(100), 1000.0)
        n = pink_noise(100, 1000.0, 1.0, seed=0)
        assert snr(z, n) == 0.0

    def test_zero_noise_sentinel(self):
        n = Signal(np.zeros(100), 1000.0)
        x = pink_noise(100, 1000.0, 1.0, seed=0)
        assert math.isinf(snr(x, n))


class TestBenchmarkPreset:
    def test_pairs(self):
        assert BENCHMARK_PAIRS == ((8, 45), (12, 45), (20, 45), (30, 45))

    def test_index_and_tuple_agree(self):
        assert benchmark_spec(4, seed=2) == benchmark_spec((30, 45), seed=2)

    def test_bad_index(self):
        with pytest.raises(InvalidInputError):
            benchmark_spec(5)

    @pytest.mark.parametrize("pair", [True, False, 1.0, (1, 2, 3), (8,), None])
    def test_neither_index_nor_pair_is_refused(self, pair):
        with pytest.raises(InvalidInputError, match="pair"):
            benchmark_spec(pair)
        assert benchmark_spec(np.int64(1)) == benchmark_spec((8, 45))

    def test_calibrated_powers(self):
        parts = synth_pac(benchmark_spec(1, seed=0))
        p_clean = power(parts.clean)
        p_noise = power(parts.noise)
        assert p_clean == pytest.approx(630.0, abs=10.0)
        assert p_noise == pytest.approx(6250.0, rel=1e-9)
        assert snr(parts.clean, parts.noise) == pytest.approx(0.1008, abs=0.005)

    def test_seed_changes_noise_only(self):
        a = synth_pac(benchmark_spec(1, seed=0))
        b = synth_pac(benchmark_spec(1, seed=1))
        assert np.array_equal(a.clean.samples, b.clean.samples)
        assert not np.array_equal(a.noise.samples, b.noise.samples)


def test_benchmark_psd_peaks_at_m_and_n():
    # deterministic peaks rise above the 1/f floor at m and n
    parts = synth_pac(benchmark_spec(2, seed=0))
    psd = welch_psd(parts.composite, WelchSpec(window_len=4096, overlap=0.25))
    df = psd.freqs[1] - psd.freqs[0]
    for f0 in (12.0, 45.0):
        k = int(np.argmin(np.abs(psd.freqs - f0)))
        window = psd.values[max(0, k - 2):k + 3]
        nearby = psd.values[max(0, k - 12):k + 13]
        floor = np.median(nearby)
        assert window.max() > 3.0 * floor, f"no peak above floor at {f0} Hz (df={df})"

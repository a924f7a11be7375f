"""Welch spectra and magnitude-squared coherence."""

import numpy as np
import pytest
import scipy.signal

import paclab.spectral
from paclab import (
    DegeneratePhaseError,
    InvalidInputError,
    Signal,
    SignalTooShortError,
    Spectrum,
    UnreliableEstimateError,
    WelchSpec,
    coherence,
    pink_noise,
    power,
    welch_psd,
)

FS = 1000.0


def tone(freq, amp=1.0, dur=10.0, fs=FS):
    t = np.arange(int(dur * fs)) / fs
    return Signal(amp * np.sin(2 * np.pi * freq * t), fs)


class TestWelchSpec:
    def test_defaults(self):
        s = WelchSpec()
        assert s.window_len == 4096
        assert s.overlap == 0.25
        assert paclab.spectral.WINDOW == "hann"

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WelchSpec(window_len=4)
        with pytest.raises(InvalidInputError):
            WelchSpec(overlap=1.0)
        with pytest.raises(InvalidInputError):
            WelchSpec(overlap=-0.1)


class TestSpectrum:
    def test_value_at_picks_nearest_bin(self):
        s = Spectrum(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([5.0, 6.0, 7.0, 8.0]), "psd"
        )
        assert s.value_at(2.2) == 7.0

    def test_value_at_tie_goes_low(self):
        s = Spectrum(np.array([0.0, 1.0]), np.array([5.0, 6.0]), "psd")
        assert s.value_at(0.5) == 5.0

    def test_rejects_unsorted_freqs(self):
        with pytest.raises(InvalidInputError):
            Spectrum(np.array([1.0, 0.5]), np.array([1.0, 1.0]), "psd")


class TestWelchPsd:
    def test_parseval_tone(self):
        x = tone(45, amp=np.sqrt(2))
        psd = welch_psd(x, WelchSpec(window_len=4096, overlap=0.25))
        integral = np.trapezoid(psd.values, psd.freqs)
        assert integral == pytest.approx(1.0, rel=0.05)
        peak_f = psd.freqs[int(np.argmax(psd.values))]
        df = psd.freqs[1] - psd.freqs[0]
        assert abs(peak_f - 45.0) <= df

    def test_parseval_white_noise(self):
        rng = np.random.default_rng(4)
        x = Signal(rng.standard_normal(100000), FS)
        psd = welch_psd(x, WelchSpec(window_len=4096, overlap=0.25))
        assert np.trapezoid(psd.values, psd.freqs) == pytest.approx(power(x), rel=0.05)

    def test_pink_noise_peaks_low(self):
        x = pink_noise(100000, FS, 7.5, seed=4)
        psd = welch_psd(x, WelchSpec(window_len=4096, overlap=0.25))
        assert psd.value_at(2.0) > 10 * psd.value_at(200.0)

    def test_zeros_give_zero_psd(self):
        psd = welch_psd(Signal(np.zeros(8192), FS), WelchSpec())
        assert np.all(psd.values == 0.0)

    def test_nonnegative(self):
        x = pink_noise(20000, FS, 2.0, seed=9)
        psd = welch_psd(x, WelchSpec(window_len=1024))
        assert np.all(psd.values >= 0.0)

    def test_window_clipped_with_warning(self):
        x = tone(45, dur=2.0)
        with pytest.warns(UserWarning):
            psd = welch_psd(x, WelchSpec(window_len=16384))
        assert len(psd.freqs) > 0

    def test_too_short(self):
        with pytest.raises(SignalTooShortError):
            welch_psd(Signal(np.ones(7), FS), WelchSpec())


class TestCoherence:
    def test_self_coherence_is_one(self):
        x = pink_noise(10000, FS, 3.0, seed=0)
        c = coherence(x, x, WelchSpec(window_len=1024, overlap=0.5))
        powered = welch_psd(x, WelchSpec(window_len=1024, overlap=0.5)).values > 0
        assert np.allclose(c.values[powered], 1.0)

    def test_independent_noise_low(self):
        rng = np.random.default_rng(17)
        x = Signal(rng.standard_normal(10000), FS)
        y = Signal(rng.standard_normal(10000), FS)
        c = coherence(x, y, WelchSpec(window_len=1024, overlap=0.5))
        assert float(np.mean(c.values)) < 0.15

    def test_shared_tone_high(self):
        rng = np.random.default_rng(23)
        s = tone(10).samples
        x = Signal(s + 0.5 * rng.standard_normal(10000), FS)
        y = Signal(s + 0.5 * rng.standard_normal(10000), FS)
        c = coherence(x, y, WelchSpec(window_len=1024, overlap=0.5))
        assert c.value_at(10.0) > 0.9

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(31)
        x = Signal(rng.standard_normal(8000), FS)
        y = Signal(rng.standard_normal(8000), FS)
        spec = WelchSpec(window_len=512, overlap=0.25)
        cxy = coherence(x, y, spec)
        cyx = coherence(y, x, spec)
        assert np.all(cxy.values >= 0.0) and np.all(cxy.values <= 1.0)
        # argument order only permutes the normalization divisions
        assert np.allclose(cxy.values, cyx.values, rtol=1e-12, atol=0.0)

    def test_mismatched_inputs(self):
        x = tone(10, dur=1.0)
        y = tone(10, dur=2.0)
        with pytest.raises(InvalidInputError):
            coherence(x, y, WelchSpec(window_len=256))
        z = Signal(x.samples, 500.0)
        with pytest.raises(InvalidInputError):
            coherence(x, z, WelchSpec(window_len=256))

    def test_equals_scipy_coherence_bitwise(self):
        rng = np.random.default_rng(41)
        x = Signal(rng.standard_normal(9000), FS)
        y = Signal(rng.standard_normal(9000) ** 2, FS)
        spec = WelchSpec(window_len=1024, overlap=0.5)
        _, want = scipy.signal.coherence(x.samples, y.samples, fs=FS, window="hann",
                                         nperseg=1024, noverlap=512, detrend="constant")
        assert np.array_equal(coherence(x, y, spec).values, np.clip(want, 0.0, 1.0))

    @pytest.mark.filterwarnings("error")
    def test_signal_without_power_is_degenerate(self):
        x = pink_noise(8000, FS, 1.0, seed=3)
        spec = WelchSpec(window_len=512)
        for flat in (np.zeros(8000), np.full(8000, 3.0)):
            with pytest.raises(DegeneratePhaseError):
                coherence(x, Signal(flat, FS), spec)
            with pytest.raises(DegeneratePhaseError):
                coherence(Signal(flat, FS), x, spec)

    def test_single_segment_unreliable(self):
        x = tone(10, dur=1.0)
        y = tone(11, dur=1.0)
        with pytest.raises(UnreliableEstimateError):
            coherence(x, y, WelchSpec(window_len=1000))

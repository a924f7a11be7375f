"""Welch spectra and magnitude-squared coherence."""

import warnings

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

# (n, window_len, overlap, fs) on which the Welch estimates must be bitwise
# scipy.signal's: even and odd windows, overlaps 0 to 0.9, rates that are
# not integers, and exactly two segments
BITWISE_CASES = [
    pytest.param(9000, 1024, 0.5, FS, id="even"),
    pytest.param(9000, 999, 0.25, FS, id="odd"),
    pytest.param(5001, 256, 0.0, FS / 3, id="no-overlap"),
    pytest.param(12000, 1000, 0.9, FS, id="overlap-0.9"),
    pytest.param(30011, 4095, 0.75, 250.5, id="odd-long"),
    pytest.param(10000, 4096, 0.25, FS, id="default-two-segments"),
    pytest.param(1024, 512, 0.0, FS, id="two-segments"),
    pytest.param(1600, 1025, 0.5, 1e5 / 3, id="two-odd-segments"),
]


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

    @pytest.mark.parametrize("window_len", [512.5, 512.0, True, "512"])
    def test_window_len_must_be_an_integer(self, window_len):
        with pytest.raises(InvalidInputError, match="window_len"):
            WelchSpec(window_len=window_len)
        assert WelchSpec(window_len=np.int64(512)).window_len == 512


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
    @pytest.mark.parametrize("n,window_len,overlap,fs", BITWISE_CASES + [
        pytest.param(3000, 4096, 0.25, FS, id="clipped-even"),
        pytest.param(2999, 4096, 0.5, 250.5, id="clipped-odd"),
    ])
    def test_equals_scipy_welch_bitwise(self, n, window_len, overlap, fs):
        x = Signal(np.random.default_rng(43).standard_normal(n) + 3.0, fs)
        win = min(window_len, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the clipped window's
            got = welch_psd(x, WelchSpec(window_len=window_len, overlap=overlap))
        freqs, want = scipy.signal.welch(x.samples, fs=fs, window="hann", nperseg=win,
                                         noverlap=int(win * overlap), detrend="constant",
                                         scaling="density")
        assert np.array_equal(got.values, want)
        assert np.array_equal(got.freqs, freqs)

    @pytest.mark.parametrize("m", list(range(1, 11)) + [4095, 4096])
    def test_hann_window_is_scipys(self, m):
        assert np.array_equal(paclab.spectral._hann(m), scipy.signal.get_window("hann", m))

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

    @pytest.mark.parametrize("n,window_len,overlap,fs", BITWISE_CASES)
    def test_equals_scipy_coherence_bitwise(self, n, window_len, overlap, fs):
        rng = np.random.default_rng(41)
        x = Signal(rng.standard_normal(n), fs)
        y = Signal(rng.standard_normal(n) ** 2, fs)
        got = coherence(x, y, WelchSpec(window_len=window_len, overlap=overlap))
        freqs, want = scipy.signal.coherence(
            x.samples, y.samples, fs=fs, window="hann", nperseg=window_len,
            noverlap=int(window_len * overlap), detrend="constant")
        assert np.array_equal(got.values, np.clip(want, 0.0, 1.0))
        assert np.array_equal(got.freqs, freqs)

    @pytest.mark.filterwarnings("error")
    def test_signal_without_power_is_degenerate(self):
        x = pink_noise(8000, FS, 1.0, seed=3)
        spec = WelchSpec(window_len=512)
        for flat in (np.zeros(8000), np.full(8000, 3.0)):
            with pytest.raises(DegeneratePhaseError):
                coherence(x, Signal(flat, FS), spec)
            with pytest.raises(DegeneratePhaseError):
                coherence(Signal(flat, FS), x, spec)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_cross_spectrum_is_refused(self):
        # the densities scale as 1/fs; at 1e300 Hz every |Pxy|² underflows
        # and the coherence of strongly coherent signals would read 0
        rng = np.random.default_rng(5)
        a = rng.standard_normal(10000)
        b = a + 0.1 * rng.standard_normal(10000)
        spec = WelchSpec(window_len=1024, overlap=0.5)
        for fs in (FS, 1e150):
            assert np.mean(coherence(Signal(a, fs), Signal(b, fs), spec).values) > 0.98
        with pytest.raises(InvalidInputError, match="underflows"):
            coherence(Signal(a, 1e300), Signal(b, 1e300), spec)

    def test_single_segment_unreliable(self):
        x = tone(10, dur=1.0)
        y = tone(11, dur=1.0)
        with pytest.raises(UnreliableEstimateError):
            coherence(x, y, WelchSpec(window_len=1000))

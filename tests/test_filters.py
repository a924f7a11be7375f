"""Narrow-band Gabor and Morlet filtering, and the three-band sum."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from paclab import (
    AliasingError,
    FilterSpec,
    InvalidInputError,
    OutOfBandError,
    Signal,
    SignalTooShortError,
    analytic,
    bandpass,
    morlet_bandpass,
    triplet,
)
from paclab.filters import (
    DEFAULT_TRUNCATION,
    FilterBank,
    ReflectedSpectrum,
    _Memo,
    _morlet_key,
    _spectrum_taps,
    conv_size,
    gabor_half_length,
    gabor_kernel,
    morlet_half_length,
    morlet_kernel,
)

FS = 1000.0


def tone(freq, amp=1.0, dur=10.0, fs=FS):
    t = np.arange(int(dur * fs)) / fs
    return Signal(amp * np.cos(2 * np.pi * freq * t), fs)


def interior(a, frac=0.8):
    n = len(a)
    k = int(n * (1 - frac) / 2)
    return a[k:n - k]


def half_length(taps):
    return (len(taps) - 1) // 2


def freq_response(taps, freq, fs=FS):
    t = (np.arange(len(taps)) - half_length(taps)) / fs
    return np.sum(taps * np.exp(-2j * np.pi * freq * t))


class TestGaborKernel:
    def test_unit_gain_at_center(self):
        k = gabor_kernel(FilterSpec(center=45, bw_hz=1), FS)
        assert abs(freq_response(k, 45.0)) == pytest.approx(1.0, abs=1e-6)

    def test_half_power_at_band_edges(self):
        k = gabor_kernel(FilterSpec(center=45, bw_hz=1), FS)
        for f in (44.5, 45.5):
            assert abs(freq_response(k, f)) ** 2 == pytest.approx(0.5, abs=0.02)

    def test_stopband_eight_hz_out(self):
        k = gabor_kernel(FilterSpec(center=45, bw_hz=1), FS)
        assert abs(freq_response(k, 37.0)) < 1e-6

    def test_symmetric_taps(self):
        k = gabor_kernel(FilterSpec(center=20, bw_hz=1), FS)
        assert np.allclose(k, k[::-1])

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            gabor_kernel(FilterSpec(center=500, bw_hz=1), FS)

    @pytest.mark.filterwarnings("error")
    def test_huge_bandwidth_is_one_tap_without_a_warning(self):
        # the envelope's square overflows off centre; exp(-inf) is its 0 tap
        k = gabor_kernel(FilterSpec(center=10, bw_hz=1e300), FS)
        assert k.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("center", [5, 20, 45, 100])
    def test_constant_bandwidth_across_centers(self, center):
        # measured -3 dB full width tracks bw_hz, not the center
        k = gabor_kernel(FilterSpec(center=center, bw_hz=1), FS)
        f = np.linspace(center - 2, center + 2, 4001)
        h2 = np.array([abs(freq_response(k, fi)) ** 2 for fi in f])
        above = f[h2 >= 0.5]
        width = above[-1] - above[0]
        assert width == pytest.approx(1.0, rel=0.05)


class TestBandpass:
    def test_passband_preserves_tone(self):
        x = Signal(tone(45).samples + tone(10).samples, FS)
        y = bandpass(x, FilterSpec(center=45, bw_hz=1))
        ref = tone(45).samples
        err = interior(y.samples - ref)
        assert np.sqrt(np.mean(err * err)) < 0.02

    def test_stopband_rejects_tone(self):
        y = bandpass(tone(45), FilterSpec(center=8, bw_hz=1))
        assert np.max(np.abs(interior(y.samples))) < 1e-4

    def test_zeros_in_zeros_out(self):
        y = bandpass(Signal(np.zeros(8000), FS), FilterSpec(center=45, bw_hz=1))
        assert np.allclose(y.samples, 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = Signal(rng.standard_normal(6000), FS)
        y = Signal(rng.standard_normal(6000), FS)
        spec = FilterSpec(center=30, bw_hz=1)
        combo = bandpass(Signal(2.0 * x.samples + 3.0 * y.samples, FS), spec)
        split = 2.0 * bandpass(x, spec).samples + 3.0 * bandpass(y, spec).samples
        scale = np.max(np.abs(split))
        assert np.max(np.abs(combo.samples - split)) < 1e-9 * scale

    def test_zero_phase_no_lag(self):
        x = tone(45)
        y = bandpass(x, FilterSpec(center=45, bw_hz=1))
        xi = interior(x.samples)
        yi = interior(y.samples)
        lags = [-2, -1, 0, 1, 2]
        corrs = [np.dot(xi[2:-2], yi[2 + d:len(yi) - 2 + d]) for d in lags]
        assert lags[int(np.argmax(corrs))] == 0

    def test_kernel_longer_than_signal(self):
        with pytest.raises(SignalTooShortError):
            bandpass(Signal(np.ones(500), FS), FilterSpec(center=45, bw_hz=1))

    def test_length_preserved(self):
        x = tone(45, dur=8.0)
        assert len(bandpass(x, FilterSpec(center=45, bw_hz=1))) == len(x)


def fftconvolve_bandpass(x, spec):
    """Zero-phase Gabor filtering as fftconvolve on the reflection-padded input."""
    taps = gabor_kernel(spec, x.fs)
    half = (len(taps) - 1) // 2
    return fftconvolve(np.pad(x.samples, half, mode="reflect"), taps, mode="valid")


class TestReflectedSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(extra=st.integers(1, 17000),
           center=st.floats(1.0, 0.45 * FS, exclude_max=True),
           bw=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_cached_spectra_equal_bandpass_bitwise(self, extra, center, bw, seed):
        n_taps = 2 * gabor_half_length(bw, FS) + 1
        x = Signal(np.random.default_rng(seed).standard_normal(n_taps + extra), FS)
        spec = FilterSpec(center=center, bw_hz=bw)
        want = bandpass(x, spec).samples
        assert np.array_equal(want, fftconvolve_bandpass(x, spec))
        padded = ReflectedSpectrum(x.samples, n_taps)
        assert padded.nfft == conv_size(len(x), n_taps)
        kernel = FilterBank(x).gabor_spectrum(center, bw, padded.nfft)
        assert np.array_equal(padded.filter(kernel), want)
        # a fill from the shared signal spectrum, as the bank makes it
        assert np.array_equal(FilterBank(x).gabor(center, bw), want)

    def test_one_spectrum_serves_every_center(self):
        x = Signal(np.random.default_rng(4).standard_normal(9000), FS)
        bank = FilterBank(x)
        padded = ReflectedSpectrum(x.samples, 2 * gabor_half_length(1.0, FS) + 1)
        for center in (1.0, 8.0, 45.0, 449.5):
            spec = FilterSpec(center=center, bw_hz=1.0)
            kernel = bank.gabor_spectrum(center, 1.0, padded.nfft)
            assert np.array_equal(padded.filter(kernel), bandpass(x, spec).samples)
        assert bank.n_filterings == 0

    def test_kernel_longer_than_signal(self):
        with pytest.raises(SignalTooShortError):
            ReflectedSpectrum(np.ones(500), 2 * gabor_half_length(1.0, FS) + 1)


class TestMemo:
    def test_concurrent_misses_compute_once(self):
        memo = _Memo()
        calls = []
        started = threading.Event()
        release = threading.Event()

        def compute():
            calls.append(1)
            started.set()
            release.wait(5)
            return "band"

        got = []
        first = threading.Thread(target=lambda: got.append(memo.get("k", compute)))
        first.start()
        assert started.wait(5)
        second = threading.Thread(target=lambda: got.append(memo.get("k", compute)))
        second.start()
        second.join(0.05)
        assert second.is_alive()  # waiting for the first fill, not computing
        release.set()
        first.join(5)
        second.join(5)
        assert got == ["band", "band"]
        assert len(calls) == 1

    def test_many_threads_compute_each_key_once(self):
        memo = _Memo()
        calls = []
        lock = threading.Lock()

        def compute(key):
            with lock:
                calls.append(key)
            time.sleep(0.001)  # widen the window a second computation would use
            return key * 2

        def worker(results):
            for key in range(200):
                results.append(memo.get(key % 20, lambda: compute(key % 20)))

        results = [[] for _ in range(8)]
        threads = [threading.Thread(target=worker, args=(r,)) for r in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == list(range(20))
        assert all(r == [2 * (k % 20) for k in range(200)] for r in results)

    def test_failed_fill_lets_the_waiter_retry(self):
        memo = _Memo()
        started = threading.Event()
        release = threading.Event()

        def failing():
            started.set()
            release.wait(5)
            raise OutOfBandError("fill failed")

        errors = []

        def first_fill():
            try:
                memo.get("k", failing)
            except OutOfBandError as e:
                errors.append(e)

        first = threading.Thread(target=first_fill)
        first.start()
        assert started.wait(5)
        got = []
        second = threading.Thread(target=lambda: got.append(memo.get("k", lambda: "band")))
        second.start()
        second.join(0.05)
        assert second.is_alive()  # waiting for the first fill
        release.set()
        first.join(5)
        second.join(5)
        assert not first.is_alive() and not second.is_alive()
        assert len(errors) == 1
        assert got == ["band"]
        assert memo.get("k", failing) == "band"

    def test_failed_fill_stores_nothing(self):
        memo = _Memo()

        def failing():
            raise OutOfBandError("fill failed")

        with pytest.raises(OutOfBandError):
            memo.get("k", failing)
        assert memo.values == {}
        assert memo.get("k", lambda: None) is None
        assert memo.values == {"k": None}


class TestMorlet:
    def test_tone_envelope_flat_and_unit(self):
        z = morlet_bandpass(tone(45), 45, 4)
        env = interior(np.abs(z.values))
        assert np.max(np.abs(env - 1.0)) < 0.02

    def test_three_db_width(self):
        # Gaussian response: full width sqrt(ln 2)/(pi sigma_t) = 18.73 Hz
        # at center 45, cycles 4
        k = morlet_kernel(45, 4, FS)
        sigma_t = 4 / (2 * np.pi * 45)
        expected = np.sqrt(np.log(2)) / (np.pi * sigma_t)
        assert expected == pytest.approx(18.7327, abs=1e-3)
        f = np.linspace(20, 70, 2001)
        h2 = np.array([abs(freq_response(k, fi)) ** 2 for fi in f])
        above = f[h2 >= 0.5]
        width = above[-1] - above[0]
        assert width == pytest.approx(expected, rel=0.05)

    def test_zeros_in_zeros_out(self):
        z = morlet_bandpass(Signal(np.zeros(4000), FS), 45, 4)
        assert np.allclose(np.abs(z.values), 0.0)

    def test_truncation_is_four_sigma(self):
        k = morlet_kernel(45, 4, FS)
        sigma_t = 4 / (2 * np.pi * 45)
        assert half_length(k) == int(np.ceil(4 * sigma_t * FS))

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            morlet_bandpass(tone(10), 500, 4)

    @pytest.mark.filterwarnings("error")
    # 1e-300 is positive, but the kernel's envelope variance underflows;
    # a bool, text, None or a complex is no cycle count
    @pytest.mark.parametrize("cycles", [-1.0, 0.0, -0.0, np.nan, -np.inf, 1e-300,
                                        True, False, "4", None, 4 + 0j, complex(np.inf)])
    def test_cycles_must_be_positive(self, cycles):
        x = tone(45, dur=1.0)
        for make in (lambda: morlet_bandpass(x, 45, cycles),
                     lambda: morlet_kernel(45, cycles, FS),
                     lambda: FilterBank(x).morlet(45, cycles)):
            with pytest.raises(InvalidInputError, match="cycles"):
                make()

    @pytest.mark.filterwarnings("error")
    # FilterSpec's rule for a centre: a bool, text, None, a complex or a
    # non-finite number is refused before the Nyquist check
    @pytest.mark.parametrize("center", [True, "45", None, 45 + 0j, np.inf, np.nan,
                                        -45.0, 0.0, 0])
    def test_center_must_be_positive_and_finite(self, center):
        x = tone(45, dur=1.0)
        for make in (lambda: morlet_bandpass(x, center, 4.0),
                     lambda: morlet_kernel(center, 4.0, FS),
                     lambda: FilterBank(x).morlet(center, 4.0)):
            with pytest.raises(InvalidInputError, match="center"):
                make()
        with pytest.raises(InvalidInputError, match="center"):
            FilterSpec(center=center)

    @pytest.mark.filterwarnings("error")
    def test_tiny_cycles_are_one_tap_without_a_warning(self):
        # the envelope's exponent overflows off centre; exp(-inf) is its 0 tap
        assert morlet_kernel(45, 1e-158, FS).tolist() == [0.0, 1.0, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(extra=st.integers(0, 17000),
           center=st.floats(1.0, 0.45 * FS, exclude_max=True),
           cycles=st.sampled_from([1.0, 4.0, 6.5, 12.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_fftconvolve_bitwise(self, extra, center, cycles, seed):
        half = morlet_half_length(center, cycles, FS)
        x = Signal(np.random.default_rng(seed).standard_normal(2 * half + 1 + extra), FS)
        taps = morlet_kernel(center, cycles, FS)
        want = 2.0 * fftconvolve(np.pad(x.samples, half, mode="reflect"), taps, mode="valid")
        assert np.array_equal(morlet_bandpass(x, center, cycles).values, want)


def _noise(n_samples, fs, seed=0):
    return Signal(np.random.default_rng(seed).standard_normal(n_samples), fs)


class TestSharedMorletSpectrum:
    """A bank fills the Morlet bands of a signal longer than 8 half-lengths
    of the 1 Hz kernel from one padded spectrum of it: the definition's
    convolution to rounding. On a signal no longer, every band is
    morlet_bandpass's, bit for bit."""

    @pytest.mark.parametrize("cycles", [4.0, 7.0])
    @pytest.mark.parametrize("fs", [250.0, 1000.0, 2000.0])
    @pytest.mark.parametrize("side", ["at", "past"])
    def test_bands_equal_the_reflect_padded_convolution(self, side, fs, cycles):
        threshold = 8 * morlet_half_length(1.0, cycles, fs)
        n_samples = threshold + (side == "past")
        x = _noise(n_samples, fs)
        n_taps = _spectrum_taps(n_samples, cycles, fs)
        assert (n_taps is not None) == (side == "past")
        bank = FilterBank(x)
        for center in (1.0, 2.0, 45.0, np.nextafter(fs / 2, 0.0)):
            got = bank.morlet(center, cycles)
            taps = morlet_kernel(center, cycles, fs)
            padded = np.pad(x.samples, half_length(taps), mode="reflect")
            want = 2.0 * fftconvolve(padded, taps, mode="valid")
            if n_taps is None:
                assert np.array_equal(got, morlet_bandpass(x, center, cycles).values)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_a_kernel_wider_than_the_1_hz_one_is_filled_alone(self):
        # a centre below 1 Hz, which only a per-cell call reaches
        x = _noise(8 * morlet_half_length(1.0, 4.0, FS) + 1, FS)
        assert np.array_equal(FilterBank(x).morlet(0.9, 4.0), morlet_bandpass(x, 0.9, 4.0).values)

    def test_a_planned_bank_drops_the_spectrum_after_its_last_morlet_fill(self):
        x = _noise(8 * morlet_half_length(1.0, 4.0, 250.0) + 1, 250.0)
        key = ("signal_spectrum", _spectrum_taps(len(x), 4.0, x.fs))
        planned = FilterBank(x)
        planned.plan({0: [_morlet_key(45, 4.0)]}, [_morlet_key(8, 4.0)])
        planned.morlet(45, 4.0)
        assert key in planned._derived.values
        planned.reduce(("phase", 8.0), _morlet_key(8, 4.0), np.angle)
        assert key not in planned._derived.values
        # without a plan, the spectrum lives as long as the bank
        unplanned = FilterBank(x)
        unplanned.morlet(45, 4.0)
        unplanned.morlet(8, 4.0)
        assert key in unplanned._derived.values


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bw", [np.inf, 1e308])
def test_bandwidth_without_finite_beta_is_refused_before_any_tap(bw):
    with pytest.raises(InvalidInputError, match="bw_hz"):
        bandpass(tone(45, dur=1.0), FilterSpec(center=10, bw_hz=bw))


class TestKernelFits:
    """A kernel longer than the signal is refused before any tap is built,
    however long it is."""

    @pytest.mark.parametrize("bw", [1e-6, 5e-324], ids=["narrow", "denormal"])
    def test_gabor(self, bw):
        with pytest.raises(SignalTooShortError):
            bandpass(tone(45, dur=1.0), FilterSpec(center=45, bw_hz=bw))

    @pytest.mark.parametrize("cycles", [1e9, 1e300, np.inf])
    def test_morlet(self, cycles):
        with pytest.raises(SignalTooShortError):
            morlet_bandpass(tone(45, dur=1.0), 45, cycles)

    def test_infinite_half_length_fits_no_signal(self):
        # the ceil of an infinite extent would overflow
        with pytest.raises(SignalTooShortError):
            gabor_half_length(5e-324, FS)
        with pytest.raises(SignalTooShortError):
            morlet_half_length(45, np.inf, FS)

    def test_aliasing_comes_first(self):
        x = tone(45, dur=1.0)
        with pytest.raises(AliasingError):
            bandpass(x, FilterSpec(center=500, bw_hz=1e-6))
        with pytest.raises(AliasingError):
            morlet_bandpass(x, 500, np.inf)

    @pytest.mark.parametrize("n_samples", [1000, 1001, 1002])
    def test_longest_fitting_kernel_filters(self, n_samples):
        # the float comparison admits exactly the kernels of at most
        # n_samples taps, as the tap count itself would
        x = Signal(np.random.default_rng(n_samples).standard_normal(n_samples), FS)
        for cycles in np.linspace(10.0, 60.0, 201):
            n_taps = 2 * morlet_half_length(45, cycles, FS) + 1
            if n_taps <= n_samples:
                assert len(morlet_bandpass(x, 45, cycles)) == n_samples
            else:
                with pytest.raises(SignalTooShortError):
                    morlet_bandpass(x, 45, cycles)


class TestTriplet:
    def test_envelope_identity(self):
        t = np.arange(10000) / FS
        x = Signal((0.5 + 0.25 * np.sin(2 * np.pi * 8 * t))
                   * np.cos(2 * np.pi * 45 * t), FS)
        out = triplet(x, 8, 45)
        env = np.abs(analytic(out).values)
        expected = 1.0 + 0.25 * np.sin(2 * np.pi * 8 * t)
        err = interior(env - expected)
        assert np.sqrt(np.mean(err * err)) < 0.02

    def test_pure_tone_constant_envelope(self):
        # no sidebands: doubled carrier only, envelope flat at 2 x 0.5
        x = tone(45, amp=0.5)
        env = np.abs(analytic(triplet(x, 8, 45)).values)
        env_i = interior(env)
        assert np.max(np.abs(env_i - 1.0)) < 0.02

    def test_band_preconditions(self):
        x = tone(45, dur=12.0)
        with pytest.raises(OutOfBandError):
            triplet(x, 8, 8)
        with pytest.raises(OutOfBandError):
            triplet(x, 60, 450)
        with pytest.raises(OutOfBandError):
            triplet(x, 0, 45)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(3)
        x = Signal(rng.standard_normal(8000), FS)
        doubled = triplet(Signal(2.0 * x.samples, FS), 8, 45)
        single = triplet(x, 8, 45)
        assert np.allclose(doubled.samples, 2.0 * single.samples, atol=1e-12)

    @pytest.mark.parametrize("m,n,bw", [(8, 45, 1.0), (1, 2, 0.5), (12, 30, 2.0), (20, 470, 1.0)])
    def test_equals_the_bank_triplet_and_three_bandpasses(self, m, n, bw):
        # one rule: the public triplet is the bank's sum, bit for bit, and
        # both are the three separately filtered bands of the definition
        x = Signal(np.random.default_rng(4).standard_normal(6000), FS)
        got = triplet(x, m, n, bw).samples
        bank = FilterBank(x)
        bank.gabor(n, 2.0 * bw)  # a band of another kernel length, read first
        assert np.array_equal(got, bank.triplet(m, n, bw))
        bands = [bandpass(x, FilterSpec(center=c, bw_hz=bw)).samples for c in (n - m, n, n + m)]
        assert np.array_equal(got, bands[0] + 2.0 * bands[1] + bands[2])


def test_default_truncation_meets_stopband():
    # the 4-sigma cut leaks ~7e-6 at 8 Hz detune; the default must not
    assert DEFAULT_TRUNCATION >= 5.0
    beta = np.pi * 1.0 / np.sqrt(2 * np.log(2))
    half4 = int(np.ceil(4 / (beta * np.sqrt(2)) * FS))
    t = np.arange(-half4, half4 + 1) / FS
    taps4 = np.exp(-((beta * t) ** 2)) * np.cos(2 * np.pi * 45 * t)
    k4 = taps4 / np.abs(np.sum(taps4 * np.exp(-2j * np.pi * 45 * t)))
    assert abs(freq_response(k4, 37.0)) > 1e-6
    k5 = gabor_kernel(FilterSpec(center=45, bw_hz=1), FS)
    assert abs(freq_response(k5, 37.0)) < 1e-6
    assert gabor_half_length(1.0, FS) > half4


def test_half_lengths_match_kernels():
    k = gabor_kernel(FilterSpec(center=45, bw_hz=1), FS)
    assert half_length(k) == gabor_half_length(1.0, FS)
    km = morlet_kernel(45, 4, FS)
    assert half_length(km) == morlet_half_length(45, 4, FS)

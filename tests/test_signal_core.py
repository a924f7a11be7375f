"""Analytic-signal containers and operations."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from paclab import (
    METHODS,
    ComplexSeries,
    FilterSpec,
    GridSpec,
    DegeneratePhaseError,
    EmptyResultError,
    InvalidInputError,
    InvalidMethodError,
    MeasureConfig,
    PacAnalyzer,
    PacMatrix,
    Signal,
    Spectrum,
    SynthesisSpec,
    WelchSpec,
    amplitude,
    analytic,
    benchmark_spec,
    bin_amplitude_by_phase,
    coherence,
    compute_matrix,
    cv,
    eps,
    instantaneous_frequency,
    kld,
    mca_pac,
    mvl,
    normalize,
    phase,
    pink_noise,
    plv,
    power,
    run_comparison,
    synth_pac,
    trim,
    vector_length,
    welch_psd,
)
from paclab.signal_core import hilbert
from paclab.synthesis import clean_scale_for

FS = 1000.0


def tone(freq, amp=1.0, dur=10.0, fs=FS, phi=0.0):
    t = np.arange(int(dur * fs)) / fs
    return Signal(amp * np.cos(2 * np.pi * freq * t + phi), fs)


def interior(a, frac=0.8):
    n = len(a)
    k = int(n * (1 - frac) / 2)
    return a[k:n - k]


class TestSignal:
    def test_samples_are_readonly(self):
        x = tone(10)
        with pytest.raises(ValueError):
            x.samples[0] = 99.0

    def test_times_and_duration(self):
        x = Signal(np.zeros(2500), 250.0)
        assert x.duration == 10.0
        assert x.times[0] == 0.0
        assert x.times[1] == pytest.approx(1 / 250.0)
        assert len(x) == 2500

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Signal(np.array([0.0, np.nan]), FS)
        with pytest.raises(InvalidInputError):
            Signal(np.array([0.0, np.inf]), FS)

    def test_rejects_bad_fs(self):
        with pytest.raises(InvalidInputError):
            Signal(np.zeros(4), 0.0)
        with pytest.raises(InvalidInputError):
            Signal(np.zeros(4), -1.0)

    def test_rejects_empty_and_2d(self):
        with pytest.raises(InvalidInputError):
            Signal(np.zeros((2, 2)), FS)
        with pytest.raises(InvalidInputError):
            Signal(np.zeros(0), FS)


# samples that are not real numbers, or not a sequence of them
BAD_SAMPLES = {
    "complex": np.array([1 + 1j, 2.0]),
    "complex-real-valued": np.array([1.0, 2.0 + 0j]),
    "text": ["a", "b"],
    "numeral-text": ["1", "2"],
    "object": np.array([1.0, 2.0], dtype=object),
    "ragged": [[1.0, 2.0], [3.0]],
}

# every public constructor and helper that takes samples, given bad ones
TAKERS = {
    "Signal": lambda bad: Signal(bad, FS),
    "ComplexSeries": lambda bad: ComplexSeries(bad, FS),
    "PacMatrix": lambda bad: PacMatrix([bad, bad], "mca", False, GridSpec(1, 2, 3, 4)),
    "Spectrum": lambda bad: Spectrum([1.0, 2.0], bad, "psd"),
    "plv": lambda bad: plv(bad, [0.0, 1.0]),
    "vector_length": lambda bad: vector_length([0.0, 1.0], bad),
    "bin_amplitude_by_phase": lambda bad: bin_amplitude_by_phase(bad, [1.0, 1.0], 4),
    "PacAnalyzer.fit": lambda bad: PacAnalyzer(fs=FS).fit(bad),
}

REFUSALS = [
    pytest.param(lambda taker=taker, bad=bad: TAKERS[taker](bad), id=f"{taker}-{kind}")
    for taker in TAKERS for kind, bad in BAD_SAMPLES.items()
    # complex values are what a ComplexSeries holds
    if not (taker == "ComplexSeries" and kind.startswith("complex"))
] + [
    pytest.param(lambda series=series, fs=fs: series([1.0, 2.0], fs), id=f"{series.__name__}-{name}")
    for series in (Signal, ComplexSeries)
    for name, fs in (("bool-fs", True), ("text-fs", "1000"))
]


class TestSampleRule:
    """One rule for what paclab takes as samples, in signal_core."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", REFUSALS)
    def test_refused_without_warning(self, call):
        with pytest.raises(InvalidInputError):
            call()

    @pytest.mark.parametrize("given", [
        [1, 0, 3], np.array([1, 0, 3], dtype=np.int16), np.array([1, 0, 1], dtype=bool),
        [True, False, 2.5], np.array([1, 0, 3], dtype=np.float32),
    ])
    def test_real_numbers_are_cast_to_float(self, given):
        want = np.array(given, dtype=float)
        x = Signal(given, FS)
        assert x.samples.dtype == float and np.array_equal(x.samples, want)
        z = ComplexSeries(given, FS)
        assert z.values.dtype == complex and np.array_equal(z.values, want)

    @pytest.mark.parametrize("fs", [1000, np.int64(1000), np.float32(1000.0), np.array(1000.0)])
    def test_any_real_rate_is_a_float(self, fs):
        x = Signal([0.0, 1.0], fs)
        assert type(x.fs) is float and x.fs == 1000.0


# the five settings classes, each with the fields it needs besides the
# one under test
SETTINGS = {
    SynthesisSpec: {"m": 8, "n": 45},
    MeasureConfig: {},
    FilterSpec: {"center": 5.0},
    WelchSpec: {},
    GridSpec: {},
}
# the fields that hold a count or a WelchSpec, not a real number
NOT_REAL = {"kld_bins", "edge_trim", "window_len", "seed", "welch"}
# values no numeric setting takes
BAD_SETTINGS = {
    "bool": True, "numpy-bool": np.True_, "text": "1", "complex": 1j, "None": None,
    "nan": math.nan, "inf": math.inf,
}
SHORT = Signal(np.zeros(64), FS)
# each public function's numeric setting: (function, setting) -> call of bad
SETTING_TAKERS = {
    ("clean_scale_for", "clean_power"): lambda bad: clean_scale_for(bad, 0.25),
    ("clean_scale_for", "ami"): lambda bad: clean_scale_for(630.0, bad),
    ("pink_noise", "target_power"): lambda bad: pink_noise(100, FS, bad, seed=0),
} | {
    (fn.__name__, arg): lambda bad, fn=fn, arg=arg: fn(SHORT, **{"m": 8, "n": 45, arg: bad})
    for fn in (mca_pac, eps, mvl, cv, kld) for arg in ("m", "n")
}


def _setting(cls, name, value):
    return cls(**{**SETTINGS[cls], name: value})


SETTING_REFUSALS = [
    pytest.param(f.name, lambda cls=cls, name=f.name, bad=bad: _setting(cls, name, bad),
                 id=f"{cls.__name__}.{f.name}-{kind}")
    for cls in SETTINGS for f in dataclasses.fields(cls)
    for kind, bad in BAD_SETTINGS.items()
    if not (bad is None and f.default is None)  # None is these fields' default
] + [
    pytest.param(name, lambda call=call, bad=bad: call(bad), id=f"{fn}.{name}-{kind}")
    for (fn, name), call in SETTING_TAKERS.items()
    for kind, bad in BAD_SETTINGS.items()
    if not (bad is None and name == "clean_power")  # None keeps the unit scale
]

REAL_SETTINGS = [
    pytest.param(cls, f.name, SETTINGS[cls].get(f.name, f.default), id=f"{cls.__name__}.{f.name}")
    for cls in SETTINGS for f in dataclasses.fields(cls) if f.name not in NOT_REAL
]


class TestSettingRule:
    """One rule for what paclab takes as a numeric setting, in signal_core."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, call", SETTING_REFUSALS)
    def test_refused_by_name_without_warning(self, name, call):
        with pytest.raises(InvalidInputError, match=rf"^{name}\b"):
            call()

    @pytest.mark.parametrize("cls, name, default", REAL_SETTINGS)
    @pytest.mark.parametrize("kind", [np.float64, np.array])
    def test_numpy_numbers_are_taken_as_given(self, cls, name, default, kind):
        value = kind(default)
        made = _setting(cls, name, value)
        assert made == cls(**SETTINGS[cls])
        # a grid bound is stored as an int; every other setting as given,
        # so a manifest records the number it was given
        if cls is GridSpec:
            assert type(getattr(made, name)) is int
        else:
            assert getattr(made, name) is value

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda: compute_matrix(SHORT, ["mca"]),
        lambda: PacAnalyzer(method=["mca"]).fit(SHORT),
        lambda: run_comparison([(8, 45)], [["mca"]], 1),
        lambda: compute_matrix(SHORT, 1),
    ], ids=["compute_matrix", "PacAnalyzer.fit", "run_comparison", "compute_matrix-int"])
    def test_a_method_is_a_name(self, call):
        with pytest.raises(InvalidMethodError):
            call()


class TestAnalytic:
    def test_pure_tone_envelope_flat(self):
        z = analytic(tone(10, amp=2.0))
        env = interior(np.abs(z.values))
        assert np.max(np.abs(env - 2.0)) < 0.01

    def test_zeros_map_to_zeros(self):
        z = analytic(Signal(np.zeros(1000), FS))
        assert np.allclose(z.values, 0.0)

    def test_two_phasor_envelope(self):
        # same-frequency components add as phasors: |1 + 0.3 e^{i 1.0}|
        t = np.arange(10000) / FS
        x = Signal(np.cos(2 * np.pi * 10 * t)
                   + 0.3 * np.cos(2 * np.pi * 10 * t + 1.0), FS)
        expected = abs(1 + 0.3 * np.exp(1j * 1.0))
        assert expected == pytest.approx(1.1891936, abs=1e-6)
        env = interior(np.abs(analytic(x).values))
        assert np.max(np.abs(env - expected)) < 0.01

    def test_real_part_reproduces_input(self):
        x = tone(25)
        z = analytic(x)
        assert np.allclose(z.values.real, x.samples, atol=1e-10)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            analytic(Signal(np.ones(3), FS))


class TestHilbert:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20000), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_scipy(self, n, seed):
        a = np.random.default_rng(seed).standard_normal(n)
        assert np.array_equal(hilbert(a), scipy.signal.hilbert(a))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10000, 10001])
    def test_bitwise_scipy_at_small_and_stock_lengths(self, n):
        a = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(hilbert(a), scipy.signal.hilbert(a))


class TestPhaseAmplitude:
    def test_amplitude_is_modulus(self):
        z = ComplexSeries(np.array([3 + 4j, 1 + 0j]), FS)
        assert np.allclose(amplitude(z).samples, [5.0, 1.0])

    def test_phase_range(self):
        z = analytic(tone(7))
        p = phase(z).samples
        assert np.all(p >= -np.pi) and np.all(p < np.pi)

    def test_phase_rejects_zero_modulus(self):
        z = ComplexSeries(np.array([1 + 1j, 0 + 0j, 1 - 1j]), FS)
        with pytest.raises(DegeneratePhaseError):
            phase(z)


class TestInstantaneousFrequency:
    def test_constant_tone(self):
        f = instantaneous_frequency(analytic(tone(10))).samples
        assert np.max(np.abs(interior(f) - 10.0)) < 0.05

    def test_linear_chirp(self):
        t = np.arange(10000) / FS
        x = Signal(np.cos(2 * np.pi * (5 * t + 0.5 * t * t)), FS)
        f = instantaneous_frequency(analytic(x)).samples
        expected = 5.0 + t
        err = interior(f - expected)
        assert np.sqrt(np.mean(err * err)) < 0.1

    def test_constant_phasor_is_zero_hz(self):
        z = ComplexSeries(np.full(100, 2 + 1j), FS)
        f = instantaneous_frequency(z).samples
        assert np.allclose(f, 0.0)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            instantaneous_frequency(ComplexSeries(np.array([1j, 1j]), FS))


class TestPowerTrim:
    def test_power_mean_square(self):
        assert power(Signal(np.array([1.0, -1.0, 2.0]), FS)) == pytest.approx(2.0)

    def test_tone_power(self):
        assert power(tone(45, amp=np.sqrt(2))) == pytest.approx(1.0, rel=1e-3)

    def test_trim_drops_both_ends(self):
        x = Signal(np.arange(10, dtype=float), FS)
        y = trim(x, 3)
        assert np.allclose(y.samples, [3, 4, 5, 6])

    def test_trim_zero_is_identity(self):
        x = tone(5, dur=0.1)
        assert trim(x, 0) is x

    def test_trim_consuming_everything(self):
        with pytest.raises(EmptyResultError):
            trim(Signal(np.arange(10, dtype=float), FS), 5)
        with pytest.raises(InvalidInputError):
            trim(Signal(np.arange(10, dtype=float), FS), -1)

    @pytest.mark.parametrize("n_edge", [1.9, 2.0, True, "2"])
    def test_trim_takes_an_integer_edge(self, n_edge):
        with pytest.raises(InvalidInputError):
            trim(Signal(np.arange(10, dtype=float), FS), n_edge)
        assert np.array_equal(trim(Signal(np.arange(10, dtype=float), FS), np.int64(2)).samples,
                              np.arange(2, 8))


class TestAmplitudeBound:
    """check_amplitude's bound, peak² · max(N, N/fs) <= 1e150, checked
    wherever the filter bank or a Welch estimate reads a signal."""

    GRID = GridSpec(6, 10, 42, 48)

    @staticmethod
    def scaled(factor):
        x = synth_pac(benchmark_spec((8, 45), seed=0)).composite
        bound = math.sqrt(1e150 / max(len(x), len(x) / x.fs))
        peak = np.max(np.abs(x.samples))
        return x, Signal(x.samples * (factor * bound / peak), x.fs)

    @pytest.mark.filterwarnings("error")
    def test_just_under_gives_finite_results(self):
        x, big = self.scaled(0.999999)
        for method in METHODS:
            # a matrix holds finite values only, and once normalized every
            # measure is scale-invariant
            got = normalize(compute_matrix(big, method, self.GRID))
            want = normalize(compute_matrix(x, method, self.GRID))
            assert np.allclose(got.values, want.values, rtol=0.0, atol=1e-9), method
        assert np.all(np.isfinite(welch_psd(big).values))
        c = coherence(big, Signal(big.samples[::-1], big.fs))
        assert np.all(np.isfinite(c.values))

    def test_just_over_is_refused(self):
        x, big = self.scaled(1.000001)
        for method in METHODS:
            with pytest.raises(InvalidInputError, match="peak amplitude"):
                compute_matrix(big, method, self.GRID)
        with pytest.raises(InvalidInputError, match="peak amplitude"):
            welch_psd(big)
        for pair in ((big, x), (x, big)):
            with pytest.raises(InvalidInputError, match="peak amplitude"):
                coherence(*pair)

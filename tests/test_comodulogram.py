"""Grid evaluation, matrix containers, peak readout, and method comparison."""

import collections
import dataclasses
import inspect
import math
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import paclab.comodulogram
import paclab.filters
import paclab.measures
from paclab import (
    FilterBank,
    GridSpec,
    InvalidInputError,
    InvalidMethodError,
    MeasureConfig,
    PacAnalyzer,
    PacMatrix,
    Signal,
    SynthesisSpec,
    argmax,
    benchmark_spec,
    compute_matrix,
    cv,
    eps,
    kld,
    localization_error,
    mca_pac,
    mvl,
    normalize,
    pink_noise,
    run_comparison,
    synth_pac,
)
from paclab.comodulogram import (
    MAX_JOBS,
    MAX_RUNS,
    MAX_SEEDS,
    METHODS,
    comparison_plan,
)
from paclab.synthesis import (
    BENCHMARK_AMI,
    BENCHMARK_CLEAN_POWER,
    BENCHMARK_DURATION,
    BENCHMARK_FS,
    BENCHMARK_NOISE_POWER,
    BENCHMARK_PAIRS,
)
from paclab.measures import _ZERO_CELL_ERRORS

FS = 1000.0

# comparison_plan's signal settings: the benchmark's
STOCK_SIGNAL = (BENCHMARK_AMI, BENCHMARK_DURATION, BENCHMARK_FS, BENCHMARK_NOISE_POWER,
                BENCHMARK_CLEAN_POWER)

# tight window around the (8, 45) benchmark cell keeps grid tests fast
SMALL = GridSpec(m_start=6, m_stop=10, n_start=42, n_stop=48)


def coupled(seed=None, noise=6250.0):
    spec = benchmark_spec((8, 45), seed=seed)
    if noise == 0.0:
        spec = type(spec)(
            m=spec.m, n=spec.n, ami=spec.ami, duration=spec.duration,
            fs=spec.fs, noise_power=0.0, clean_scale=spec.clean_scale,
        )
    return synth_pac(spec).composite


class TestGridSpec:
    def test_defaults_span_fifty(self):
        g = GridSpec()
        assert list(g.m_values) == list(range(1, 51))
        assert list(g.n_values) == list(range(1, 51))

    def test_rejects_bad_bounds(self):
        with pytest.raises(InvalidInputError):
            GridSpec(m_start=0)
        with pytest.raises(InvalidInputError):
            GridSpec(m_start=5, m_stop=4)
        with pytest.raises(InvalidInputError):
            GridSpec(n_start=10, n_stop=9)
        # a bool counts nothing, though True == 1
        with pytest.raises(InvalidInputError):
            GridSpec(m_start=True)
        with pytest.raises(InvalidInputError):
            GridSpec(1, 3, True, 4)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan, np.float64(math.nan),
                                       None, 1 + 0j])
    @pytest.mark.parametrize("field", ["m_start", "m_stop", "n_start", "n_stop"])
    def test_rejects_non_finite_and_non_real_bounds(self, field, bound):
        # int() raises OverflowError for inf, ValueError for nan and
        # TypeError for None or a complex; each is a bad bound, refused
        # like any other
        with pytest.raises(InvalidInputError, match="grid bounds must be integers >= 1"):
            GridSpec(**{field: bound})

    def test_stores_integral_bounds_as_int(self):
        g = GridSpec(6.0, np.int64(8), 44.0, 46)
        assert g == GridSpec(6, 8, 44, 46)
        assert all(type(v) is int for v in dataclasses.astuple(g))


class TestPacMatrix:
    def grid(self):
        return GridSpec(m_start=1, m_stop=3, n_start=2, n_stop=4)

    def test_shape_must_match_grid(self):
        with pytest.raises(InvalidInputError):
            PacMatrix(np.zeros((2, 3)), "mca", False, self.grid())

    def test_rejects_negative_and_nonfinite(self):
        vals = np.zeros((3, 3))
        vals[2, 0] = -0.1
        with pytest.raises(InvalidInputError):
            PacMatrix(vals, "mca", False, self.grid())
        vals = np.zeros((3, 3))
        vals[2, 0] = np.nan
        with pytest.raises(InvalidInputError):
            PacMatrix(vals, "mca", False, self.grid())

    def test_rejects_mass_on_or_below_diagonal(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = 0.5  # m=2, n=2
        with pytest.raises(InvalidInputError):
            PacMatrix(vals, "mca", False, self.grid())

    @pytest.mark.parametrize("grid", [
        GridSpec(1, 3, 2, 4), GridSpec(5, 9, 1, 3), GridSpec(3, 8, 2, 9),
        GridSpec(1, 12, 30, 50), GridSpec(4, 4, 4, 4),
    ], ids=str)
    def test_triangle_rule_is_the_meshgrid_rule(self, grid):
        # the rule as it was written, on two int64 index grids
        mm, nn = np.meshgrid(grid.m_values, grid.n_values)
        upper = np.argwhere(mm >= nn)
        rng = np.random.default_rng(0)
        outcomes = set()
        for trial in range(40):
            vals = np.where(rng.random(grid.shape) < 0.3, rng.random(grid.shape), 0.0)
            if trial % 2:
                vals[mm >= nn] = 0.0
            if trial % 4 == 3 and len(upper):
                vals[tuple(upper[trial % len(upper)])] = 0.5
            accepted = not np.any(vals[mm >= nn] != 0.0)
            try:
                PacMatrix(vals, "mca", False, grid)
            except InvalidInputError:
                assert not accepted
            else:
                assert accepted
            outcomes.add(accepted)
        assert outcomes == ({True, False} if len(upper) else {True})

    def test_triangle_check_allocates_no_index_grids(self):
        grid = GridSpec(1, 1000, 1, 1000)
        vals = np.zeros(grid.shape)
        tracemalloc.start()
        try:
            PacMatrix(vals, "mca", False, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MB copy of the values and 1 MB per boolean matrix; two int64
        # index grids would add 16 MB
        assert peak < 12e6

    def test_values_are_readonly(self):
        mat = PacMatrix(np.zeros((3, 3)), "mca", False, self.grid())
        with pytest.raises(ValueError):
            mat.values[0, 0] = 1.0

    def test_cell_addresses_by_frequency(self):
        vals = np.zeros((3, 3))
        vals[1, 0] = 0.7  # m=1, n=3
        mat = PacMatrix(vals, "mca", False, self.grid())
        assert mat.cell(1, 3) == 0.7
        assert mat.cell(2, 4) == 0.0
        assert mat.cell(np.int64(1), np.int32(3)) == 0.7

    # a fractional or bool address between the integer cells is off the grid too
    @pytest.mark.parametrize("m, n", [(1, 1), (9, 9), (0, 3), (4, 3), (2, 5), (math.nan, 3),
                                      (1.5, 3), (1.9, 3.5), (1, 3.0), (True, 3), (1, "3")])
    def test_cell_off_the_grid_is_refused(self, m, n):
        mat = PacMatrix(np.zeros((3, 3)), "mca", False, self.grid())
        with pytest.raises(InvalidInputError, match="off the grid m=1:3,n=2:4"):
            mat.cell(m, n)


class TestFilterBank:
    def test_caches_by_key(self):
        bank = FilterBank(pink_noise(4000, FS, 1.0, seed=0))
        a = bank.gabor(8.0, 1.0)
        b = bank.gabor(8.0, 1.0)
        assert a is b
        assert bank.n_filterings == 1
        bank.gabor(8.0, 2.0)
        bank.morlet(45.0, 4.0)
        assert bank.n_filterings == 3

    def test_derived_values_are_computed_once(self):
        bank = FilterBank(pink_noise(4000, FS, 1.0, seed=0))
        calls = []

        def compute():
            calls.append(1)
            return None

        assert bank.derived(("gate", 8.0), compute) is None
        assert bank.derived(("gate", 8.0), compute) is None
        assert len(calls) == 1
        assert bank.n_filterings == 0

    def test_lives_in_filters_and_stays_importable(self):
        import paclab.comodulogram
        import paclab.filters

        assert FilterBank is paclab.filters.FilterBank
        assert paclab.comodulogram.FilterBank is paclab.filters.FilterBank


class TestBankHoldsWhatIsRead:
    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_shared_spectra_and_power_only_wide_bands(self, monkeypatch, jobs):
        spec = dataclasses.replace(benchmark_spec((8, 45), seed=51), duration=30.0)
        x = synth_pac(spec).composite
        banks, spectra, fills = [], [], []
        # (thread, width read, widths of the Gabor bands held) after each
        # Gabor read, each fill among them
        held = []
        lock = threading.Lock()

        class RecordingBank(FilterBank):
            def __init__(self, *args):
                super().__init__(*args)
                banks.append(self)

            def gabor(self, center, bw):
                band = super().gabor(center, bw)
                widths = collections.Counter(
                    k[2] for k in list(self._cache.values) if k[0] == "gabor")
                with lock:
                    held.append((threading.get_ident(), bw, widths))
                return band

        class RecordingSpectrum(paclab.filters.ReflectedSpectrum):
            def __init__(self, samples, n_taps):
                with lock:
                    spectra.append((samples is x.samples, n_taps))
                super().__init__(samples, n_taps)

        real_gabor_band = paclab.filters._gabor_band

        def counting(*args):
            with lock:
                fills.append(1)
            return real_gabor_band(*args)

        monkeypatch.setattr(paclab.comodulogram, "FilterBank", RecordingBank)
        monkeypatch.setattr(paclab.filters, "ReflectedSpectrum", RecordingSpectrum)
        monkeypatch.setattr(paclab.filters, "_gabor_band", counting)
        mat = compute_matrix(x, "mca", GridSpec(1, 12, 30, 50), jobs=jobs)
        (bank,) = banks
        # a 2 * bw band is held only while a thread reduces it to its power
        threads = {thread for thread, *_ in held}
        assert {bw for _, bw, _ in held} == {1.0, 2.0}
        assert all(set(widths) <= {1.0, 2.0} for *_, widths in held)
        assert all(widths[2.0] <= len(threads) for *_, widths in held)
        if jobs == 1:
            assert all(widths[2.0] == 0 for _, bw, widths in held if bw == 1.0)
        assert not bank._cache.values  # past the sweep no band is held
        signal_spectra = [n_taps for own, n_taps in spectra if own]
        assert sorted(signal_spectra) == sorted(set(signal_spectra))
        assert len(signal_spectra) == 2  # one per kernel length: bw and 2 * bw
        assert mat.meta["cached_filterings"] == len(fills) == bank.n_filterings
        assert len(fills) > len(bank._cache.values)


class TestComputeMatrix:
    def test_unknown_method(self):
        with pytest.raises(InvalidMethodError):
            compute_matrix(coupled(seed=0), method="magic")

    def test_grid_beyond_nyquist(self):
        x = Signal(np.zeros(4000), 100.0)
        with pytest.raises(InvalidInputError):
            compute_matrix(x, grid=GridSpec(n_start=40, n_stop=50))

    def test_finds_benchmark_peak(self):
        mat = compute_matrix(coupled(noise=0.0), grid=SMALL)
        m, n, v = argmax(mat)
        assert (m, n) == (8, 45)
        assert v > 0.95

    def test_triangle_stays_zero(self):
        x = pink_noise(10000, FS, 1.0, seed=1)
        g = GridSpec(m_start=1, m_stop=12, n_start=1, n_stop=12)
        mat = compute_matrix(x, grid=g)
        mm, nn = np.meshgrid(g.m_values, g.n_values)
        assert np.all(mat.values[mm >= nn] == 0.0)

    def test_out_of_band_cells_score_zero(self):
        x = pink_noise(1200, 120.0, 1.0, seed=2)
        g = GridSpec(m_start=1, m_stop=10, n_start=55, n_stop=58)
        mat = compute_matrix(x, grid=g)
        # n + m crosses Nyquist at 60 Hz for the larger modulators
        assert mat.cell(10, 55) == 0.0
        assert mat.cell(8, 55) == 0.0

    def test_cache_changes_nothing(self):
        x = coupled(seed=3)
        a = compute_matrix(x, grid=SMALL, use_cache=True)
        b = compute_matrix(x, grid=SMALL, use_cache=False)
        assert np.array_equal(a.values, b.values)

    def test_parallel_matches_serial(self):
        x = coupled(seed=4)
        serial = compute_matrix(x, grid=SMALL, jobs=1)
        for jobs in (None, 4):
            pooled = compute_matrix(x, grid=SMALL, jobs=jobs)
            assert np.array_equal(pooled.values, serial.values)

    def test_filtering_cost_stays_near_linear(self):
        mat = compute_matrix(coupled(seed=5))
        used = mat.meta["cached_filterings"]
        # 2450 cells x 6 bands would be 3675 distinct filterings uncached
        assert 0 < used <= 200

    def test_meta_records_provenance(self):
        mat = compute_matrix(coupled(seed=6), grid=SMALL)
        assert mat.meta["fs"] == FS
        assert mat.meta["n_samples"] == 10000
        assert mat.meta["config"]["mca_bw"] == 1.0
        assert mat.method == "mca"
        assert not mat.normalized


CELL_FNS = {"mca": mca_pac, "eps": eps, "mvl": mvl, "cv": cv, "kld": kld}


def _low_rate_signal():
    # 250 Hz: on the grid below n + m reaches Nyquist (125 Hz) for the
    # larger m, so those mca cells are out of band and score 0
    spec = SynthesisSpec(m=8, n=110, ami=0.25, duration=40.0, fs=250.0,
                         noise_power=1.0, clean_scale=1.0, seed=0)
    return synth_pac(spec).composite


# the stock grid has rows with no cell, rows with some cells (m < n) and
# the true cell (8, 45)
COLUMN_CASES = {
    "stock": (lambda: coupled(seed=0), GridSpec(7, 9, 6, 46)),
    "nyquist": (_low_rate_signal, GridSpec(4, 12, 110, 120)),
}


def cell_by_cell(x, method, grid, cfg):
    """The matrix from the public per-cell measure, uncached."""
    out = np.zeros((len(grid.n_values), len(grid.m_values)))
    for i, n in enumerate(grid.n_values):
        for j, m in enumerate(grid.m_values):
            if m < n:
                try:
                    out[i, j] = CELL_FNS[method](x, int(m), int(n), cfg)
                except _ZERO_CELL_ERRORS:
                    pass
    return out


class TestColumnProtocol:
    @pytest.mark.parametrize("case", sorted(COLUMN_CASES))
    @pytest.mark.parametrize("method", sorted(CELL_FNS))
    @pytest.mark.parametrize("edge_trim", [None, 0], ids=["default", "no-trim"])
    def test_columns_equal_the_per_cell_measure(self, case, method, edge_trim):
        make, grid = COLUMN_CASES[case]
        x = make()
        cfg = MeasureConfig(edge_trim=edge_trim)
        want = cell_by_cell(x, method, grid, cfg)
        assert want.any()
        for jobs in (None, 1, 2):
            got = compute_matrix(x, method, grid, cfg, jobs=jobs)
            assert np.array_equal(got.values, want)

    @pytest.mark.parametrize("method", ["mca", "eps"])
    def test_many_threads_share_one_bank(self, method):
        # more workers than cores, switching threads as often as possible:
        # columns fill the bank's bands and per-m values concurrently
        x = coupled(seed=1)
        grid = GridSpec(6, 10, 40, 47)
        want = compute_matrix(x, method, grid, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = compute_matrix(x, method, grid, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("method", ["mca", "eps"])
    def test_column_pool_fills_each_band_once(self, monkeypatch, method):
        # with two workers the first two columns walk the same m values in
        # step, so both miss the same slow bands at the same moment
        calls = []
        lock = threading.Lock()
        for name in ("_gabor_band", "morlet_bandpass"):
            real = getattr(paclab.filters, name)

            def counting(*args, _real=real, **kwargs):
                with lock:
                    calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(paclab.filters, name, counting)
        spec = dataclasses.replace(benchmark_spec((8, 45), seed=51), duration=30.0)
        x = synth_pac(spec).composite
        grid = GridSpec(1, 12, 30, 50)
        serial = compute_matrix(x, method, grid, jobs=1)
        n_serial = len(calls)
        calls.clear()
        pooled = compute_matrix(x, method, grid, jobs=2)
        assert len(calls) == n_serial == serial.meta["cached_filterings"]
        assert np.array_equal(pooled.values, serial.values)

    def test_nyquist_case_has_out_of_band_mca_cells(self):
        make, grid = COLUMN_CASES["nyquist"]
        x = make()
        assert grid.n_stop + grid.m_stop >= x.fs / 2
        with pytest.raises(paclab.OutOfBandError):
            mca_pac(x, grid.m_stop, grid.n_stop)

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_cv_computes_one_coherence_per_column(self, monkeypatch, jobs):
        calls = []
        real = paclab.measures.coherence

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(paclab.measures, "coherence", counting)
        grid = GridSpec(1, 10, 1, 12)
        # a flat signal's coherence raises; the column keeps that error too
        for x in (coupled(seed=0), Signal(np.zeros(10000), 1000.0)):
            calls.clear()
            compute_matrix(x, "cv", grid, jobs=jobs)
            # n = 1 has no cell with m < n; n = 2..12 each have at least one
            assert len(calls) == 11


# the stock and Nyquist grids of TestColumnProtocol, the benchmark's long
# grid, whose slow bands (m 1..12) no column reads as a triplet band, and
# a grid from m = 5 where a column reads the band at c as its mid band
# before the next column reduces it as the slow band at m = c
LIVENESS_CASES = dict(COLUMN_CASES, narrow=(lambda: coupled(seed=0), GridSpec(1, 12, 30, 50)),
                      mid=(lambda: coupled(seed=0), GridSpec(5, 12, 1, 14)))


def _record_fills(monkeypatch):
    """Counter of the bank keys filled through paclab.filters from now on."""
    fills = collections.Counter()
    lock = threading.Lock()
    real_gabor_band = paclab.filters._gabor_band
    real_morlet = paclab.filters.morlet_bandpass

    def gabor_band(padded, spec, fs):
        with lock:
            fills[paclab.filters._gabor_key(spec.center, spec.bw_hz)] += 1
        return real_gabor_band(padded, spec, fs)

    def morlet_bandpass(x, center, cycles):
        with lock:
            fills[paclab.filters._morlet_key(center, cycles)] += 1
        return real_morlet(x, center, cycles)

    monkeypatch.setattr(paclab.filters, "_gabor_band", gabor_band)
    monkeypatch.setattr(paclab.filters, "morlet_bandpass", morlet_bandpass)
    return fills


class TestBandLiveness:
    @pytest.mark.parametrize("case", sorted(LIVENESS_CASES))
    @pytest.mark.parametrize("method", sorted(CELL_FNS))
    def test_no_band_is_filled_twice(self, monkeypatch, case, method):
        make, grid = LIVENESS_CASES[case]
        x = make()
        fills = _record_fills(monkeypatch)
        want = None
        for jobs in (None, 1, 2, 8):
            fills.clear()
            interval = sys.getswitchinterval()
            if jobs == 8:  # switch threads as often as possible
                sys.setswitchinterval(1e-6)
            try:
                mat = compute_matrix(x, method, grid, jobs=jobs)
            finally:
                sys.setswitchinterval(interval)
            assert fills and max(fills.values()) == 1
            assert mat.meta["cached_filterings"] == sum(fills.values())
            if want is None:
                want = mat.values
            assert np.array_equal(mat.values, want)

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_bank_holds_the_bands_pending_columns_read(self, monkeypatch, jobs):
        spec = dataclasses.replace(benchmark_spec((8, 45), seed=51), duration=30.0)
        x = synth_pac(spec).composite
        grid = GridSpec(1, 12, 30, 50)
        m_max = grid.m_stop
        lock = threading.Lock()
        returned = []  # columns that have returned, in the order they did
        # ("fill" or "done", columns returned, derived keys, Gabor band
        # centres held) after each fill and each column
        held = []
        banks = []

        class RecordingBank(FilterBank):
            def __init__(self, *args):
                super().__init__(*args)
                banks.append(self)

            def _record(self, kind):
                # in this order: a column is listed once its drops are
                # made, a form once its band is dropped
                with lock:
                    gone = set(returned)
                derived = set(list(self._derived.values))
                centres = {k[1] for k in list(self._cache.values) if k[0] == "gabor"}
                with lock:
                    held.append((kind, gone, derived, centres))

            def gabor(self, center, bw):
                band = super().gabor(center, bw)
                self._record("fill")
                return band

            def done(self, column):
                super().done(column)
                with lock:
                    returned.append(column)
                self._record("done")

        monkeypatch.setattr(paclab.comodulogram, "FilterBank", RecordingBank)
        compute_matrix(x, "mca", grid, jobs=jobs)
        (bank,) = banks
        # past the sweep the bank holds no band; nbytes counts every array
        # the bank derived: the slow phasors, the signal spectra and the
        # envelope kernel spectra
        assert not bank._cache.values
        derived = bank._derived.values
        forms = [v[1] for k, v in derived.items() if k[0] == "mca_slow" and v[1] is not None]
        forms += [v.values for k, v in derived.items() if k[0] == "signal_spectrum"]
        forms += [v for k, v in derived.items() if k[0] == "gabor_spectrum"]
        assert forms
        assert bank.nbytes == sum(a.nbytes for a in forms)
        # each column is released as soon as it returns, every one of them,
        # while later columns still fill bands; serially in ascending order
        columns = list(range(len(grid.n_values)))
        assert sorted(returned) == columns
        if jobs == 1:
            assert returned == columns
        assert any(kind == "fill" and gone for kind, gone, *_ in held)
        slow = set(grid.m_values.astype(float))
        for _, gone, derived, centres in held:
            # the triplet centres of the columns left to return
            pending = {float(n + d) for i, n in enumerate(grid.n_values) if i not in gone
                       for d in range(-m_max, m_max + 1)}
            triplets = centres - slow
            if jobs == 1:
                assert len(triplets) <= 2 * m_max + 1
            # a triplet band no pending column reads is gone
            assert triplets <= pending
            # a slow band, once reduced, is gone: no column reads it directly
            reduced = {k[1] for k in derived if k[0] == "mca_slow"}
            assert not centres & reduced

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_eps_sweep_ends_holding_its_phasors_and_spectra(self, monkeypatch, jobs):
        spec = dataclasses.replace(benchmark_spec((8, 45), seed=51), duration=30.0)
        x = synth_pac(spec).composite
        grid = GridSpec(1, 12, 30, 50)
        banks = []

        class RecordingBank(FilterBank):
            def __init__(self, *args):
                super().__init__(*args)
                banks.append(self)

        monkeypatch.setattr(paclab.comodulogram, "FilterBank", RecordingBank)
        compute_matrix(x, "eps", grid, jobs=jobs)
        (bank,) = banks
        # past the sweep the bank holds no band; nbytes counts the slow
        # phasors, one per m, and the envelope kernel spectra
        assert not bank._cache.values
        derived = bank._derived.values
        assert {k[0] for k in derived} == {"eps_phasor", "gabor_spectrum"}
        phasors = [v for k, v in derived.items() if k[0] == "eps_phasor"]
        assert len(phasors) == len(grid.m_values)
        assert all(p.dtype == complex and p.shape == (len(x),) for p in phasors)
        spectra = [v for k, v in derived.items() if k[0] == "gabor_spectrum"]
        assert bank.nbytes == sum(a.nbytes for a in phasors + spectra)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("case", ["narrow", "mid"])
    @pytest.mark.parametrize("method", ["eps", "kld", "mvl"])
    def test_bank_drops_reduced_morlet_bands(self, monkeypatch, method, case, jobs):
        make, grid = LIVENESS_CASES[case]
        x = make()
        measure = paclab.comodulogram._MEASURES[method]
        lock = threading.Lock()
        # m of every cell that has returned: its slow band at m is reduced
        reduced = set()
        returned = set()  # columns that have returned
        # (reduced m, columns returned, Morlet band centres held) after
        # each Morlet fill and each column
        held = []

        def logging_cells(x, n, cfg, bank):
            cell = measure.cells(x, n, cfg, bank)

            def logged(m):
                value = cell(m)
                with lock:
                    reduced.add(float(m))
                return value

            return logged

        class RecordingBank(FilterBank):
            def _record(self):
                with lock:
                    before, gone = set(reduced), set(returned)
                with self._lock:  # a column's drops are all made or none
                    centres = {k[1] for k in list(self._cache.values) if k[0] == "morlet"}
                    held.append((before, gone, centres))

            def morlet(self, center, cycles):
                band = super().morlet(center, cycles)
                self._record()
                return band

            def done(self, column):
                super().done(column)
                with lock:
                    returned.add(column)
                self._record()

        monkeypatch.setitem(paclab.comodulogram._MEASURES, method,
                            measure._replace(cells=logging_cells))
        monkeypatch.setattr(paclab.comodulogram, "FilterBank", RecordingBank)
        compute_matrix(x, method, grid, jobs=jobs)
        assert any(before for before, *_ in held)
        # the column at c is the only one reading the band at c directly
        columns = {i: float(n) for i, n in enumerate(grid.n_values) if n > grid.m_start}
        assert returned == set(columns)
        for before, gone, centres in held:
            pending = {n for i, n in columns.items() if i not in gone}
            assert centres & before <= pending
            if jobs == 1:
                # the band at n and the slow band being reduced
                assert len(centres) <= 2

    @pytest.mark.parametrize("method", METHODS)
    def test_a_returned_column_frees_its_bands_before_earlier_columns_return(
            self, monkeypatch, method):
        # column 0 waits until the later columns have returned: their bands
        # that column 0 does not read must be gone by then
        x = coupled(seed=0)
        grid = GridSpec(7, 8, 44, 47)
        measure = paclab.comodulogram._MEASURES[method]
        later = len(grid.n_values) - 1
        released = threading.Event()
        held = []  # band keys held once the later columns have all returned
        returned = set()

        def blocking_cells(x, n, cfg, bank):
            if n == grid.n_start:
                released.wait(10)
            return measure.cells(x, n, cfg, bank)

        class RecordingBank(FilterBank):
            def done(self, column):
                super().done(column)
                returned.add(column)
                if returned == set(range(1, later + 1)):
                    held.append(set(self._cache.values))
                    released.set()

        monkeypatch.setitem(paclab.comodulogram._MEASURES, method,
                            measure._replace(cells=blocking_cells))
        monkeypatch.setattr(paclab.comodulogram, "FilterBank", RecordingBank)
        mat = compute_matrix(x, method, grid, jobs=2)
        assert released.is_set()  # the later columns returned before column 0
        first, _ = measure.reads(grid.n_start, [7, 8], MeasureConfig())
        (keys,) = held
        assert keys <= set(first)
        if method == "mca":
            assert keys  # the bands column 0 is still to read are kept
        assert np.array_equal(mat.values, compute_matrix(x, method, grid, jobs=1).values)

    @pytest.mark.parametrize("method", sorted(CELL_FNS))
    def test_one_cell_bank_keeps_only_bands_read_directly(self, monkeypatch, method):
        x = coupled(seed=0)
        banks = []

        class RecordingBank(FilterBank):
            def __init__(self, *args):
                super().__init__(*args)
                self.asked = set()  # band keys the cell asked for
                banks.append(self)

            def gabor(self, center, bw):
                self.asked.add(paclab.filters._gabor_key(center, bw))
                return super().gabor(center, bw)

            def morlet(self, center, cycles):
                self.asked.add(paclab.filters._morlet_key(center, cycles))
                return super().morlet(center, cycles)

        monkeypatch.setattr(paclab.measures, "FilterBank", RecordingBank)
        CELL_FNS[method](x, 8, 45)
        # at (8, 16), n = 2m: mca's slow band at m is its triplet's lower band
        compute_matrix(x, method, GridSpec(7, 8, 15, 16), jobs=1, use_cache=False)
        reads = paclab.comodulogram._MEASURES[method].reads
        cells = [(8, 45), (7, 15), (8, 15), (7, 16), (8, 16)]
        assert len(banks) == len(cells)
        for bank, (m, n) in zip(banks, cells):
            direct, _ = reads(n, [m], MeasureConfig())
            # a band read only to be reduced is gone once reduced, and no
            # band was filled twice
            assert set(bank._cache.values) <= set(direct)
            assert bank.n_filterings == len(bank.asked)


class TestPooledColumnOrder:
    """Pooled columns start at staggered m, so the first wave fills
    different per-m entries; serial columns walk m in ascending order."""

    @staticmethod
    def _cell_order(monkeypatch, method, x, grid, jobs):
        """The m values each column evaluated, in order, by n."""
        order = collections.defaultdict(list)
        lock = threading.Lock()
        measure = paclab.comodulogram._MEASURES[method]

        def logging_cells(x, n, cfg, bank):
            cell = measure.cells(x, n, cfg, bank)

            def logged(m):
                with lock:
                    order[n].append(m)
                return cell(m)

            return logged

        monkeypatch.setitem(paclab.comodulogram._MEASURES, method,
                            measure._replace(cells=logging_cells))
        compute_matrix(x, method, grid, jobs=jobs)
        return order

    @pytest.mark.parametrize("method", ["mca", "eps"])
    def test_pooled_columns_start_at_staggered_m(self, monkeypatch, method):
        grid = GridSpec(1, 8, 30, 35)
        ms = [int(m) for m in grid.m_values]
        x = coupled(seed=0)
        serial = self._cell_order(monkeypatch, method, x, grid, 1)
        assert all(serial[n] == ms for n in grid.n_values)
        pooled = self._cell_order(monkeypatch, method, x, grid, 2)
        first, second = (pooled[n] for n in grid.n_values[:2])
        assert first[0] != second[0]
        # each column is a rotation of m ascending: every cell once
        for n in grid.n_values:
            s = ms.index(pooled[n][0])
            assert pooled[n] == ms[s:] + ms[:s]

    @pytest.mark.parametrize("method", METHODS)
    def test_pooled_errors_are_the_serial_errors(self, method):
        # 1.5 s: the Morlet kernels of the low m do not fit, and their
        # length, in the message, depends on m
        x = pink_noise(1500, 1000.0, 1.0, seed=0)
        grid = GridSpec(1, 12, 20, 40)
        with pytest.raises(paclab.PacError) as serial:
            compute_matrix(x, method, grid, jobs=1)
        for jobs in (None, 2, 8):
            with pytest.raises(type(serial.value), match=f"^{re.escape(str(serial.value))}$"):
                compute_matrix(x, method, grid, jobs=jobs)

    @pytest.mark.parametrize("method", ["eps", "mvl", "kld"])
    def test_a_column_raises_its_first_failing_m(self, method):
        # a column started at m = 2 still reports the kernel of m = 1, not
        # that of m = 2, which does not fit either
        x = pink_noise(1500, 1000.0, 1.0, seed=0)
        cells = paclab.comodulogram._MEASURES[method][0]
        cfg = MeasureConfig()
        ms = list(range(1, 13))
        with pytest.raises(paclab.SignalTooShortError) as ascending:
            paclab.measures._column(cells, x, 20, ms, cfg, FilterBank(x))
        with pytest.raises(paclab.SignalTooShortError) as rotated:
            paclab.measures._column(cells, x, 20, ms, cfg, FilterBank(x), start=1)
        assert str(rotated.value) == str(ascending.value)
        with pytest.raises(paclab.SignalTooShortError) as from_two:
            paclab.measures._column(cells, x, 20, ms[1:], cfg, FilterBank(x))
        assert str(from_two.value) != str(ascending.value)


class TestDefaultJobs:
    """jobs=None runs mca and eps on every usable CPU, the calling thread
    among them, and mvl, cv and kld too on signals of 2**15 samples or
    more; on shorter signals mvl, cv and kld run on the calling thread
    alone."""

    @staticmethod
    def _pools(monkeypatch, cpus):
        """The pools compute_matrix builds from now on, each as the list
        of its submits, with `cpus` usable CPUs."""
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.submits = []
                pools.append(self.submits)

            def submit(self, fn, /, *args, **kwargs):
                self.submits.append(self._max_workers)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(paclab.comodulogram, "ThreadPoolExecutor", RecordingPool)
        return pools

    @pytest.mark.parametrize("method, n_samples", [
        *(pytest.param(method, 10_000, id=method) for method in METHODS),
        *(pytest.param(method, 1 << 15, id=f"{method}-long") for method in ("mvl", "cv", "kld")),
    ])
    def test_transform_methods_pool_on_every_cpu(self, monkeypatch, method, n_samples):
        spec = dataclasses.replace(benchmark_spec((8, 45), seed=0), duration=n_samples / FS)
        x = synth_pac(spec).composite
        assert len(x) == n_samples
        serial = compute_matrix(x, method, SMALL, jobs=1)
        pools = self._pools(monkeypatch, 4)
        mat = compute_matrix(x, method, SMALL)
        # the calling thread is the fourth worker
        pooled = method in ("mca", "eps") or n_samples >= 1 << 15
        assert pools == ([[3, 3, 3]] if pooled else [])
        assert np.array_equal(mat.values, serial.values)
        assert mat.meta == serial.meta

    @pytest.mark.parametrize("method", METHODS)
    def test_one_cpu_builds_no_pool(self, monkeypatch, method):
        pools = self._pools(monkeypatch, 1)
        compute_matrix(coupled(seed=0), method, SMALL)
        assert pools == []

    @pytest.mark.parametrize("method", ["mca", "eps"])
    def test_workers_are_capped_by_the_columns(self, monkeypatch, method):
        pools = self._pools(monkeypatch, 4)
        compute_matrix(coupled(seed=0), method, GridSpec(6, 10, 44, 45))
        assert sum(len(submits) for submits in pools) <= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_columns_pool_from_their_pool_from_samples(self, monkeypatch, method):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        measure = paclab.comodulogram._MEASURES[method]
        pool_from = {"mca": 0, "eps": 0, "mvl": 1 << 15, "cv": 1 << 15, "kld": 1 << 15}[method]
        assert measure.pool_from == pool_from
        for n_samples in (0, (1 << 15) - 1, 1 << 15, 10**9):
            want = 4 if n_samples >= pool_from else 1
            assert paclab.comodulogram._default_jobs(measure, 50, n_samples) == want

    def test_cpus_are_capped_by_max_jobs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4 * MAX_JOBS)))
        mca = paclab.comodulogram._MEASURES["mca"]
        assert paclab.comodulogram._default_jobs(mca, 10 * MAX_JOBS, 10_000) == MAX_JOBS
        assert paclab.comodulogram._default_jobs(mca, 3, 10_000) == 3
        assert paclab.comodulogram._default_jobs(mca, 0, 10_000) == 1

    @pytest.mark.parametrize("count, want", [(4, 4), (None, 1)])
    def test_cpu_count_without_an_affinity_call(self, monkeypatch, count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        for method, measure in paclab.comodulogram._MEASURES.items():
            got = paclab.comodulogram._default_jobs(measure, 50, 10_000)
            assert got == (want if method in ("mca", "eps") else 1)


def test_serial_cv_matrix_copies_nothing_it_holds():
    # a cv column hands its trimmed signal and |zn| to coherence as
    # views, and the STFT lets its segments go before the transposed
    # copy: a serial cv matrix traced 83 bytes per sample while it
    # copied both, 58 since
    n_samples = 1 << 17
    spec = dataclasses.replace(benchmark_spec((8, 45), seed=0), duration=n_samples / FS)
    x = synth_pac(spec).composite
    tracemalloc.start()
    try:
        compute_matrix(x, "cv", GridSpec(1, 12, 30, 50), jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n_samples


class TestNormalize:
    def test_peak_becomes_exactly_one(self):
        mat = compute_matrix(coupled(seed=7), grid=SMALL)
        norm = normalize(mat)
        assert norm.values.max() == 1.0
        assert norm.normalized
        # ratios survive
        i, j = np.unravel_index(np.argmax(mat.values), mat.values.shape)
        ref = mat.values / mat.values[i, j]
        assert np.allclose(norm.values, ref, rtol=1e-15)

    def test_idempotent(self):
        norm = normalize(compute_matrix(coupled(seed=8), grid=SMALL))
        again = normalize(norm)
        assert np.array_equal(norm.values, again.values)

    def test_all_zero_stays_zero(self):
        g = GridSpec(m_start=1, m_stop=3, n_start=2, n_stop=4)
        mat = PacMatrix(np.zeros((3, 3)), "mca", False, g)
        norm = normalize(mat)
        assert norm.normalized
        assert np.all(norm.values == 0.0)


class TestArgmax:
    def grid(self):
        return GridSpec(m_start=1, m_stop=3, n_start=2, n_stop=4)

    def test_ties_go_to_lowest_frequencies(self):
        vals = np.zeros((3, 3))
        vals[0, 0] = 1.0  # m=1, n=2
        vals[2, 1] = 1.0  # m=2, n=4
        mat = PacMatrix(vals, "mca", False, self.grid())
        assert argmax(mat) == (1, 2, 1.0)

    def test_all_zero_has_no_peak(self):
        mat = PacMatrix(np.zeros((3, 3)), "mca", False, self.grid())
        assert argmax(mat) is None

    @staticmethod
    def scan_argmax(mat):
        """Reference: first cell strictly above the running best, scanning
        n ascending, then m ascending."""
        best = 0.0
        found = None
        for i, n in enumerate(mat.grid.n_values):
            for j, m in enumerate(mat.grid.m_values):
                v = mat.values[i, j]
                if v > best:
                    best = v
                    found = (int(m), int(n), float(v))
        return found

    def test_matches_scan_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(0)
        g = GridSpec(m_start=1, m_stop=6, n_start=2, n_stop=9)
        mm, nn = np.meshgrid(g.m_values, g.n_values)
        all_zero = 0
        for k in range(400):
            # few distinct integer levels force ties; level 0 gives all-zero
            vals = rng.integers(0, k % 4 + 1, size=mm.shape).astype(float)
            vals[mm >= nn] = 0.0
            mat = PacMatrix(vals, "mca", False, g)
            all_zero += not vals.any()
            assert argmax(mat) == self.scan_argmax(mat)
        assert all_zero >= 100


class TestLocalizationError:
    def test_exact_hit(self):
        assert localization_error((8, 45, 1.0), (8, 45)) == 0.0

    def test_manhattan_distance(self):
        assert localization_error((9, 44, 0.5), (8, 45)) == 2.0

    def test_missing_peak_is_infinite(self):
        assert math.isinf(localization_error(None, (8, 45)))


class TestRunComparison:
    def test_report_structure(self):
        sunk = []
        report = run_comparison(
            [(8, 45)],
            methods=("mca",),
            n_seeds=2,
            grid=SMALL,
            matrix_sink=lambda mat, pair, meth, seed: sunk.append(
                (pair, meth, seed, mat.normalized)
            ),
        )
        assert len(report.runs) == 2
        assert {r.seed for r in report.runs} == {0, 1}
        agg = report.aggregates["mca"]["8:45"]
        assert agg["runs"] == 2
        assert agg["mean_error"] is not None or agg["missing_peak"] > 0
        assert len(sunk) == 2
        assert all(entry[3] for entry in sunk)
        d = report.as_dict()
        assert d["runs"][0]["pair"] == {"m": 8, "n": 45}
        assert "aggregates" in d

    def test_rejects_empty_and_unknown(self):
        with pytest.raises(InvalidInputError):
            run_comparison([], methods=("mca",), n_seeds=1)
        with pytest.raises(InvalidMethodError):
            run_comparison([(8, 45)], methods=("nope",), n_seeds=1)

    @pytest.mark.parametrize("kw", [
        dict(n_seeds=0), dict(n_seeds=MAX_SEEDS + 1), dict(n_seeds=10**9), dict(n_seeds=2.0),
        dict(base_seed=-3), dict(base_seed=0.5), dict(n_seeds=True), dict(base_seed=False),
    ])
    def test_rejects_bad_seeds_before_any_work(self, kw, monkeypatch):
        def no_synthesis(spec):
            raise AssertionError("synthesized before the seeds were checked")

        monkeypatch.setattr(paclab.comodulogram, "synth_pac", no_synthesis)
        with pytest.raises(InvalidInputError):
            run_comparison([(8, 45)], methods=("mca",), **{"n_seeds": 1, **kw})

    def test_each_signal_runs_its_methods_before_the_next(self, monkeypatch):
        calls = []
        real_synth = paclab.comodulogram.synth_pac
        real_compute = paclab.comodulogram.compute_matrix

        def synth(spec):
            calls.append(("synth", spec.m, spec.seed))
            return real_synth(spec)

        def compute(x, method, *args, **kwargs):
            # the comparison's jobs go to the column pool of every matrix
            bound = inspect.signature(real_compute).bind(x, method, *args, **kwargs)
            calls.append(("compute", method, bound.arguments.get("jobs")))
            return real_compute(x, method, *args, **kwargs)

        monkeypatch.setattr(paclab.comodulogram, "synth_pac", synth)
        monkeypatch.setattr(paclab.comodulogram, "compute_matrix", compute)
        sunk = {}
        for jobs in (None, 2):
            sunk[jobs] = []
            calls.clear()
            run_comparison([(8, 45), (12, 45)], methods=("kld", "mvl"), n_seeds=2, grid=SMALL,
                           jobs=jobs, matrix_sink=lambda mat, *key, _s=sunk[jobs]:
                           _s.append((key, mat.values)))
            assert calls == [
                step for m in (8, 12) for seed in (0, 1)
                for step in (("synth", m, seed), ("compute", "kld", jobs),
                             ("compute", "mvl", jobs))
            ]
        assert [key for key, _ in sunk[2]] == [key for key, _ in sunk[None]] == [
            ((m, 45), meth, seed) for m in (8, 12) for seed in (0, 1) for meth in ("kld", "mvl")
        ]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(sunk[None], sunk[2]))

    def test_run_count_is_bounded_before_any_work(self, monkeypatch):
        def no_synthesis(spec):
            raise AssertionError("synthesized before the run count was checked")

        monkeypatch.setattr(paclab.comodulogram, "synth_pac", no_synthesis)
        pairs = [(m, 45) for m in range(1, 6)]
        with pytest.raises(InvalidInputError, match="runs"):
            run_comparison(pairs, n_seeds=MAX_SEEDS)
        # the stock comparison at its largest seed count stays admitted
        seeds, _ = comparison_plan(BENCHMARK_PAIRS, METHODS, MAX_SEEDS, 0, *STOCK_SIGNAL)
        assert len(seeds) == MAX_SEEDS
        assert MAX_RUNS == MAX_SEEDS * len(BENCHMARK_PAIRS) * len(METHODS)

    def test_comparison_seeds(self):
        seeds, specs = comparison_plan([[8, 45], (12, 45)], ["mca"], 3, 5, *STOCK_SIGNAL)
        assert seeds == range(5, 8)
        assert specs == {pair: dataclasses.replace(benchmark_spec(pair), seed=None)
                         for pair in [(8, 45), (12, 45)]}
        seeds, _ = comparison_plan([(8, 45)], ["mca"], MAX_SEEDS, 0, *STOCK_SIGNAL)
        assert len(seeds) == MAX_SEEDS

    @pytest.mark.parametrize("pairs,methods", [
        ([(8, 45), (8, 45)], ("kld",)),
        ([(8, 45), [8, 45]], ("kld",)),
        ([(8, 45, 0), (8, 45, 1)], ("kld",)),
        ([(8, 45), (12, 45)], ("kld", "mvl", "kld")),
        ([(8, 45)], ()),
    ], ids=["pair-twice", "pair-twice-as-list", "pair-twice-padded", "method-twice",
            "no-method"])
    def test_rejects_repeats_and_empty_methods_before_any_work(self, pairs, methods, monkeypatch):
        # a repeated pair or method would run twice and count twice in
        # its aggregate, and write one --matrix-dir file twice
        def no_synthesis(spec):
            raise AssertionError("synthesized before the plan was checked")

        monkeypatch.setattr(paclab.comodulogram, "synth_pac", no_synthesis)
        with pytest.raises(InvalidInputError):
            run_comparison(pairs, methods=methods, n_seeds=1, grid=SMALL)

    @pytest.mark.parametrize("jobs", [MAX_JOBS + 1, 10**9, 2.5, 0, -1, True])
    def test_worker_count_is_bounded_before_any_pool(self, jobs, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built before jobs was checked")

        def no_synthesis(spec):
            raise AssertionError("synthesized before jobs was checked")

        monkeypatch.setattr(paclab.comodulogram, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(paclab.comodulogram, "synth_pac", no_synthesis)
        with pytest.raises(InvalidInputError, match="jobs"):
            run_comparison([(8, 45)], methods=("kld",), n_seeds=1, grid=SMALL, jobs=jobs)
        x = coupled(seed=0)
        with pytest.raises(InvalidInputError, match="jobs"):
            compute_matrix(x, "kld", SMALL, jobs=jobs)
        with pytest.raises(InvalidInputError, match="jobs"):
            PacAnalyzer("kld", SMALL, jobs=jobs).fit(x)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_sink_error_stops_the_queued_runs(self, jobs, monkeypatch):
        real_synth = paclab.comodulogram.synth_pac
        synthesized = []

        def synth(spec):
            synthesized.append(spec.seed)
            return real_synth(spec)

        def sink(mat, pair, method, seed):
            raise OSError("disk full")

        monkeypatch.setattr(paclab.comodulogram, "synth_pac", synth)
        with pytest.raises(OSError, match="disk full"):
            run_comparison([(8, 45)], methods=("kld",), n_seeds=12, jobs=jobs, grid=SMALL,
                           matrix_sink=sink)
        # signals run one at a time, so the sink's first error stops the
        # comparison before a second signal is made
        assert synthesized == [0]

    def test_jobs_do_not_change_results(self):
        kw = dict(methods=("mca",), n_seeds=2, grid=SMALL)
        serial = run_comparison([(8, 45)], **kw)
        threaded = run_comparison([(8, 45)], jobs=4, **kw)
        assert [r.found for r in serial.runs] == [r.found for r in threaded.runs]
        assert [r.error for r in serial.runs] == [r.error for r in threaded.runs]

"""Comodulogram engine: evaluate a coupling measure over the (m, n) grid,
normalize, locate maxima, and compare methods across seeds."""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import measures
from .errors import InvalidInputError, InvalidMethodError
from .filters import FilterBank
from .measures import MeasureConfig
from .signal_core import Signal
from .synthesis import (
    BENCHMARK_AMI,
    BENCHMARK_CLEAN_POWER,
    BENCHMARK_DURATION,
    BENCHMARK_FS,
    BENCHMARK_NOISE_POWER,
    SynthesisSpec,
    clean_scale_for,
    synth_pac,
)

METHODS = ("mca", "eps", "mvl", "cv", "kld")

# One column function per method: column(x, n, m_values, cfg, bank) scores
# the cells (m, n) for every m in m_values; cells with nothing to score are
# 0. Work that depends on n alone is done once per column; mca keeps the
# work that depends on m alone in the bank. Each public per-cell measure
# evaluates a one-cell column.
_COLUMN_FNS = {
    "mca": measures._mca_column,
    "eps": measures._eps_column,
    "mvl": measures._mvl_column,
    "cv": measures._cv_column,
    "kld": measures._kld_column,
}


@dataclass(frozen=True)
class GridSpec:
    """Integer Hz evaluation grid, 1 Hz step, both ranges inclusive."""

    m_start: int = 1
    m_stop: int = 50
    n_start: int = 1
    n_stop: int = 50

    def __post_init__(self):
        for v in (self.m_start, self.m_stop, self.n_start, self.n_stop):
            if int(v) != v or v < 1:
                raise InvalidInputError("grid bounds must be integers >= 1")
        if self.m_stop < self.m_start or self.n_stop < self.n_start:
            raise InvalidInputError("grid ranges must be nondecreasing")

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.m_start, self.m_stop + 1)

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.n_start, self.n_stop + 1)


@dataclass(frozen=True)
class PacMatrix:
    """Coupling values on the grid; rows follow n, columns follow m."""

    values: np.ndarray
    method: str
    normalized: bool
    grid: GridSpec
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        expected = (len(self.grid.n_values), len(self.grid.m_values))
        if v.shape != expected:
            raise InvalidInputError(f"values shape {v.shape} does not match grid {expected}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise InvalidInputError("matrix values must be finite and nonnegative")
        mm, nn = np.meshgrid(self.grid.m_values, self.grid.n_values)
        if np.any(v[mm >= nn] != 0.0):
            raise InvalidInputError("cells with m >= n must be zero")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def cell(self, m: int, n: int) -> float:
        i = int(n) - self.grid.n_start
        j = int(m) - self.grid.m_start
        return float(self.values[i, j])


def compute_matrix(
    x: Signal,
    method: str = "mca",
    grid: GridSpec | None = None,
    cfg: MeasureConfig | None = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
) -> PacMatrix:
    """Evaluate one measure at every cell with m < n.

    Cells outside the measure's valid band and degenerate cells score 0,
    so the result is always a complete triangular matrix. The measure runs
    one n column at a time, so work that depends on n alone is done once
    per column (and for mca, work that depends on m alone once per matrix,
    kept in the shared filter bank). With jobs > 1 columns are evaluated by a
    thread pool; results are identical to the serial order because every
    column is a pure function. With use_cache=False every cell is a
    one-cell column on a fresh bank.
    """
    if method not in _COLUMN_FNS:
        raise InvalidMethodError(f"unknown method {method!r}; pick one of {METHODS}")
    grid = grid or GridSpec()
    cfg = cfg or MeasureConfig()
    if grid.n_stop >= x.fs / 2:
        raise InvalidInputError(
            f"grid reaches {grid.n_stop} Hz, at or above Nyquist {x.fs / 2} Hz"
        )
    column = _COLUMN_FNS[method]
    bank = FilterBank(x) if use_cache else None
    n_vals = grid.n_values
    m_vals = grid.m_values
    out = np.zeros((len(n_vals), len(m_vals)))

    # m ascends, so the cells with m < n are the first ones of each row
    columns = [
        (i, int(n), [int(m) for m in m_vals if m < n])
        for i, n in enumerate(n_vals)
        if m_vals[0] < n
    ]

    def one(col):
        i, n, ms = col
        if bank is not None:
            return i, column(x, n, ms, cfg, bank)
        return i, [column(x, n, [m], cfg, FilterBank(x))[0] for m in ms]

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, columns))
    else:
        results = [one(c) for c in columns]
    for i, values in results:
        out[i, :len(values)] = values

    meta = {
        "fs": x.fs,
        "n_samples": len(x),
        "config": cfg.as_dict(),
        "cached_filterings": bank.n_filterings if bank is not None else None,
    }
    return PacMatrix(out, method, False, grid, meta)


def normalize(mat: PacMatrix) -> PacMatrix:
    """Scale so the largest cell is exactly 1; an all-zero matrix only
    gets its flag set. Applying twice changes nothing."""
    mx = float(mat.values.max()) if mat.values.size else 0.0
    vals = mat.values if mx <= 0 else mat.values / mx
    return PacMatrix(vals, mat.method, True, mat.grid, dict(mat.meta))


def argmax(mat: PacMatrix):
    """Largest cell as (m, n, value); ties go to the smallest n, then the
    smallest m. Returns None when every cell is zero."""
    # rows follow n and columns m, so the first maximum in C order is the
    # one with the smallest n, then the smallest m
    i, j = np.unravel_index(np.argmax(mat.values), mat.values.shape)
    v = float(mat.values[i, j])
    if not v > 0.0:
        return None
    return int(mat.grid.m_values[j]), int(mat.grid.n_values[i]), v


def localization_error(found, truth) -> float:
    """Grid (Manhattan) distance between a detected and a true cell.

    `found` may be the argmax triple or None; None maps to +inf so a
    missing peak never masquerades as a good detection.
    """
    if found is None:
        return math.inf
    fm, fn = found[0], found[1]
    tm, tn = truth[0], truth[1]
    return float(abs(fm - tm) + abs(fn - tn))


@dataclass
class ComparisonRun:
    """One (pair, method, seed) evaluation."""

    pair: tuple
    method: str
    seed: int
    found: Optional[tuple]
    peak: float
    error: float


@dataclass
class PacReport:
    """Comparison results plus per-(method, pair) error aggregates."""

    runs: list
    aggregates: dict

    def as_dict(self) -> dict:
        return {
            "runs": [
                {
                    "pair": {"m": r.pair[0], "n": r.pair[1]},
                    "method": r.method,
                    "seed": r.seed,
                    "argmax": None if r.found is None else {
                        "m": r.found[0], "n": r.found[1], "value": r.found[2]
                    },
                    "error": None if math.isinf(r.error) else r.error,
                }
                for r in self.runs
            ],
            "aggregates": self.aggregates,
        }


def _aggregate(errors: list) -> dict:
    finite = [e for e in errors if not math.isinf(e)]
    missing = len(errors) - len(finite)
    agg = {
        "runs": len(errors),
        "missing_peak": missing,
        "mean_error": None,
        "median_error": None,
        "max_error": None,
    }
    if finite and not missing:
        agg["mean_error"] = float(statistics.fmean(errors))
        agg["median_error"] = float(statistics.median(errors))
        agg["max_error"] = float(max(errors))
    elif finite:
        # keep the medians of what exists, flag the rest as missing
        agg["median_error"] = float(statistics.median(finite))
    return agg


def run_comparison(
    pairs,
    methods=METHODS,
    n_seeds: int = 10,
    *,
    ami: float = BENCHMARK_AMI,
    duration: float = BENCHMARK_DURATION,
    fs: float = BENCHMARK_FS,
    noise_power: float = BENCHMARK_NOISE_POWER,
    clean_power: Optional[float] = BENCHMARK_CLEAN_POWER,
    clean_scale: Optional[float] = None,
    grid: GridSpec | None = None,
    cfg: MeasureConfig | None = None,
    jobs: Optional[int] = None,
    base_seed: int = 0,
    matrix_sink: Optional[Callable] = None,
) -> PacReport:
    """Synthesize each pair over seeds, run every method, collect errors.

    matrix_sink, when given, receives (matrix, pair, method, seed) for
    each normalized matrix; results are deterministic for a fixed
    base_seed regardless of jobs.
    """
    pairs = [tuple(p) for p in pairs]
    methods = list(methods)
    if not pairs:
        raise InvalidInputError("need at least one (m, n) pair")
    for meth in methods:
        if meth not in _COLUMN_FNS:
            raise InvalidMethodError(f"unknown method {meth!r}")
    grid = grid or GridSpec()
    cfg = cfg or MeasureConfig()
    scale = clean_scale_for(clean_power, ami) if clean_scale is None else clean_scale

    tasks = []
    for pair in pairs:
        for seed in range(base_seed, base_seed + n_seeds):
            spec = SynthesisSpec(
                m=pair[0], n=pair[1], ami=ami, duration=duration, fs=fs,
                noise_power=noise_power, clean_scale=scale, seed=seed,
            )
            x = synth_pac(spec).composite
            for meth in methods:
                tasks.append((pair, meth, seed, x))

    def run_one(task):
        pair, meth, seed, x = task
        mat = normalize(compute_matrix(x, meth, grid, cfg))
        found = argmax(mat)
        err = localization_error(found, pair)
        peak = 0.0 if found is None else found[2]
        return ComparisonRun(pair, meth, seed, found, peak, err), mat

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_one, tasks))
    else:
        outcomes = [run_one(t) for t in tasks]

    runs = []
    for run, mat in outcomes:
        runs.append(run)
        if matrix_sink is not None:
            matrix_sink(mat, run.pair, run.method, run.seed)

    aggregates: dict = {}
    for meth in methods:
        aggregates[meth] = {}
        for pair in pairs:
            errs = [r.error for r in runs if r.method == meth and r.pair == pair]
            aggregates[meth][f"{pair[0]}:{pair[1]}"] = _aggregate(errs)
    return PacReport(runs, aggregates)

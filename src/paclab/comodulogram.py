"""Comodulogram engine: evaluate a coupling measure over the (m, n) grid,
normalize, locate maxima, and compare methods across seeds.

A method is the name of one cell factory of paclab.measures; the registry
below is the only list of them."""

from __future__ import annotations

import math
import os
import statistics
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import measures
from .errors import InvalidInputError, InvalidMethodError
from .filters import FilterBank
from .measures import MeasureConfig
from .signal_core import Signal, _instance, _is_count, _numbers, _real
from .synthesis import (
    BENCHMARK_AMI,
    BENCHMARK_CLEAN_POWER,
    BENCHMARK_DURATION,
    BENCHMARK_FS,
    BENCHMARK_NOISE_POWER,
    BENCHMARK_PAIRS,
    SynthesisSpec,
    clean_scale_for,
    synth_pac,
)


class _Measure(NamedTuple):
    """One method: its cell factory, the bands its columns read, the
    signal length from which its cells gain from the pool, and whether
    its cells only read what their column's prologue made."""

    # cells(x, n, cfg, bank) does the column's n-only work and returns the
    # measure on the column at n as a function of m; compute_matrix builds
    # it once per column and calls it once per cell
    cells: Callable
    # reads(n, m_values, cfg) returns (bands read directly, bands read
    # once: reduced, or released by their one reader)
    reads: Callable
    # fewest samples at which jobs=None pools the cells.
    # mca and eps cells run signal-length FFTs (two hilbert transforms and
    # an envelope band-pass; a band-pass and a hilbert transform), and
    # pocketfft releases the GIL, so they gain from every core at any
    # length. mvl, cv and kld work on forms the bank keeps or on one
    # coherence per column, so they gain only once the Morlet fills
    # at signal length dominate.
    # jobs=2 over jobs=1 wall time, default grid, 2-vCPU VM, mvl/cv/kld:
    # 0.90-0.95/1.00-1.08/1.22-1.32 at 10,000 samples, 0.64/0.80/1.11 at
    # 16,384, 0.65/0.74/0.87 at 20,000, 0.63/0.84/0.75 at 32,768 and
    # 0.60/0.57/0.61 at 80,000. A cv column keeps no per-m forms, so a
    # second column's Morlet fill and coherence weigh most on it; its
    # coherence reads the column's trimmed signal and |zn| in place to
    # keep that small. Pooled at 300,000 samples on the default grid, max
    # RSS read cv +21%, kld +11% and mvl +7%
    pool_from: int
    # cv's cells only read its prologue's coherence: its read of the bank
    # ends within the prologue, and pooled, its prologues run one column
    # further ahead, so a thread done early starts the next one instead of
    # waiting (3% of long_recording cv.matrix_s, 3 columns on 2 threads)
    reads_prologue: bool = False


# 2**15, the smallest power of two at which mvl, cv and kld all gained
_LONG = 1 << 15

_MEASURES = {
    "mca": _Measure(measures._mca_cells, measures._mca_reads, 0),
    "eps": _Measure(measures._eps_cells, measures._morlet_reads, 0),
    "mvl": _Measure(measures._mvl_cells, measures._morlet_reads, _LONG),
    "cv": _Measure(measures._cv_cells, measures._cv_reads, _LONG, reads_prologue=True),
    "kld": _Measure(measures._kld_cells, measures._morlet_reads, _LONG),
}
METHODS = tuple(_MEASURES)

# Largest grid compute_matrix accepts: its matrix alone takes 80 MB, and a
# grid bounded only by Nyquist would let a high-rate input ask for any size.
MAX_GRID_CELLS = 10**7

# Most seeds per pair a comparison accepts. One seed of one pair and
# method is a whole matrix, seconds of work on the stock grid, so this is
# weeks of compute; an unbounded count would size the seed list, and the
# manifest that records it, from unchecked input.
MAX_SEEDS = 10_000

# Most worker threads compute_matrix and run_comparison accept, and the
# cap on the default worker count. The calling thread and up to jobs - 1
# pool threads each work on one of a grid's cells, or one column's n-only
# work, at a time; past the cores of any machine this runs on, more
# threads only hold more temporaries at once.
MAX_JOBS = 256

# Most runs (pairs x seeds x methods) a comparison accepts: MAX_SEEDS
# seeds of the four benchmark pairs under all five methods. Each run is a
# matrix, and `pac-lab compare --matrix-dir` names one output file per run
# in its manifest, so an unbounded pair count would size that list from
# unchecked input.
MAX_RUNS = MAX_SEEDS * len(BENCHMARK_PAIRS) * len(METHODS)


@dataclass(frozen=True)
class GridSpec:
    """Integer Hz evaluation grid, 1 Hz step, both ranges inclusive."""

    m_start: int = 1
    m_stop: int = 50
    n_start: int = 1
    n_stop: int = 50

    def __post_init__(self):
        # stored as int, so 6.0 is written and read back as 6
        for name in ("m_start", "m_stop", "n_start", "n_stop"):
            _real(getattr(self, name), f"{name}: grid bounds", "integers >= 1",
                  lambda v: v >= 1 and v.is_integer())
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.m_stop < self.m_start or self.n_stop < self.n_start:
            raise InvalidInputError("grid ranges must be nondecreasing")

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the matrix, from the bounds alone."""
        return (int(self.n_stop - self.n_start) + 1, int(self.m_stop - self.m_start) + 1)

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
        v = np.array(_numbers(self.values, "values", "two-dimensional"), dtype=float)
        # from the bounds, so a hostile grid allocates nothing before the check
        if v.shape != self.grid.shape:
            raise InvalidInputError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise InvalidInputError("matrix values must be finite and nonnegative")
        # broadcast, so the check costs two boolean matrices, not two int grids
        upper = self.grid.m_values[None, :] >= self.grid.n_values[:, None]
        if np.any((v != 0.0) & upper):
            raise InvalidInputError("cells with m >= n must be zero")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def cell(self, m: int, n: int) -> float:
        """The value at (m, n); InvalidInputError off the grid's integer cells."""
        g = self.grid
        if not (_is_count(m) and _is_count(n)
                and g.m_start <= m <= g.m_stop and g.n_start <= n <= g.n_stop):
            raise InvalidInputError(f"cell m={m},n={n} is off the grid "
                                    f"m={g.m_start}:{g.m_stop},n={g.n_start}:{g.n_stop}")
        return float(self.values[int(n) - g.n_start, int(m) - g.m_start])


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
    so the result is always a complete triangular matrix. Work that
    depends on n alone is done once per column, as its cell factory is
    built (and for mca, eps, mvl and kld, work that depends on m alone
    once per matrix, kept in the shared filter bank). By a read plan made
    from the grid, the bank holds a band only until its last planned read
    is over, and fills no band twice.

    Cells run on `jobs` threads: the calling thread and a pool of
    jobs - 1, the only thread pool paclab builds. jobs=None picks the
    count per method and signal length: the usable CPUs capped by
    MAX_JOBS and the cell count, for mca and eps at any length and for
    mvl, cv and kld from 2**15 samples on, where the pool measured a gain;
    else 1. jobs=1 runs serially on the calling thread.
    Results are identical for every jobs because every cell is a pure
    function. The cells go out in serial order (n, then m ascending),
    each column's prologue, which builds its factory, jobs - 1 columns
    ahead of them (jobs for cv). The thread that finishes a column's last
    cell drops its factory and ends its reads of the bank. Nothing goes
    out after a failing cell, and prologues never raise, so a pooled
    matrix raises the error of serial order. A worker thread that cannot
    start raises MemoryError.
    With use_cache=False every cell runs on a fresh bank, planned for
    that cell. An x, grid or cfg that is not a Signal, GridSpec or
    MeasureConfig, a grid reaching Nyquist, in m or in n, or holding more
    than MAX_GRID_CELLS cells, and jobs other than None or an integer in
    [1, MAX_JOBS] are refused before any work.
    """
    measure = _measure(method)
    _instance(x, Signal, "x")
    grid = GridSpec() if grid is None else _instance(grid, GridSpec, "grid")
    cfg = MeasureConfig() if cfg is None else _instance(cfg, MeasureConfig, "cfg")
    # checked before any grid array is built. Once n is below Nyquist, the
    # columns at m >= Nyquist hold only cells with m > n, zero by contract
    top = max(grid.m_stop, grid.n_stop)
    if top >= x.fs / 2:
        raise InvalidInputError(f"grid reaches {top} Hz, at or above Nyquist {x.fs / 2} Hz")
    rows, cols = grid.shape
    if rows * cols > MAX_GRID_CELLS:
        raise InvalidInputError(
            f"grid of {rows}x{cols} cells exceeds the limit of {MAX_GRID_CELLS} cells"
        )
    _check_jobs(jobs)
    bank = FilterBank(x) if use_cache else None
    n_vals = grid.n_values
    m_vals = grid.m_values
    out = np.zeros(grid.shape)

    # m ascends, so the cells with m < n are the first ones of each row
    columns = [
        (i, int(n), [int(m) for m in m_vals if m < n])
        for i, n in enumerate(n_vals)
        if m_vals[0] < n
    ]
    cells = [(k, j) for k, (_, _, ms) in enumerate(columns) for j in range(len(ms))]
    if jobs is None:
        jobs = _default_jobs(measure, len(cells), len(x))

    if bank is not None:
        measures._plan(bank, measure.reads, columns, cfg)
        ahead = jobs if jobs > 1 and measure.reads_prologue else jobs - 1
        units = _with_prologues(cells, len(columns), ahead)
    else:
        units = cells

    # column k's cell function, built by one thread under locks[k]: None
    # before, False once its last cell is done
    made = [None] * len(columns)
    locks = [threading.Lock() for _ in columns]
    # a token per cell not done yet; deque.pop is thread-safe
    left = [deque(range(len(ms))) for _, _, ms in columns]

    def build(k):
        with locks[k]:
            if made[k] is None:
                made[k] = measure.cells(x, columns[k][1], cfg, bank)
        return made[k]

    def run(unit):
        k, j = unit
        i, n, ms = columns[k]
        if j is None:  # the column's prologue
            build(k)
            return
        if bank is None:
            cell = measure.cells(x, n, cfg, measures._cell_bank(x, measure.reads, ms[j], n, cfg))
        else:
            cell = made[k] or build(k)
        try:
            out[i, j] = cell(ms[j])
        except measures._ZERO_CELL_ERRORS:
            pass
        # the cell that pops a column's last token, 0, is its last to finish
        if bank is not None and not left[k].pop():
            made[k] = False  # lets go of the column's n-only forms
            bank.done(i)

    _sweep(units, jobs, run)

    meta = {
        "fs": x.fs,
        "n_samples": len(x),
        "config": cfg.as_dict(),
        "cached_filterings": bank.n_filterings if bank is not None else None,
    }
    return PacMatrix(out, method, False, grid, meta)


def _with_prologues(cells: list, n_columns: int, ahead: int) -> list:
    """cells (k, j), in serial order, with the prologue (k, None) of each
    column k just before the cells of column k - ahead."""
    units = [(k, None) for k in range(min(ahead, n_columns))]
    for unit in cells:
        k, j = unit
        if j == 0 and k + ahead < n_columns:
            units.append((k + ahead, None))
        units.append(unit)
    return units


def _default_jobs(measure: _Measure, n_cells: int, n_samples: int) -> int:
    """Threads for compute_matrix(jobs=None): 1 below the measure's
    pool_from samples, else the usable CPUs capped by MAX_JOBS and
    n_cells."""
    if n_samples < measure.pool_from:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows)
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_JOBS, n_cells))


def _sweep(units: list, jobs: int, run) -> None:
    """run(unit) for every unit, on the calling thread and a pool of
    jobs - 1 threads; jobs=1 runs them in a plain loop.

    Units are handed out in list order and none after a failed one, so
    every unit before the first failing one has run, and its error, the
    one of serial order, is raised once the threads stop. The caller
    works too: under glibc each allocating thread gets a malloc arena of
    its own, and on the stock matrix benchmark jobs pool threads beside
    an idle caller raised peak RSS 12-13%. A pool thread that cannot
    start raises MemoryError.
    """
    if jobs == 1:
        for unit in units:
            run(unit)
        return
    lock = threading.Lock()
    errors = {}
    taken = 0
    stop = len(units)  # no unit from this index on is handed out

    def work():
        nonlocal taken, stop
        while True:
            with lock:
                if taken >= stop:
                    return
                k = taken
                taken += 1
            try:
                run(units[k])
            except Exception as e:  # raised on the calling thread below
                with lock:
                    errors[k] = e
                    stop = min(stop, k)
                return

    pool = ThreadPoolExecutor(max_workers=jobs - 1)
    workers = []
    try:
        # submit starts a thread, so this is where one fails to start
        try:
            workers = [pool.submit(work) for _ in range(jobs - 1)]
        except RuntimeError as e:
            raise MemoryError(f"cannot start a worker thread: {e}") from e
        work()
        for w in workers:
            w.result()
    finally:
        # an error hands out no more units; the running ones finish
        with lock:
            stop = 0
        pool.shutdown()
    if errors:
        raise errors[min(errors)]


def normalize(mat: PacMatrix) -> PacMatrix:
    """Scale so the largest cell is exactly 1; an all-zero matrix only
    gets its flag set. Applying twice changes nothing."""
    _instance(mat, PacMatrix, "mat")
    mx = float(mat.values.max()) if mat.values.size else 0.0
    vals = mat.values if mx <= 0 else mat.values / mx
    return PacMatrix(vals, mat.method, True, mat.grid, dict(mat.meta))


def argmax(mat: PacMatrix):
    """Largest cell as (m, n, value); ties go to the smallest n, then the
    smallest m. Returns None when every cell is zero."""
    _instance(mat, PacMatrix, "mat")
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


def _measure(method) -> _Measure:
    """The method named `method`; InvalidMethodError for anything else."""
    if not (isinstance(method, str) and method in _MEASURES):
        raise InvalidMethodError(f"unknown method {method!r}; pick one of {METHODS}")
    return _MEASURES[method]


def _check_jobs(jobs: Optional[int]) -> None:
    """Refuse jobs unless it is None (compute_matrix's default)
    or an integer in [1, MAX_JOBS]; a bool is not a count."""
    if jobs is not None and not (_is_count(jobs) and 1 <= jobs <= MAX_JOBS):
        raise InvalidInputError(f"jobs must be an integer in [1, {MAX_JOBS}] (or None)")


def _listed(items, name: str) -> list:
    """items as a list; InvalidInputError when they are not iterable."""
    try:
        return list(items)
    except TypeError:
        raise InvalidInputError(f"{name} must be iterable") from None


def comparison_plan(pairs, methods, n_seeds: int, base_seed: int, ami: float,
                    duration: float, fs: float, noise_power: float,
                    clean_power: Optional[float]) -> tuple[range, dict]:
    """The seeds of a comparison and the SynthesisSpec of each (m, n)
    pair, in the order of pairs; each run sets its seed.

    Everything is checked before any work or any list sized by it: pairs
    (each two finite real frequencies) and methods must be non-empty
    iterables free of repeats, and methods known; n_seeds must be an integer in
    [1, MAX_SEEDS] and base_seed one >= 0; pairs x seeds x methods must
    not exceed MAX_RUNS; and each pair's signal settings must make a
    valid SynthesisSpec.
    """
    pairs = [tuple(_listed(p, "each pair")) for p in _listed(pairs, "pairs")]
    if not pairs:
        raise InvalidInputError("need at least one (m, n) pair")
    if any(len(p) != 2 for p in pairs):
        raise InvalidInputError("each pair must be two frequencies (m, n)")
    for f in (f for p in pairs for f in p):
        _real(f, "each pair's m and n")
    if len(set(pairs)) < len(pairs):
        raise InvalidInputError("each (m, n) pair may be given only once")
    methods = _listed(methods, "methods")
    for meth in methods:
        _measure(meth)
    if not methods:
        raise InvalidInputError("need at least one method")
    if len(set(methods)) < len(methods):
        raise InvalidInputError("each method may be given only once")
    if not (_is_count(n_seeds) and 1 <= n_seeds <= MAX_SEEDS):
        raise InvalidInputError(f"seeds per pair must be an integer in [1, {MAX_SEEDS}]")
    if not (_is_count(base_seed) and base_seed >= 0):
        raise InvalidInputError("base seed must be an integer >= 0")
    if len(pairs) * n_seeds * len(methods) > MAX_RUNS:
        raise InvalidInputError(
            f"{len(pairs)} pairs x {n_seeds} seeds x {len(methods)} methods exceed the limit "
            f"of {MAX_RUNS} runs")
    scale = clean_scale_for(clean_power, ami)
    specs = {pair: SynthesisSpec(m=pair[0], n=pair[1], ami=ami, duration=duration, fs=fs,
                                 noise_power=noise_power, clean_scale=scale) for pair in pairs}
    return range(base_seed, base_seed + n_seeds), specs


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
    grid: GridSpec | None = None,
    cfg: MeasureConfig | None = None,
    jobs: Optional[int] = None,
    base_seed: int = 0,
    matrix_sink: Optional[Callable] = None,
) -> PacReport:
    """Synthesize each pair over seeds, run every method, collect errors.

    The (pair, seed) signals run one at a time, in the order pair, seed,
    and each is synthesized just before its methods run, so one signal and
    one filter bank are alive at once; `jobs` goes to each compute_matrix
    call as given, so None picks its default per method and length.
    matrix_sink, when given, receives (matrix, pair, method, seed) for each
    normalized matrix, in the order pair, seed, method, as it is made; an
    error stops the comparison there. Results are deterministic for a
    fixed base_seed regardless of jobs. A grid or cfg of another type
    than GridSpec or MeasureConfig is refused before any work.
    """
    methods = _listed(methods, "methods")
    seeds, specs = comparison_plan(pairs, methods, n_seeds, base_seed, ami, duration, fs,
                                   noise_power, clean_power)
    _check_jobs(jobs)
    grid = GridSpec() if grid is None else _instance(grid, GridSpec, "grid")
    cfg = MeasureConfig() if cfg is None else _instance(cfg, MeasureConfig, "cfg")

    runs = []
    for pair, spec in specs.items():
        for seed in seeds:
            x = synth_pac(replace(spec, seed=seed)).composite
            for meth in methods:
                mat = normalize(compute_matrix(x, meth, grid, cfg, jobs))
                found = argmax(mat)
                runs.append(ComparisonRun(pair, meth, seed, found, localization_error(found, pair)))
                if matrix_sink is not None:
                    matrix_sink(mat, pair, meth, seed)

    aggregates: dict = {}
    for meth in methods:
        aggregates[meth] = {}
        for pair in specs:
            errs = [r.error for r in runs if r.method == meth and r.pair == pair]
            aggregates[meth][f"{pair[0]}:{pair[1]}"] = _aggregate(errs)
    return PacReport(runs, aggregates)

"""The benchmark's three workloads.

Each workload makes its inputs from the run seed, runs one untimed warm-up
round, then timed rounds. A round returns its evaluations (one per
(pair, method, seed) matrix) for the oracle, and its timings. The program
is always reached through the module attribute its own callers use, so the
tracer's wrappers see every call.

stock_matrix    the default API path: compute_matrix -> normalize -> argmax
                on the stock 10 s, 1 kHz, SNR 0.1 preset, 50x50 grid, jobs
                unset, cache on. Per-cell measure work dominates.
long_recording  the CLI path on a 300 s recording: filters, the unbounded
                filter-bank cache, CSV I/O and the cell thread pool dominate.
compare_sweep   run_comparison over the four stock pairs and all five
                methods: many small matrices on fresh signals, fanned out by
                the run-level thread pool.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import paclab
from paclab import cli, comodulogram, io, synthesis
from paclab.comodulogram import METHODS, GridSpec

STOCK_PAIR = (8, 45)
LONG_DURATION = 300.0
# m stops at 12: above it the mca slow-band gate passes on pink noise in a
# seed-dependent way (1-4 extra rows among m 13..20 in 29 of 37 seeds),
# which doubles pac's cost on some seeds and not others
LONG_GRID = "m=1:12,n=30:50"
# a 3x3 block around the true pair: every method on the long recording,
# METHOD_SAMPLES times a round; samples of one method on the same input
# ranged 2x within a run, so each median needs many of them
LONG_METHOD_GRID = GridSpec(7, 9, 44, 46)
METHOD_SAMPLES = 3
SWEEP_GRID = GridSpec(4, 32, 38, 52)


@dataclass
class Evaluation:
    """One (pair, method, seed) matrix, as the program returned it."""

    label: str
    method: str
    pair: tuple
    signal: object  # the input Signal, or the SynthesisSpec that makes it
    matrix: object = None
    found: object = None
    problems: list = field(default_factory=list)
    written: bool = False  # the matrix is in a file, read back by load_outputs


@dataclass
class Round:
    """What one round did and how long its parts took, in seconds.

    Every timing is kept raw and speed-corrected: divided by the mean of
    the speed points probed right before and right after it
    (calibration.py; 1 when not probed).
    """

    work: float = 0.0             # all timed work of the round, raw
    corrected_work: float = 0.0   # the same, corrected
    raw: dict = field(default_factory=dict)        # metric name -> [seconds]
    corrected: dict = field(default_factory=dict)  # metric name -> [seconds]
    evals: list = field(default_factory=list)

    def add(self, name, seconds, corrected, work=True):
        """One timing of metric name; work=False when it is part of another."""
        self.raw.setdefault(name, []).append(seconds)
        self.corrected.setdefault(name, []).append(corrected)
        if work:
            self.work += seconds
            self.corrected_work += corrected


def signal_seed(seed, r, j=0):
    """Noise seed of signal j in round r; round 0 is the warm-up."""
    return seed * 1000 + 10 * r + j


class Workload:
    """Defaults shared by the workloads."""

    #: probe(pooled) is called right before and right after every timed
    #: operation and returns the machine's speed then (calibration.py);
    #: run.py sets it for the timed rounds. pooled is True for work on a
    #: thread pool.
    probe = None

    def prepare(self):
        """Make the inputs; repeatable, so set-up can be sampled."""

    def load_outputs(self, out):
        """Read back outputs the round wrote to files (untimed)."""

    def _speed(self, pooled=False):
        return 1.0 if self.probe is None else self.probe(pooled)

    def _timed(self, out, name, fn, *args, pooled=False):
        """fn(*args), timed into round out as metric name."""
        before = self._speed(pooled)
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        out.add(name, dt, dt / ((before + self._speed(pooled)) / 2))
        return result


def _matrix(x, method, grid):
    mat = comodulogram.normalize(comodulogram.compute_matrix(x, method, grid))
    return mat, comodulogram.argmax(mat)


class StockMatrix(Workload):
    """Five methods on one stock signal, then mca, mvl and kld on a second.

    mca's cost depends on how many cells pass its gates, which varies with
    the noise draw, and mvl and kld are short enough that one sample per
    round is at the mercy of machine noise; each gets two signals a round.
    """

    name = "stock_matrix"
    min_rounds = 3

    def __init__(self, seed, workdir, jobs):
        self.seed = seed

    def _signal(self, r, j):
        spec = synthesis.benchmark_spec(STOCK_PAIR, seed=signal_seed(self.seed, r, j))
        return synthesis.synth_pac(spec).composite

    def prepare(self):
        self._warm = self._signal(0, 0)

    def warmup(self):
        return self._run([("mca", self._warm, 0)], 0)

    def round(self, r):
        x0, x1 = self._signal(r, 0), self._signal(r, 1)
        plan = [(m, x0, 0) for m in METHODS] + [(m, x1, 1) for m in ("mca", "mvl", "kld")]
        out = self._run(plan, r)
        out.add("pipeline_s", out.work, out.corrected_work, work=False)
        return out

    def _run(self, plan, r):
        out = Round()
        for method, x, j in plan:
            ev = Evaluation(f"{self.name}/{self.seed}/r{r}/s{j}/{method}", method, STOCK_PAIR, x)
            try:
                ev.matrix, ev.found = self._timed(out, f"{method}.matrix_s", _matrix, x, method,
                                                  None)
            except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
                ev.problems.append(f"raised {type(e).__name__}: {e}")
            out.evals.append(ev)
        return out


class LongRecording(Workload):
    """pac on a 300 s recording through the CLI, then each method on a 3x3 grid."""

    name = "long_recording"
    # pac runs on both cores, where the shared machine is noisiest; five
    # samples keep its median steady across seeds (three did not)
    min_rounds = 5

    def __init__(self, seed, workdir, jobs):
        self.seed = seed
        self.jobs = jobs
        self.csv = Path(workdir) / "long.csv"
        self.out = Path(workdir) / "long_mat.csv"

    def prepare(self):
        rc = cli.main(["synth", "--paper-pair", "1", "--dur", str(LONG_DURATION),
                       "--seed", str(self.seed), "-o", str(self.csv)])
        if rc != 0:
            raise RuntimeError(f"pac-lab synth exited {rc}")
        spec = dataclasses.replace(synthesis.benchmark_spec(STOCK_PAIR, seed=self.seed),
                                   duration=LONG_DURATION)
        self.signal = synthesis.synth_pac(spec).composite

    def _pac(self, out):
        ev = Evaluation(f"{self.name}/{self.seed}/pac/mca", "mca", STOCK_PAIR, self.signal)
        argv = ["pac", "--method", "mca", "--grid", LONG_GRID, "--jobs", str(self.jobs),
                "-i", str(self.csv), "-o", str(self.out)]
        try:
            rc = self._timed(out, "pipeline_s", cli.main, argv, pooled=True)
        except Exception as e:  # noqa: BLE001
            rc = f"raised {type(e).__name__}: {e}"
        if rc != 0:
            ev.problems.append(f"pac-lab pac returned {rc}")
        else:
            ev.written = True
        out.evals.append(ev)

    def warmup(self):
        out = Round()
        self._pac(out)
        return out

    def round(self, r):
        out = Round()
        self._pac(out)
        for method in METHODS * METHOD_SAMPLES:
            ev = Evaluation(f"{self.name}/{self.seed}/grid3/{method}", method, STOCK_PAIR,
                            self.signal)
            try:
                ev.matrix, ev.found = self._timed(out, f"{method}.matrix_s", _matrix,
                                                  self.signal, method, LONG_METHOD_GRID)
            except Exception as e:  # noqa: BLE001
                ev.problems.append(f"raised {type(e).__name__}: {e}")
            out.evals.append(ev)
        return out

    def load_outputs(self, out):
        """Read back what pac wrote: matrix, meta and manifest must agree."""
        for ev in out.evals:
            if not ev.written:
                continue
            try:
                ev.matrix = io.read_matrix_csv(self.out)
                meta = json.loads(Path(str(self.out) + ".meta.json").read_text())
                manifest = json.loads(io.manifest_path(self.out).read_text())
            except (OSError, ValueError, paclab.PacError) as e:
                ev.problems.append(f"cannot read pac outputs: {e}")
                continue
            ev.found = comodulogram.argmax(ev.matrix)
            peak = meta.get("argmax")
            if (peak is None) != (ev.found is None) or (
                    peak is not None and (peak["m"], peak["n"]) != ev.found[:2]):
                ev.problems.append(f"meta argmax {peak} disagrees with the matrix {ev.found}")
            if str(self.out) not in manifest.get("outputs", []):
                ev.problems.append("manifest does not list the matrix output")


class CompareSweep(Workload):
    """run_comparison: 4 stock pairs x 1 seed x 5 methods on a 29x15 grid."""

    name = "compare_sweep"
    min_rounds = 2

    def __init__(self, seed, workdir, jobs):
        self.seed = seed
        self.jobs = jobs

    def warmup(self):
        return self.round(0)

    def round(self, r):
        out = Round()
        base = signal_seed(self.seed, r)
        kept = []
        times = []
        original = comodulogram.compute_matrix

        def timed(x, method, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(x, method, *args, **kwargs)
            finally:
                times.append((method, time.perf_counter() - t0))

        before = self._speed(pooled=True)
        comodulogram.compute_matrix = timed
        t0 = time.perf_counter()
        try:
            report = comodulogram.run_comparison(
                synthesis.BENCHMARK_PAIRS, METHODS, n_seeds=1, grid=SWEEP_GRID,
                jobs=self.jobs, base_seed=base,
                matrix_sink=lambda mat, pair, method, seed: kept.append(mat))
        except Exception as e:  # noqa: BLE001
            report = None
            error = f"raised {type(e).__name__}: {e}"
        finally:
            dt = time.perf_counter() - t0
            comodulogram.compute_matrix = original
            speed = (before + self._speed(pooled=True)) / 2
            out.add("pipeline_s", dt, dt / speed)
        for method, dt in times:
            out.add(f"{method}.matrix_s", dt, dt / speed, work=False)
        if report is None:
            for pair in synthesis.BENCHMARK_PAIRS:
                for method in METHODS:
                    ev = Evaluation(self._label(base, pair, method), method, pair, None)
                    ev.problems.append(error)
                    out.evals.append(ev)
            return out
        for run, mat in zip(report.runs, kept):
            spec = synthesis.benchmark_spec(run.pair, seed=run.seed)
            ev = Evaluation(self._label(base, run.pair, run.method), run.method, run.pair,
                            spec, mat, run.found)
            if run.error != comodulogram.localization_error(run.found, run.pair):
                ev.problems.append(f"reported error {run.error} disagrees with argmax")
            out.evals.append(ev)
        return out

    def _label(self, base, pair, method):
        return f"{self.name}/{self.seed}/b{base}/{pair[0]}:{pair[1]}/{method}"


WORKLOADS = {w.name: w for w in (StockMatrix, LongRecording, CompareSweep)}

"""Command line behavior: subcommands, exit codes, sidecar files."""

import argparse
import inspect
import json
import os
import platform
import re
import resource
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import paclab
import paclab.comodulogram
import paclab.measures
from paclab import (
    GridSpec,
    Signal,
    benchmark_spec,
    compute_matrix,
    normalize,
    read_json,
    read_matrix_csv,
    read_signal_csv,
    synth_pac,
    write_matrix_csv,
    write_signal_csv,
)
from paclab.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from paclab.comodulogram import run_comparison

GRID = "m=6:10,n=42:48"


def synth_file(tmp_path, name="sig.csv", extra=()):
    p = tmp_path / name
    rc = main(["synth", "--paper-pair", "1", "--noise-power", "0",
               "-o", str(p), *extra])
    assert rc == EXIT_OK
    return p


def run_fresh(args, limit_mb=None):
    """Run python with args in a fresh interpreter that imports paclab
    from this checkout, optionally under an address-space limit of
    limit_mb, which applies to that process only."""

    def limit_address_space():
        limit = limit_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # one BLAS/OpenMP thread, so thread buffers cannot use up the limit
    # while numpy is imported
    env = dict(os.environ, PYTHONPATH=str(Path(paclab.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120,
                          preexec_fn=None if limit_mb is None else limit_address_space)


class TestSynth:
    def test_writes_signal_and_manifest(self, tmp_path):
        p = tmp_path / "sig.csv"
        rc = main(["synth", "--m", "8", "--n", "45", "-o", str(p)])
        assert rc == EXIT_OK
        x = read_signal_csv(p)
        assert len(x) == 10000
        assert x.fs == 1000.0
        manifest = read_json(tmp_path / "sig.csv.manifest.json")
        assert manifest["schema"] == 1
        assert manifest["command"] == "synth"
        assert manifest["parameters"]["m"] == 8
        assert str(p) in manifest["outputs"]

    def test_same_seed_is_bitwise_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["synth", "--m", "8", "--n", "45", "--noise-power", "100",
                "--seed", "7"]
        assert main(args + ["-o", str(a)]) == EXIT_OK
        assert main(args + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_paper_pair_calibration(self, tmp_path):
        p = tmp_path / "bench.csv"
        assert main(["synth", "--paper-pair", "1", "-o", str(p)]) == EXIT_OK
        x = read_signal_csv(p)
        total = float(np.mean(x.samples**2))
        # 630 of deterministic power plus 6250 of noise, cross term small
        assert total == pytest.approx(6880.0, rel=0.05)

    def test_paper_pair_flag_overrides(self, tmp_path):
        p = tmp_path / "quiet.csv"
        assert main(["synth", "--paper-pair", "2", "--noise-power", "0",
                     "--dur", "2", "-o", str(p)]) == EXIT_OK
        x = read_signal_csv(p)
        assert len(x) == 2000
        assert float(np.mean(x.samples**2)) == pytest.approx(630.0, rel=0.02)

    def test_missing_frequencies_is_usage_error(self, tmp_path):
        rc = main(["synth", "-o", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    def test_bad_pair_index(self, tmp_path):
        rc = main(["synth", "--paper-pair", "9", "-o", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    def test_inverted_frequencies(self, tmp_path):
        rc = main(["synth", "--m", "45", "--n", "8", "-o", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [
        ("--dur", "nan"), ("--dur", "inf"), ("--fs", "inf"), ("--clean-power", "-1"),
    ])
    def test_non_finite_or_negative_settings_are_usage_errors(self, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        rc = main(["synth", "--m", "8", "--n", "45", flag, value, "-o", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()


class TestPac:
    def test_matrix_meta_and_manifest(self, tmp_path):
        sig = synth_file(tmp_path)
        out = tmp_path / "mat.csv"
        rc = main(["pac", "--method", "mca", "-i", str(sig), "-o", str(out),
                   "--grid", GRID])
        assert rc == EXIT_OK
        mat = read_matrix_csv(out)
        assert mat.normalized
        assert mat.values.max() == 1.0
        meta = read_json(tmp_path / "mat.csv.meta.json")
        assert meta["schema"] == 1
        assert meta["argmax"]["m"] == 8
        assert meta["argmax"]["n"] == 45
        assert read_json(tmp_path / "mat.csv.manifest.json")["command"] == "pac"

    def test_repeat_runs_are_bitwise_identical(self, tmp_path):
        sig = synth_file(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["pac", "--method", "mca", "-i", str(sig),
                         "-o", str(out), "--grid", GRID]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
            (tmp_path / "b.csv.meta.json").read_bytes()

    def test_zero_edge_trim_means_no_trim(self, tmp_path):
        sig = synth_file(tmp_path)
        out = tmp_path / "mat.csv"
        rc = main(["pac", "--method", "mca", "-i", str(sig), "-o", str(out),
                   "--grid", GRID, "--edge-trim", "0"])
        assert rc == EXIT_OK
        assert read_matrix_csv(out).values.max() == 1.0
        assert read_json(tmp_path / "mat.csv.meta.json")["config"]["edge_trim"] == 0

    def test_negative_edge_trim_is_usage_error(self, tmp_path):
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "kld", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID,
                   "--edge-trim", "-5"])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_flat_input_scores_zero_for_cv_as_for_mca(self, tmp_path):
        sig = tmp_path / "flat.csv"
        write_signal_csv(sig, Signal(np.zeros(10000), 1000.0))
        for method in ("mca", "cv"):
            out = tmp_path / f"{method}.csv"
            rc = main(["pac", "--method", method, "-i", str(sig), "-o", str(out),
                       "--grid", GRID])
            assert rc == EXIT_OK
            assert not read_matrix_csv(out).values.any()
            assert read_json(tmp_path / f"{method}.csv.meta.json")["argmax"] is None

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["pac", "--method", "mca", "-i", str(tmp_path / "absent.csv"),
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID])
        assert rc == EXIT_IO

    def test_malformed_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,signal\n1,2,3\n")
        rc = main(["pac", "--method", "mca", "-i", str(bad),
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("rows", ["nan,1\nnan,2\n", "0,1\n1e-320,2\n"],
                             ids=["nan-times", "no-finite-rate"])
    @pytest.mark.parametrize("command", ["pac", "psd"])
    def test_hostile_time_column_is_io_error(self, tmp_path, capsys, command, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,value\n" + rows)
        argv = [command, "-i", str(bad), "-o", str(tmp_path / "out.csv")]
        if command == "pac":
            argv += ["--method", "mca", "--grid", GRID]
        assert main(argv) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_grid_beyond_nyquist_is_numeric_error(self, tmp_path):
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "mca", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", "m=1:50,n=400:600"])
        assert rc == EXIT_NUMERIC

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["pac", "--method", "cv"], ["pac", "--method", "mca"],
                                         ["psd"]], ids=["pac-cv", "pac-mca", "psd"])
    def test_huge_amplitude_is_numeric_error(self, tmp_path, capsys, command):
        # samples near 1e200 are finite, but their squares are not: the
        # signal is refused before any filter or spectrum reads it
        sig = tmp_path / "big.csv"
        assert main(["synth", "--m", "8", "--n", "45", "--ami", "1e200", "-o", str(sig)]) == EXIT_OK
        argv = command + ["-i", str(sig), "-o", str(tmp_path / "out.csv")]
        if command[0] == "pac":
            argv += ["--grid", "m=6:10,n=42:48"]
        assert main(argv) == EXIT_NUMERIC
        assert "peak amplitude" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_underflowing_coherence_is_numeric_error(self, tmp_path, capsys):
        # at 1e-80 of the stock signal the coherence's |Pxy|² is subnormal
        # or 0 in every bin, so cv would score noise in the last bits
        sig = tmp_path / "tiny.csv"
        x = synth_pac(benchmark_spec((8, 45), seed=0)).composite
        write_signal_csv(sig, Signal(x.samples * 1e-80, x.fs))
        capsys.readouterr()
        rc = main(["pac", "--method", "cv", "-i", str(sig), "-o", str(tmp_path / "out.csv"),
                   "--grid", GRID])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("pac-lab: numeric error: coherence underflows")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fs", [None, 1e10], ids=["stock-rate", "10GHz-rate"])
    def test_huge_m_bound_is_numeric_error_before_any_allocation(self, tmp_path, fs):
        # at the stock rate the m bound reaches Nyquist; at 10 GHz it does
        # not, and the grid's cell count is what is refused. Either way the
        # check must come before numpy is asked for a 1e9-entry grid array
        if fs is None:
            sig = synth_file(tmp_path)
        else:
            sig = tmp_path / "fast.csv"
            write_signal_csv(sig, Signal(np.sin(np.arange(4096) / 7.0), fs))
        argv = ["pac", "--method", "mvl", "--grid", "m=1:1000000000,n=2:3",
                "-i", str(sig), "-o", str(tmp_path / "out.csv")]
        proc = run_fresh(["-m", "paclab.cli", *argv], limit_mb=1500)
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert "numeric error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.csv").exists()

    # flags that once sized an allocation (a kernel, a trim, a histogram,
    # a seed list) from unchecked input, with the exit code each must give.
    # They run only here, under the address-space limit: in-process, a
    # regression would allocate gigabytes
    @pytest.mark.parametrize("flags,code", [
        (["pac", "--method", "mvl", "--morlet-cycles", "1e9"], EXIT_NUMERIC),
        (["pac", "--method", "cv", "--morlet-cycles", "1e9"], EXIT_NUMERIC),
        (["pac", "--method", "mvl", "--morlet-cycles", "inf"], EXIT_USAGE),
        (["pac", "--method", "mca", "--mca-bw", "1e-6", "--edge-trim", "0"], EXIT_NUMERIC),
        (["pac", "--method", "eps", "--mca-bw", "1e-6", "--edge-trim", "0"], EXIT_NUMERIC),
        (["pac", "--method", "mca", "--mca-bw", "5e-324"], EXIT_NUMERIC),
        (["pac", "--method", "mca", "--morlet-cycles", "inf"], EXIT_USAGE),
        (["pac", "--method", "kld", "--kld-bins", "1000000000"], EXIT_USAGE),
        (["pac", "--method", "kld", "--kld-bins", "1000000000", "--dry-run"], EXIT_USAGE),
        (["compare", "--pairs", "8:45", "--seeds", "1000000000"], EXIT_USAGE),
        (["compare", "--pairs", "8:45", "--seeds", "1000000000", "--dry-run"], EXIT_USAGE),
    ], ids=["mvl-cycles-1e9", "cv-cycles-1e9", "mvl-cycles-inf", "mca-bw-1e-6",
            "eps-bw-1e-6", "mca-bw-denormal", "mca-cycles-inf", "kld-bins-1e9",
            "kld-bins-1e9-dry-run", "compare-seeds-1e9", "compare-seeds-1e9-dry-run"])
    def test_oversized_flag_fails_cleanly_before_allocating(self, tmp_path, flags, code):
        sig = synth_file(tmp_path, extra=("--seed", "5"))
        out = tmp_path / ("out.json" if flags[0] == "compare" else "out.csv")
        argv = flags + ["--grid", "m=6:7,n=42:43", "-o", str(out)]
        if flags[0] == "pac":
            argv += ["-i", str(sig)]
        proc = run_fresh(["-m", "paclab.cli", *argv], limit_mb=1500)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert out.exists() == (code == EXIT_OK)

    def test_compare_run_count_is_bounded_before_any_path_is_built(self, tmp_path):
        # every pair m:n with n < 58 at MAX_SEEDS seeds and all five
        # methods: about 8e7 --matrix-dir paths, more than the limit
        # admits, so the count is refused before any of them is named
        pairs = ",".join(f"{m}:{n}" for n in range(2, 58) for m in range(1, n))
        assert pairs.count(":") == 1596
        out = tmp_path / "x.json"
        argv = ["compare", "--pairs", pairs, "--seeds", "10000",
                "--matrix-dir", str(tmp_path / "mm"), "--dry-run", "-o", str(out)]
        proc = run_fresh(["-m", "paclab.cli", *argv], limit_mb=1500)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "runs" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_too_short_signal_is_numeric_error(self, tmp_path):
        sig = tmp_path / "short.csv"
        assert main(["synth", "--m", "8", "--n", "45", "--dur", "2",
                     "-o", str(sig)]) == EXIT_OK
        rc = main(["pac", "--method", "mca", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID])
        assert rc == EXIT_NUMERIC

    def test_bad_grid_string_is_usage_error(self, tmp_path):
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "mca", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", "m=1-50"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["m=1:5,n=6:9,m=3:4,q=7", "m=1:5,n=6:9,m=3:4"])
    def test_unknown_or_repeated_grid_key_is_usage_error(self, tmp_path, grid):
        sig = synth_file(tmp_path)
        out = tmp_path / "out.csv"
        rc = main(["pac", "--method", "mvl", "-i", str(sig), "-o", str(out), "--grid", grid])
        assert rc == EXIT_USAGE
        assert not out.exists()

    def test_unknown_method_is_usage_error(self, tmp_path):
        rc = main(["pac", "--method", "magic", "-i", "x", "-o", "y"])
        assert rc == EXIT_USAGE


class TestOutOfMemory:
    def test_memory_error_exits_numeric_without_traceback(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(paclab.cli, "compute_matrix", no_memory)
        sig = synth_file(tmp_path)
        out = tmp_path / "mat.csv"
        capsys.readouterr()
        rc = main(["pac", "--method", "mca", "-i", str(sig), "-o", str(out), "--grid", GRID])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("pac-lab: out of memory")
        assert err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "mat.csv.meta.json").exists()
        assert not (tmp_path / "mat.csv.manifest.json").exists()

    def test_address_space_limit_exits_numeric_without_traceback(self, tmp_path):
        self.run_under_limit(tmp_path)

    @pytest.mark.parametrize("jobs", ["2", "8"])
    def test_address_space_limit_exits_numeric_with_the_pool(self, tmp_path, jobs):
        # the pool's threads share the one malloc arena main pins; at 8
        # their stacks leave no room to start them all
        self.run_under_limit(tmp_path, "--jobs", jobs)

    def test_a_thread_that_cannot_start_exits_numeric(self, tmp_path, monkeypatch, capsys):
        class NoThreads(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                raise RuntimeError("can't start new thread")

        sig = synth_file(tmp_path)
        monkeypatch.setattr(paclab.comodulogram, "ThreadPoolExecutor", NoThreads)
        x = read_signal_csv(sig)
        with pytest.raises(MemoryError, match="^cannot start a worker thread: can't start"):
            compute_matrix(x, "mca", GridSpec(6, 10, 42, 48), jobs=2)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        rc = main(["pac", "--method", "mca", "-i", str(sig), "-o", str(tmp_path / "mat.csv"),
                   "--grid", GRID, "--jobs", "2"])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("pac-lab: out of memory: cannot start a worker thread")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_default_jobs_thread_that_cannot_start_exits_numeric(self, tmp_path, monkeypatch,
                                                                 capsys):
        # without --jobs, mca runs on every usable CPU
        class NoThreads(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                raise RuntimeError("can't start new thread")

        sig = synth_file(tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(paclab.comodulogram, "ThreadPoolExecutor", NoThreads)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        rc = main(["pac", "--method", "mca", "-i", str(sig), "-o", str(tmp_path / "mat.csv"),
                   "--grid", GRID])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("pac-lab: out of memory: cannot start a worker thread")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_a_column_runtime_error_is_not_a_thread_error(self, monkeypatch):
        def broken_cells(*args):
            def cell(m):
                raise RuntimeError("column")

            return cell

        measure = paclab.comodulogram._MEASURES["mca"]
        monkeypatch.setitem(paclab.comodulogram._MEASURES, "mca",
                            measure._replace(cells=broken_cells))
        x = synth_pac(benchmark_spec((8, 45), seed=0)).composite
        with pytest.raises(RuntimeError, match="^column$"):
            compute_matrix(x, "mca", GridSpec(6, 10, 42, 48), jobs=2)

    @staticmethod
    def run_under_limit(tmp_path, *flags):
        sig = tmp_path / "sig.csv"
        assert main(["synth", "--m", "8", "--n", "45", "--dur", "100", "--noise-power", "1",
                     "-o", str(sig)]) == EXIT_OK
        probe = run_fresh(["-c", "import paclab.cli\n"
                                 "print(next(ln.split()[1] for ln in open('/proc/self/status')"
                                 " if ln.startswith('VmPeak:')))"])
        # 64 MB over a fresh interpreter's size after import: room to read
        # the 100 s signal (about 10 MB), not for the mvl bank on the
        # default grid (about 180 MB)
        limit_mb = int(probe.stdout) // 1024 + 64
        out = tmp_path / "mat.csv"
        proc = run_fresh(["-m", "paclab.cli", "pac", "--method", "mvl", "-i", str(sig),
                          "-o", str(out), *flags], limit_mb=limit_mb)
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert proc.stderr.startswith("pac-lab: out of memory")
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert not (tmp_path / "mat.csv.manifest.json").exists()


# computes the mca matrix of a 60 s signal on the 300 s workload's grid,
# serially and at jobs 2, after pinning glibc's malloc if told "pin";
# prints the minor faults taken across both and each matrix's bytes
PIN_CHILD = """
import dataclasses, resource, sys
import paclab.cli
from paclab import GridSpec, benchmark_spec, compute_matrix, synth_pac
if sys.argv[1] == "pin":
    paclab.cli._pin_malloc()
x = synth_pac(dataclasses.replace(benchmark_spec(1, seed=3), duration=60.0)).composite
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mats = [compute_matrix(x, "mca", GridSpec(1, 12, 30, 50), jobs=j) for j in (None, 2)]
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
for mat in mats:
    print(mat.values.tobytes().hex())
"""


class TestPinMalloc:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
    def test_pinned_process_keeps_its_temporaries_with_the_same_matrices(self):
        free, pinned = (run_fresh(["-c", PIN_CHILD, arg]) for arg in ("free", "pin"))
        assert free.returncode == pinned.returncode == 0, free.stderr + pinned.stderr
        free_faults, *free_mats = free.stdout.split()
        pinned_faults, *pinned_mats = pinned.stdout.split()
        # 157k-164k against 6.9k-7.1k on a 2-vCPU Linux VM with glibc 2.36
        assert int(pinned_faults) < int(free_faults) / 2
        assert len(set(free_mats + pinned_mats)) == 1

    def test_main_pins_before_running_only(self, tmp_path, monkeypatch):
        out = tmp_path / "sig.csv"
        seen = []
        monkeypatch.setattr(paclab.cli, "_pin_malloc", lambda: seen.append(out.exists()))
        argv = ["synth", "--m", "8", "--n", "45", "--dur", "3", "-o", str(out)]
        assert main(argv + ["--dry-run"]) == EXIT_OK
        assert main(["synth", "--help"]) == EXIT_OK
        assert main(argv + ["--ami", "inf"]) == EXIT_USAGE
        assert seen == []
        assert main(argv) == EXIT_OK
        # once, before the plan wrote its output
        assert seen == [False]
        assert out.exists()

    def test_sets_the_three_glibc_values(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
        monkeypatch.setattr(paclab.cli.ctypes, "CDLL", lambda name: libc)
        paclab.cli._pin_malloc()
        # M_ARENA_MAX, M_MMAP_THRESHOLD and M_TRIM_THRESHOLD in malloc.h
        assert calls == [(-8, 1), (-3, 32 * 2**20), (-1, 256 * 2**20)]

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(paclab.cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert paclab.cli._pin_malloc() is None


class TestDryRun:
    def test_prints_manifest_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        rc = main(["synth", "--m", "8", "--n", "45", "-o", str(out), "--dry-run"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["command"] == "synth"
        assert doc["duration_s"] is None
        assert not out.exists()
        assert not (tmp_path / "sig.csv.manifest.json").exists()

    def test_pac_dry_run_skips_compute(self, tmp_path, capsys):
        rc = main(["pac", "--method", "mca", "-i", str(tmp_path / "absent.csv"),
                   "-o", str(tmp_path / "out.csv"), "--dry-run"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "pac"
        assert not (tmp_path / "out.csv").exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    return json.loads(text, parse_constant=reject)


# argv per command; {d} is the test's directory, which holds sig.csv and
# mat.csv. Each runs once with --dry-run and once for real.
DRY_RUN_CASES = {
    "synth": ["synth", "--m", "8", "--n", "45", "--noise-power", "100",
              "--dur", "3", "-o", "{d}/out.csv"],
    "pac": ["pac", "--method", "mca", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
            "--grid", GRID],
    "psd": ["psd", "-i", "{d}/sig.csv", "-o", "{d}/out.csv", "--window", "512"],
    "compare": ["compare", "--pairs", "8:45", "--methods", "kld", "--seeds", "1",
                "--grid", GRID, "-o", "{d}/out.json"],
    "compare-matrix-dir": ["compare", "--pairs", "8:45,12:45", "--methods", "kld,mvl",
                           "--seeds", "2", "--grid", "m=6:13,n=42:46",
                           "--matrix-dir", "{d}/mats", "-o", "{d}/out.json"],
    "heatmap": ["heatmap", "-i", "{d}/mat.csv", "-o", "{d}/out.pgm"],
}


class TestDryRunMatchesRun:
    @pytest.mark.parametrize("case", sorted(DRY_RUN_CASES))
    def test_dry_run_prints_the_written_manifest(self, case, tmp_path, capsys):
        sig = synth_file(tmp_path)
        assert main(["pac", "--method", "mca", "-i", str(sig),
                     "-o", str(tmp_path / "mat.csv"), "--grid", GRID]) == EXIT_OK
        argv = [a.format(d=tmp_path) for a in DRY_RUN_CASES[case]]
        capsys.readouterr()
        assert main(argv + ["--dry-run"]) == EXIT_OK
        text = capsys.readouterr().out
        printed = _strict_json(text)
        assert main(argv) == EXIT_OK
        output = argv[argv.index("-o") + 1]
        written_text = Path(output + ".manifest.json").read_text()
        # one serializer: the same text, but for the run's duration
        assert re.sub(r'"duration_s": [^,\n]+', '"duration_s": null', written_text) == text
        written = read_json(output + ".manifest.json")
        assert printed.pop("duration_s") is None
        assert written.pop("duration_s") >= 0.0
        assert printed == written
        if argv[0] == "pac":
            # the meta sidecar follows the manifest's strict-JSON rule
            meta = _strict_json(Path(output + ".meta.json").read_text())
            assert meta["config"]["morlet_cycles"] == written["parameters"]["morlet_cycles"]


# argv that the real run rejects as a usage error; --dry-run must too
INVALID_CASES = {
    "psd-negative-overlap": ["psd", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                             "--overlap", "-1"],
    "compare-nan-duration": ["compare", "--pairs", "8:45", "--methods", "kld",
                             "--seeds", "1", "--grid", GRID, "--dur", "nan",
                             "-o", "{d}/out.json"],
    "compare-negative-clean-power": ["compare", "--pairs", "8:45", "--methods", "kld",
                                     "--seeds", "1", "--grid", GRID, "--clean-power", "-1",
                                     "-o", "{d}/out.json"],
    "pac-negative-welch-overlap": ["pac", "--method", "cv", "-i", "{d}/sig.csv",
                                   "-o", "{d}/out.csv", "--grid", GRID,
                                   "--welch-overlap", "-1"],
    "pac-zero-welch-window": ["pac", "--method", "cv", "-i", "{d}/sig.csv",
                              "-o", "{d}/out.csv", "--grid", GRID, "--welch-window", "0"],
    "compare-zero-welch-window": ["compare", "--pairs", "8:45", "--methods", "cv",
                                  "--seeds", "1", "--grid", GRID, "--welch-window", "0",
                                  "-o", "{d}/out.json"],
    "pac-kld-bins-over-max": ["pac", "--method", "kld", "-i", "{d}/sig.csv",
                              "-o", "{d}/out.csv", "--grid", GRID, "--kld-bins", "100001"],
    "synth-negative-seed": ["synth", "--paper-pair", "1", "--seed", "-1",
                            "-o", "{d}/out.csv"],
    "compare-negative-base-seed": ["compare", "--pairs", "8:45", "--methods", "kld",
                                   "--seeds", "1", "--grid", GRID, "--base-seed", "-3",
                                   "-o", "{d}/out.json"],
    "compare-seeds-over-max": ["compare", "--pairs", "8:45", "--methods", "kld",
                               "--seeds", "10001", "--grid", GRID, "-o", "{d}/out.json"],
    "compare-runs-over-max": ["compare", "--pairs", "8:45,12:45,20:45,30:45,10:40",
                              "--seeds", "10000", "--grid", GRID, "-o", "{d}/out.json"],
    "pac-zero-jobs": ["pac", "--method", "mca", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                      "--grid", GRID, "--jobs", "0"],
    "pac-negative-jobs": ["pac", "--method", "mca", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                          "--grid", GRID, "--jobs", "-5"],
    "compare-jobs-over-max": ["compare", "--pairs", "8:45", "--methods", "kld", "--seeds", "1",
                              "--grid", GRID, "--jobs", "1000000000", "-o", "{d}/out.json"],
    # a repeated pair or method would run twice and count twice in its
    # aggregate, and write one --matrix-dir file twice
    "compare-repeated-pair": ["compare", "--pairs", "8:45,8:45", "--methods", "kld",
                              "--seeds", "1", "--grid", GRID, "-o", "{d}/out.json"],
    "compare-repeated-method": ["compare", "--pairs", "8:45", "--methods", "kld,kld",
                                "--seeds", "1", "--grid", GRID, "--matrix-dir", "{d}/mats",
                                "-o", "{d}/out.json"],
    "compare-no-method": ["compare", "--pairs", "8:45", "--methods", ",", "--seeds", "1",
                          "--grid", GRID, "-o", "{d}/out.json"],
    # only pac and compare run workers, so only they take --jobs
    "synth-jobs": ["synth", "--m", "8", "--n", "45", "--jobs", "2", "-o", "{d}/out.csv"],
    "psd-jobs": ["psd", "-i", "{d}/sig.csv", "-o", "{d}/out.csv", "--jobs", "2"],
    "heatmap-jobs": ["heatmap", "-i", "{d}/sig.csv", "-o", "{d}/out.pgm", "--jobs", "2"],
    # settings whose run would make a NaN or an infinity: a Gabor kernel
    # with an infinite beta (1e308 Hz overflows it, as does twice 6e307
    # Hz for mca's capture band), or a synthesized signal that overflows
    "pac-infinite-mca-bw": ["pac", "--method", "mca", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                            "--grid", GRID, "--mca-bw", "inf"],
    "pac-huge-mca-bw": ["pac", "--method", "mca", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                        "--grid", GRID, "--mca-bw", "1e308"],
    "pac-capture-band-overflows": ["pac", "--method", "mca", "-i", "{d}/sig.csv",
                                   "-o", "{d}/out.csv", "--grid", GRID, "--mca-bw", "6e307"],
    "eps-infinite-mca-bw": ["pac", "--method", "eps", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                            "--grid", GRID, "--mca-bw", "inf"],
    "eps-huge-mca-bw": ["pac", "--method", "eps", "-i", "{d}/sig.csv", "-o", "{d}/out.csv",
                        "--grid", GRID, "--mca-bw", "1e308"],
    "pac-infinite-morlet-cycles": ["pac", "--method", "mca", "-i", "{d}/sig.csv",
                                   "-o", "{d}/out.csv", "--grid", GRID,
                                   "--morlet-cycles", "inf"],
    "compare-infinite-morlet-cycles": ["compare", "--pairs", "8:45", "--methods", "kld",
                                       "--seeds", "1", "--grid", GRID, "--morlet-cycles", "inf",
                                       "-o", "{d}/out.json"],
    "synth-infinite-ami": ["synth", "--m", "8", "--n", "45", "--ami", "inf", "-o", "{d}/out.csv"],
    "synth-infinite-noise-power": ["synth", "--m", "8", "--n", "45", "--noise-power", "inf",
                                   "-o", "{d}/out.csv"],
    "synth-huge-noise-power": ["synth", "--m", "8", "--n", "45", "--noise-power", "1e308",
                               "-o", "{d}/out.csv"],
    "synth-infinite-clean-power": ["synth", "--m", "8", "--n", "45", "--clean-power", "inf",
                                   "-o", "{d}/out.csv"],
    "compare-huge-noise-power": ["compare", "--pairs", "8:45", "--methods", "kld",
                                 "--seeds", "1", "--grid", GRID, "--noise-power", "1e308",
                                 "-o", "{d}/out.json"],
}


class TestDryRunValidatesLikeRun:
    @pytest.mark.parametrize("case", sorted(INVALID_CASES))
    def test_same_exit_code_with_and_without_dry_run(self, case, tmp_path, capsys):
        synth_file(tmp_path)
        argv = [a.format(d=tmp_path) for a in INVALID_CASES[case]]
        assert main(argv + ["--dry-run"]) == EXIT_USAGE
        assert main(argv) == EXIT_USAGE
        output = Path(argv[argv.index("-o") + 1])
        assert not output.exists()
        assert capsys.readouterr().out == ""


class TestCompare:
    def test_report_and_matrices(self, tmp_path):
        out = tmp_path / "report.json"
        mdir = tmp_path / "mats"
        rc = main(["compare", "--pairs", "8:45", "--methods", "mca",
                   "--seeds", "2", "--grid", GRID, "--matrix-dir", str(mdir),
                   "-o", str(out)])
        assert rc == EXIT_OK
        doc = read_json(out)
        assert doc["schema"] == 1
        assert len(doc["runs"]) == 2
        assert "mca" in doc["aggregates"]
        assert doc["aggregates"]["mca"]["8:45"]["runs"] == 2
        for seed in (0, 1):
            mat = read_matrix_csv(mdir / f"mca_m8_n45_seed{seed}.csv")
            assert mat.normalized

    def test_matrix_files_are_the_run_matrices(self, tmp_path):
        # matrices are written from the run's sink as they arrive; with
        # pooled columns each file must still hold its own (pair, method, seed)
        mdir = tmp_path / "mats"
        assert main(["compare", "--pairs", "8:45,12:45", "--methods", "kld,mvl",
                     "--seeds", "2", "--grid", "m=6:13,n=42:46", "--jobs", "2",
                     "--matrix-dir", str(mdir), "-o", str(tmp_path / "r.json")]) == EXIT_OK
        assert len(list(mdir.iterdir())) == 8
        grid = GridSpec(6, 13, 42, 46)
        for (m, n), seed in [((8, 45), 0), ((8, 45), 1), ((12, 45), 0), ((12, 45), 1)]:
            x = synth_pac(benchmark_spec((m, n), seed=seed)).composite
            for method in ("kld", "mvl"):
                want = tmp_path / "want.csv"
                write_matrix_csv(want, normalize(compute_matrix(x, method, grid)))
                got = mdir / f"{method}_m{m}_n{n}_seed{seed}.csv"
                assert got.read_bytes() == want.read_bytes()

    def test_uncreatable_matrix_dir_is_io_error_before_any_matrix(self, tmp_path, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was computed before the directory was made")

        monkeypatch.setattr(paclab.comodulogram, "compute_matrix", no_matrix)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        out = tmp_path / "r.json"
        rc = main(["compare", "--pairs", "8:45", "--methods", "kld", "--seeds", "1",
                   "--grid", GRID, "--matrix-dir", str(blocker / "mats"), "-o", str(out)])
        assert rc == EXIT_IO
        assert not out.exists()

    def test_bad_pairs_are_usage_errors(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["compare", "--pairs", "8-45", "-o", out]) == EXIT_USAGE
        assert main(["compare", "--pairs", "45:8", "-o", out]) == EXIT_USAGE
        assert main(["compare", "--pairs", "8:45", "--methods", "nope",
                     "-o", out]) == EXIT_USAGE
        assert main(["compare", "--pairs", "8:45", "--seeds", "0",
                     "-o", out]) == EXIT_USAGE


class TestHeatmap:
    def test_renders_pgm(self, tmp_path):
        sig = synth_file(tmp_path)
        mat = tmp_path / "mat.csv"
        assert main(["pac", "--method", "mca", "-i", str(sig),
                     "-o", str(mat), "--grid", GRID]) == EXIT_OK
        pgm = tmp_path / "map.pgm"
        assert main(["heatmap", "-i", str(mat), "-o", str(pgm)]) == EXIT_OK
        blob = pgm.read_bytes()
        assert blob.startswith(b"P5\n")
        assert b"5 7\n255\n" in blob  # 5 modulator columns, 7 carrier rows

    def test_unnormalized_matrix_is_io_error(self, tmp_path):
        bad = tmp_path / "big.csv"
        bad.write_text("# grid: m=1:2,n=2:3\n2.5,0\n3.5,0\n")
        rc = main(["heatmap", "-i", str(bad), "-o", str(tmp_path / "map.pgm")])
        assert rc == EXIT_IO

    def test_missing_matrix_is_io_error(self, tmp_path):
        rc = main(["heatmap", "-i", str(tmp_path / "absent.csv"),
                   "-o", str(tmp_path / "map.pgm")])
        assert rc == EXIT_IO


class TestParser:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "pac-lab" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments_exits_two(self):
        assert main([]) == EXIT_USAGE

    def test_defaults_have_one_home(self):
        parser = build_parser()
        pac = parser.parse_args(["pac", "--method", "mca", "-i", "x", "-o", "y"])
        compare = parser.parse_args(["compare", "--pairs", "8:45", "-o", "y"])
        assert pac.grid == compare.grid == paclab.io.grid_str(GridSpec())
        assert compare.seeds == inspect.signature(run_comparison).parameters["n_seeds"].default


def subcommands():
    """build_parser()'s subparsers by command name."""
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def argv_from_manifest(doc):
    """The argv that reruns the run a manifest records: each parameter
    under its flag, by the dest-to-option table of build_parser(), lists
    joined by commas, and the first input and output as -i and -o. Keys
    no flag sets (derived ones such as synth's clean_scale) and unset
    (null) values are left out, so a non-finite value, which a manifest
    records as null, is not rerun."""
    parser = subcommands()[doc["command"]]
    options = {a.dest: a.option_strings[-1] for a in parser._actions if a.option_strings}
    argv = [doc["command"]]
    for key, value in sorted(doc["parameters"].items()):
        if key in options and value is not None:
            argv += [options[key], ",".join(value) if isinstance(value, list) else str(value)]
    if doc["inputs"]:
        argv += ["-i", doc["inputs"][0]]
    return argv + ["-o", doc["outputs"][0]]


# the least argv each command accepts; tests vary one flag at a time
BASE_ARGV = {
    "synth": ["synth", "--m", "8", "--n", "45", "-o", "out.csv"],
    "pac": ["pac", "--method", "mca", "-i", "sig.csv", "-o", "out.csv"],
    "psd": ["psd", "-i", "sig.csv", "-o", "out.csv"],
    "compare": ["compare", "--pairs", "8:45", "-o", "out.json"],
    "heatmap": ["heatmap", "-i", "mat.csv", "-o", "out.pgm"],
}
# what names a file or steers main, not a setting of the run
UNRECORDED = {"help", "input", "output", "dry_run"}


def settable(command):
    """The flags of a command that set something its run records."""
    return [a for a in subcommands()[command]._actions if a.dest not in UNRECORDED]


SETTABLE = [(command, a.option_strings[-1]) for command in sorted(BASE_ARGV)
            for a in settable(command)]


def other_values(action, current):
    """Values other than current, from action's choices or type, likelier
    to be accepted first: a number one up, halved or doubled; a text with
    its last integer one down, or its last comma-separated item dropped."""
    if action.choices:
        values = list(action.choices)
    elif action.type in (int, float):
        base = 1 if current is None else current
        values = [action.type(v) for v in (base + 1, base / 2, base * 2)]
    elif current is None:
        values = ["other"]
    else:
        values = [re.sub(r"\d+(?=\D*$)", lambda d: str(int(d.group()) - 1), current),
                  current.rpartition(",")[0]]
    return [str(v) for v in values if v not in (current, "")]


def dry_run_parameters(argv, capsys):
    capsys.readouterr()
    assert main(argv + ["--dry-run"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["parameters"]


class TestManifestParameters:
    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_parameters_are_the_settable_flags(self, command, capsys):
        recorded = dry_run_parameters(BASE_ARGV[command], capsys)
        derived = {"clean_scale"} if command == "synth" else set()
        assert set(recorded) == {a.dest for a in settable(command)} | derived

    @pytest.mark.parametrize("command,option", SETTABLE, ids=[" ".join(c) for c in SETTABLE])
    def test_every_flag_is_recorded(self, command, option, capsys):
        # no flag can be forgotten: another accepted value of any flag
        # changes what the --dry-run manifest records
        argv = BASE_ARGV[command]
        action = next(a for a in settable(command) if option in a.option_strings)
        recorded = dry_run_parameters(argv, capsys)
        current = getattr(build_parser().parse_args(argv), action.dest)
        if current is None:
            current = recorded.get(action.dest)  # e.g. synth's fs, from SynthesisSpec
        for value in other_values(action, current):
            if main(argv + [option, value, "--dry-run"]) == EXIT_OK:
                break
        else:
            pytest.fail(f"{command} accepts no value of {option} but {current!r}")
        changed = json.loads(capsys.readouterr().out)["parameters"]
        assert changed != recorded, f"{command} {option} {value} is not recorded"

    def test_rerun_from_manifests_gives_the_same_files(self, tmp_path, monkeypatch):
        runs = [
            ["synth", "--paper-pair", "2", "--dur", "4", "--seed", "3", "-o", "sig.csv"],
            ["pac", "--method", "kld", "--grid", "m=6:14,n=40:46", "--kld-bins", "10",
             "--mca-bw", "2", "--edge-trim", "50", "--jobs", "2", "-i", "sig.csv",
             "-o", "mat.csv"],
            ["psd", "--window", "512", "--overlap", "0.5", "-i", "sig.csv", "-o", "psd.csv"],
            ["compare", "--pairs", "8:45,12:45", "--methods", "mca,kld", "--seeds", "1",
             "--base-seed", "4", "--dur", "4", "--grid", "m=6:14,n=40:46", "--mca-bw", "2",
             "--kld-bins", "10", "--matrix-dir", "mats", "-o", "rep.json"],
            ["heatmap", "-i", "mat.csv", "-o", "mat.pgm"],
        ]
        first, again = tmp_path / "first", tmp_path / "again"
        first.mkdir()
        again.mkdir()
        monkeypatch.chdir(first)
        for argv in runs:
            assert main(argv) == EXIT_OK, argv
        monkeypatch.chdir(again)
        for argv in runs:
            rerun = argv_from_manifest(read_json(first / (argv[-1] + ".manifest.json")))
            assert main(rerun) == EXIT_OK, rerun
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
        assert len(files) == 5 * 2 + 1 + 4  # outputs and manifests, meta, matrix files
        for f in files:
            if f.name.endswith(".manifest.json"):
                a, b = read_json(first / f), read_json(again / f)
                assert a.pop("duration_s") >= 0.0 and b.pop("duration_s") >= 0.0
                assert a == b, f
            else:
                assert (first / f).read_bytes() == (again / f).read_bytes(), f


def test_no_command_imports_scipy_signal(tmp_path):
    # scipy.signal takes most of a second to import, and the package
    # computes everything it took from it (hilbert, fftconvolve, the Welch
    # estimates) on scipy.fft: no command, the spectral ones included,
    # may import it
    code = f"""
import sys
import paclab, paclab.cli
from paclab.cli import main
d = {str(tmp_path)!r}
assert main(["synth", "--paper-pair", "1", "--dur", "10", "-o", d + "/sig.csv"]) == 0
for method in ("mca", "eps", "mvl", "cv", "kld"):
    assert main(["pac", "--method", method, "--grid", "m=6:9,n=42:46",
                 "-i", d + "/sig.csv", "-o", d + "/" + method + ".csv"]) == 0
assert main(["psd", "-i", d + "/sig.csv", "-o", d + "/psd.csv"]) == 0
assert main(["compare", "--pairs", "8:45", "--methods", "cv", "--seeds", "1",
             "--dur", "10", "--grid", "m=6:9,n=42:46", "-o", d + "/compare.json"]) == 0
assert main(["heatmap", "-i", d + "/cv.csv", "-o", d + "/cv.pgm"]) == 0
print("scipy.signal" in sys.modules)
"""
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    for name in ("cv.csv", "psd.csv", "compare.json", "cv.pgm"):
        assert (tmp_path / name).exists()

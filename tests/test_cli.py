"""Command line behavior: subcommands, exit codes, sidecar files."""

import json
from pathlib import Path

import numpy as np
import pytest

from paclab import read_json, read_matrix_csv, read_signal_csv
from paclab.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

GRID = "m=6:10,n=42:48"


def synth_file(tmp_path, name="sig.csv", extra=()):
    p = tmp_path / name
    rc = main(["synth", "--paper-pair", "1", "--noise-power", "0",
               "-o", str(p), *extra])
    assert rc == EXIT_OK
    return p


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

    def test_grid_beyond_nyquist_is_numeric_error(self, tmp_path):
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "mca", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", "m=1:50,n=400:600"])
        assert rc == EXIT_NUMERIC

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

    def test_unknown_method_is_usage_error(self, tmp_path):
        rc = main(["pac", "--method", "magic", "-i", "x", "-o", "y"])
        assert rc == EXIT_USAGE


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
    "pac-infinite-cycles": ["pac", "--method", "mca", "-i", "{d}/sig.csv",
                            "-o", "{d}/out.csv", "--grid", GRID,
                            "--morlet-cycles", "inf"],
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
        printed = _strict_json(capsys.readouterr().out)
        assert main(argv) == EXIT_OK
        output = argv[argv.index("-o") + 1]
        written = read_json(output + ".manifest.json")
        assert printed.pop("duration_s") is None
        assert written.pop("duration_s") >= 0.0
        assert printed == written
        if argv[0] == "pac":
            # the meta sidecar follows the manifest's strict-JSON rule
            meta = _strict_json(Path(output + ".meta.json").read_text())
            assert meta["config"]["morlet_cycles"] == written["parameters"]["morlet_cycles"]

    def test_infinite_noise_power_prints_strict_json(self, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        assert main(["synth", "--m", "8", "--n", "45", "--noise-power", "inf",
                     "-o", str(out), "--dry-run"]) == EXIT_OK
        doc = _strict_json(capsys.readouterr().out)
        # infinities are recorded as null, as in every written manifest
        assert doc["parameters"]["noise_power"] is None


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


class TestJobsEnv:
    def test_env_sets_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAC_LAB_JOBS", "2")
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "mca", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID])
        assert rc == EXIT_OK

    def test_invalid_env_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAC_LAB_JOBS", "many")
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "mca", "-i", str(sig),
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID])
        assert rc == EXIT_USAGE

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAC_LAB_JOBS", "many")
        sig = synth_file(tmp_path)
        rc = main(["pac", "--method", "mca", "-i", str(sig), "--jobs", "1",
                   "-o", str(tmp_path / "out.csv"), "--grid", GRID])
        assert rc == EXIT_OK


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

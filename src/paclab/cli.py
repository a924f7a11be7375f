"""pac-lab command line: synthesize signals, compute PSDs and coupling
matrices, run the multi-method comparison, render heatmaps.

Each command validates its arguments into a plan; main prints the plan's
manifest under --dry-run, or runs it and writes that manifest.

Exit codes: 0 success, 2 usage, 3 I/O, 4 numeric/degenerate input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__, io
from .comodulogram import (
    MAX_JOBS,
    METHODS,
    GridSpec,
    argmax,
    comparison_runs,
    comparison_specs,
    compute_matrix,
    normalize,
    run_comparison,
)
from .errors import InvalidInputError, PacError
from .measures import MeasureConfig
from .spectral import WelchSpec, welch_psd
from .synthesis import (
    BENCHMARK_AMI,
    BENCHMARK_CLEAN_POWER,
    BENCHMARK_DURATION,
    BENCHMARK_FS,
    BENCHMARK_NOISE_POWER,
    BENCHMARK_PAIRS,
    SynthesisSpec,
    benchmark_spec,
    clean_scale_for,
    synth_pac,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


class _IoError(Exception):
    pass


def _resolve_jobs(args):
    """The worker count of --jobs, else of PAC_LAB_JOBS, else None: an
    integer in [1, MAX_JOBS]."""
    if args.jobs is not None:
        source, raw = "--jobs", args.jobs
    else:
        source, raw = "PAC_LAB_JOBS", os.environ.get("PAC_LAB_JOBS")
        if raw is None:
            return None
    try:
        jobs = int(raw)
        if 1 <= jobs <= MAX_JOBS:
            return jobs
    except ValueError:
        pass
    raise _UsageError(f"{source} must be an integer in [1, {MAX_JOBS}], got {raw!r}")


class _Plan(NamedTuple):
    """A validated command: what its manifest records, and run(), which
    writes every output but the manifest."""

    command: str
    parameters: dict
    inputs: list
    outputs: list
    seeds: Optional[list]
    run: Callable[[], None]


def _read(reader, path):
    try:
        return reader(path)
    except InvalidInputError as e:
        raise _IoError(str(e))


def _write(fn, path, *payload):
    try:
        fn(path, *payload)
    except OSError as e:
        raise _IoError(f"cannot write {path}: {e}")


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise _UsageError(f"pair {chunk!r} is not of the form m:n")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise _UsageError(f"pair {chunk!r} is not of the form m:n")
        if not (1 <= m < n):
            raise _UsageError(f"pair {chunk!r} needs 1 <= m < n")
        pairs.append((m, n))
    if not pairs:
        raise _UsageError("need at least one m:n pair")
    return pairs


def _parse_grid(text: str) -> GridSpec:
    try:
        return io.parse_grid(text)
    except InvalidInputError as e:
        raise _UsageError(str(e))


def _measure_config(args) -> MeasureConfig:
    try:
        return MeasureConfig(
            mca_bw=args.mca_bw,
            morlet_cycles=args.morlet_cycles,
            kld_bins=args.kld_bins,
            edge_trim=args.edge_trim,
            welch=WelchSpec(window_len=args.welch_window, overlap=args.welch_overlap),
        )
    except InvalidInputError as e:
        raise _UsageError(str(e))


def cmd_synth(args) -> _Plan:
    given = {"m": args.m, "n": args.n, "ami": args.ami, "duration": args.dur,
             "fs": args.fs, "noise_power": args.noise_power}
    given = {k: v for k, v in given.items() if v is not None}
    # unset flags keep the preset's value, or else SynthesisSpec's default
    if args.paper_pair is not None:
        if not (1 <= args.paper_pair <= len(BENCHMARK_PAIRS)):
            raise _UsageError(f"--paper-pair must be 1..{len(BENCHMARK_PAIRS)}")
        preset = benchmark_spec(args.paper_pair)
        clean = BENCHMARK_CLEAN_POWER if args.clean_power is None else args.clean_power
    elif args.m is None or args.n is None:
        raise _UsageError("need --m and --n (or --paper-pair)")
    else:
        preset, clean = None, args.clean_power
    try:
        spec = dataclasses.replace(preset, **given) if preset else SynthesisSpec(**given)
        spec = dataclasses.replace(spec, clean_scale=clean_scale_for(clean, spec.ami),
                                   seed=args.seed)
    except InvalidInputError as e:
        raise _UsageError(str(e))
    parameters = {
        "m": spec.m, "n": spec.n, "ami": spec.ami, "duration": spec.duration,
        "fs": spec.fs, "noise_power": spec.noise_power, "clean_power": clean,
        "clean_scale": spec.clean_scale,
    }
    out = Path(args.output)

    def run():
        _write(io.write_signal_csv, out, synth_pac(spec).composite)

    return _Plan("synth", parameters, [], [out], [args.seed], run)


def cmd_pac(args) -> _Plan:
    cfg = _measure_config(args)
    grid = _parse_grid(args.grid)
    jobs = _resolve_jobs(args)
    inp = Path(args.input)
    out = Path(args.output)
    meta_out = Path(str(out) + ".meta.json")
    parameters = {
        "method": args.method,
        "grid": io.grid_str(grid),
        **cfg.as_dict(),
        "jobs": jobs,
        "cache": not args.no_cache,
    }

    def run():
        x = _read(io.read_signal_csv, inp)
        mat = normalize(
            compute_matrix(x, args.method, grid, cfg, jobs=jobs, use_cache=not args.no_cache)
        )
        peak = argmax(mat)
        _write(io.write_matrix_csv, out, mat)
        meta = {
            "schema": 1,
            "method": args.method,
            "grid": io.grid_str(grid),
            "argmax": None if peak is None else {"m": peak[0], "n": peak[1], "value": peak[2]},
            "config": cfg.as_dict(),
        }
        _write(io.write_json, meta_out, meta)

    return _Plan("pac", parameters, [inp], [out, meta_out], None, run)


def cmd_psd(args) -> _Plan:
    inp = Path(args.input)
    out = Path(args.output)
    parameters = {
        "window": args.window,
        "overlap": args.overlap,
    }
    try:
        spec = WelchSpec(window_len=args.window, overlap=args.overlap)
    except InvalidInputError as e:
        raise _UsageError(str(e))

    def run():
        psd = welch_psd(_read(io.read_signal_csv, inp), spec)
        lines = ["freq_hz,psd"]
        for f, p in zip(psd.freqs, psd.values):
            lines.append(f"{io.fmt(f)},{io.fmt(p)}")
        _write(lambda p, text: Path(p).write_text(text), out, "\n".join(lines) + "\n")

    return _Plan("psd", parameters, [inp], [out], None, run)


def cmd_compare(args) -> _Plan:
    pairs = _parse_pairs(args.pairs)
    methods = [mth.strip() for mth in args.methods.split(",") if mth.strip()]
    for mth in methods:
        if mth not in METHODS:
            raise _UsageError(f"unknown method {mth!r}; pick from {METHODS}")
    if not methods:
        raise _UsageError("need at least one method")
    cfg = _measure_config(args)
    grid = _parse_grid(args.grid)
    jobs = _resolve_jobs(args)
    try:
        # the run count, seeds and signal settings run_comparison will
        # use, checked before any work or any list sized by them
        seeds = list(comparison_runs(len(pairs), len(methods), args.seeds, args.base_seed))
        comparison_specs(pairs, args.ami, args.dur, args.fs, args.noise_power, args.clean_power)
    except InvalidInputError as e:
        raise _UsageError(str(e))
    out = Path(args.output)
    parameters = {
        "pairs": [f"{m}:{n}" for m, n in pairs],
        "methods": methods,
        "seeds": args.seeds,
        "base_seed": args.base_seed,
        "ami": args.ami,
        "duration": args.dur,
        "fs": args.fs,
        "noise_power": args.noise_power,
        "clean_power": args.clean_power,
        "grid": io.grid_str(grid),
        "jobs": jobs,
        "matrix_dir": args.matrix_dir,
    }
    # run_comparison hands the matrices over in this order: pair, seed, method
    matrices = {} if args.matrix_dir is None else {
        (pair, method, seed):
            Path(args.matrix_dir) / f"{method}_m{pair[0]}_n{pair[1]}_seed{seed}.csv"
        for pair in pairs for seed in seeds for method in methods
    }

    def run():
        if matrices:
            mdir = Path(args.matrix_dir)
            try:
                mdir.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise _IoError(f"cannot create {mdir}: {e}")

        def sink(mat, *key):
            # written as it arrives, so no matrix outlives its run
            _write(io.write_matrix_csv, matrices[key], mat)

        report = run_comparison(
            pairs,
            methods,
            n_seeds=args.seeds,
            ami=args.ami,
            duration=args.dur,
            fs=args.fs,
            noise_power=args.noise_power,
            clean_power=args.clean_power,
            grid=grid,
            cfg=cfg,
            jobs=jobs,
            base_seed=args.base_seed,
            matrix_sink=sink if matrices else None,
        )
        doc = {"schema": 1, "params": parameters}
        doc.update(report.as_dict())
        _write(io.write_json, out, doc)

    return _Plan("compare", parameters, [], [out, *matrices.values()], seeds, run)


def cmd_heatmap(args) -> _Plan:
    inp = Path(args.input)
    out = Path(args.output)

    def run():
        mat = _read(io.read_matrix_csv, inp)
        try:
            _write(io.write_pgm, out, mat)
        except InvalidInputError as e:
            # un-normalized cells above 1 cannot be rendered into 8 bits
            raise _IoError(str(e))

    return _Plan("heatmap", {}, [inp], [out], None, run)


def _add_matrix_flags(p):
    cfg = MeasureConfig()
    p.add_argument("--mca-bw", type=float, default=cfg.mca_bw,
                   help=f"narrowband filter width in Hz (default {cfg.mca_bw:g})")
    p.add_argument("--morlet-cycles", type=float, default=cfg.morlet_cycles,
                   help="wavelet cycles for the comparison methods "
                        f"(default {cfg.morlet_cycles:g})")
    p.add_argument("--kld-bins", type=int, default=cfg.kld_bins,
                   help=f"phase histogram bins for kld (default {cfg.kld_bins})")
    p.add_argument("--edge-trim", type=int, default=cfg.edge_trim,
                   help="override per-side sample trim before statistics "
                        "(0: no trim)")
    p.add_argument("--welch-window", type=int, default=cfg.welch.window_len,
                   help=f"Welch window length for cv (default {cfg.welch.window_len})")
    p.add_argument("--welch-overlap", type=float, default=cfg.welch.overlap,
                   help=f"Welch window overlap fraction (default {cfg.welch.overlap:g})")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"worker threads, 1 to {MAX_JOBS} (default: PAC_LAB_JOBS or serial)")


def _add_common(p):
    p.add_argument("--dry-run", action="store_true",
                   help="print the run manifest and exit without computing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pac-lab",
        description="Phase-amplitude coupling toolkit: synthesize benchmark "
                    "signals, compute coupling matrices, compare measures.",
    )
    parser.add_argument("--version", action="version", version=f"pac-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic coupled signal as CSV")
    p.add_argument("--m", type=int, default=None, help="slow frequency in Hz")
    p.add_argument("--n", type=int, default=None, help="fast frequency in Hz")
    p.add_argument("--ami", type=float, default=None,
                   help="amplitude modulation index (default 0.25)")
    p.add_argument("--dur", type=float, default=None, help="duration in s (default 10)")
    p.add_argument("--fs", type=float, default=None,
                   help="sampling rate in Hz (default 1000)")
    p.add_argument("--noise-power", type=float, default=None,
                   help="pink-noise power (default 0)")
    p.add_argument("--clean-power", type=float, default=None,
                   help="rescale the clean part to this power (default: no rescale)")
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed (default 0)")
    p.add_argument("--paper-pair", type=int, default=None, metavar="K",
                   help="benchmark preset 1..4: (8,45) (12,45) (20,45) (30,45) "
                        "with ami 0.25, 10 s, 1 kHz, noise 6250, clean power 630")
    p.add_argument("-o", "--output", required=True, help="signal CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pac", help="compute one normalized coupling matrix")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("-i", "--input", required=True, help="signal CSV path")
    p.add_argument("-o", "--output", required=True, help="matrix CSV path")
    p.add_argument("--grid", default="m=1:50,n=1:50",
                   help="evaluation grid (default m=1:50,n=1:50)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the per-signal filter cache")
    _add_matrix_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_pac)

    p = sub.add_parser("psd", help="Welch power spectral density as CSV")
    p.add_argument("-i", "--input", required=True, help="signal CSV path")
    p.add_argument("-o", "--output", required=True, help="spectrum CSV path")
    welch = WelchSpec()
    p.add_argument("--window", type=int, default=welch.window_len,
                   help=f"window length in samples (default {welch.window_len})")
    p.add_argument("--overlap", type=float, default=welch.overlap,
                   help=f"window overlap fraction (default {welch.overlap:g})")
    _add_common(p)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("compare", help="run pairs x methods x seeds and report errors")
    p.add_argument("--pairs", required=True,
                   help="comma-separated m:n pairs, e.g. 8:45,12:45")
    p.add_argument("--methods", default=",".join(METHODS),
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--seeds", type=int, default=10, help="seeds per pair (default 10)")
    p.add_argument("--base-seed", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--ami", type=float, default=BENCHMARK_AMI)
    p.add_argument("--dur", type=float, default=BENCHMARK_DURATION)
    p.add_argument("--fs", type=float, default=BENCHMARK_FS)
    p.add_argument("--noise-power", type=float, default=BENCHMARK_NOISE_POWER)
    p.add_argument("--clean-power", type=float, default=BENCHMARK_CLEAN_POWER)
    p.add_argument("--grid", default="m=1:50,n=1:50")
    p.add_argument("--matrix-dir", default=None,
                   help="also write every normalized matrix into this directory")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    _add_matrix_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("heatmap", help="render a matrix CSV as a binary PGM image")
    p.add_argument("-i", "--input", required=True, help="matrix CSV path")
    p.add_argument("-o", "--output", required=True, help="PGM path")
    _add_common(p)
    p.set_defaults(func=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        plan = args.func(args)
        if args.dry_run:
            doc = io.manifest_doc(plan.command, plan.parameters, plan.inputs,
                                  plan.outputs, plan.seeds, None, __version__)
            print(json.dumps(doc, indent=2, sort_keys=True))
            return EXIT_OK
        started = time.perf_counter()
        plan.run()
        _write(io.write_manifest, plan.outputs[0], plan.command, plan.parameters,
               plan.inputs, plan.outputs, plan.seeds, time.perf_counter() - started,
               __version__)
        return EXIT_OK
    except _UsageError as e:
        print(f"pac-lab: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _IoError as e:
        print(f"pac-lab: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except PacError as e:
        print(f"pac-lab: numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

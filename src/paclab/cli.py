"""pac-lab command line: synthesize signals, compute PSDs and coupling
matrices, run the multi-method comparison, render heatmaps.

Each command validates its arguments into a plan; main prints the plan's
manifest under --dry-run, or runs it and writes that manifest.

Exit codes: 0 success, 2 usage, 3 I/O, 4 numeric/degenerate input or out
of memory.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import inspect
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__, io
from .comodulogram import (
    MAX_JOBS,
    METHODS,
    GridSpec,
    _check_jobs,
    argmax,
    comparison_plan,
    compute_matrix,
    normalize,
    run_comparison,
)
from .errors import InvalidInputError, InvalidMethodError, PacError
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


class _Plan(NamedTuple):
    """A validated command: what its manifest records, and run(), which
    writes every output but the manifest."""

    command: str
    parameters: dict
    inputs: list
    outputs: list
    seeds: Optional[list]
    run: Callable[[], None]


# (mallopt parameter from glibc's malloc.h, value) pairs _pin_malloc sets
_MALLOPT = (
    (-8, 1),            # M_ARENA_MAX
    (-3, 32 * 2**20),   # M_MMAP_THRESHOLD: glibc refuses more on 64-bit
    (-1, 256 * 2**20),  # M_TRIM_THRESHOLD
)


def _pin_malloc() -> None:
    """Keep this process's freed FFT temporaries in glibc's heap.

    Every matrix cell allocates and frees full-length arrays (a triplet
    sum, two hilbert transforms, an envelope band-pass: 2.4-4.8 MB each
    on a 300 s recording). By default glibc maps each one and hands it
    back to the kernel when freed, so the next cell faults it in again.
    Here blocks below 32 MiB come from the heap, up to 256 MiB of free
    heap top is kept, and one arena serves every thread: with an arena
    per pool thread, each keeps its own free blocks and peak RSS grows.

    32 MiB is glibc's largest mmap threshold on 64-bit, so past about 2M
    samples (about 33 min at 1 kHz) the complex temporaries are mapped
    again. A no-op where the C library has no mallopt (macOS, Windows);
    setting the same values again is harmless. Only the CLI calls this:
    the library leaves its caller's allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        # no mallopt in the C library (macOS), or no C library to open
        # by None (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


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
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise _UsageError(f"pair {chunk!r} is not of the form m:n")
    return pairs


# argparse's dispatch keys, --dry-run and the paths: not settings of the run
_UNRECORDED = frozenset({"command", "func", "dry_run", "input", "output"})


def _parameters(args, **validated) -> dict:
    """A manifest's parameters: every setting of the parsed command by its
    dest, but the paths and --dry-run, with the validated values given
    here in place of the raw ones."""
    parameters = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    parameters.update(validated)
    return parameters


def _measure_config(args) -> MeasureConfig:
    return MeasureConfig(
        mca_bw=args.mca_bw,
        morlet_cycles=args.morlet_cycles,
        kld_bins=args.kld_bins,
        edge_trim=args.edge_trim,
        welch=WelchSpec(window_len=args.welch_window, overlap=args.welch_overlap),
    )


def cmd_synth(args) -> _Plan:
    given = {k: getattr(args, k) for k in ("m", "n", "ami", "duration", "fs", "noise_power")
             if getattr(args, k) is not None}
    # unset flags keep the preset's value, or else SynthesisSpec's default
    if args.paper_pair is not None:
        preset = benchmark_spec(args.paper_pair)  # refuses an index off BENCHMARK_PAIRS
        clean = BENCHMARK_CLEAN_POWER if args.clean_power is None else args.clean_power
    elif args.m is None or args.n is None:
        raise _UsageError("need --m and --n (or --paper-pair)")
    else:
        preset, clean = None, args.clean_power
    spec = dataclasses.replace(preset, **given) if preset else SynthesisSpec(**given)
    spec = dataclasses.replace(spec, clean_scale=clean_scale_for(clean, spec.ami), seed=args.seed)
    parameters = _parameters(args, **dataclasses.asdict(spec), clean_power=clean)
    out = Path(args.output)

    def run():
        _write(io.write_signal_csv, out, synth_pac(spec).composite)

    return _Plan("synth", parameters, [], [out], [args.seed], run)


def cmd_pac(args) -> _Plan:
    cfg = _measure_config(args)
    grid = io.parse_grid(args.grid)
    _check_jobs(args.jobs)
    inp = Path(args.input)
    out = Path(args.output)
    meta_out = Path(str(out) + ".meta.json")
    parameters = _parameters(args, grid=io.grid_str(grid))

    def run():
        x = _read(io.read_signal_csv, inp)
        mat = normalize(compute_matrix(x, args.method, grid, cfg, jobs=args.jobs))
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
    parameters = _parameters(args)
    spec = WelchSpec(window_len=args.window, overlap=args.overlap)

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
    cfg = _measure_config(args)
    grid = io.parse_grid(args.grid)
    _check_jobs(args.jobs)
    # run_comparison's own checks, made here so --dry-run makes them too
    seeds, _ = comparison_plan(pairs, methods, args.seeds, args.base_seed, args.ami,
                               args.duration, args.fs, args.noise_power, args.clean_power)
    out = Path(args.output)
    parameters = _parameters(args, pairs=[f"{m}:{n}" for m, n in pairs], methods=methods,
                             grid=io.grid_str(grid))
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
            duration=args.duration,
            fs=args.fs,
            noise_power=args.noise_power,
            clean_power=args.clean_power,
            grid=grid,
            cfg=cfg,
            jobs=args.jobs,
            base_seed=args.base_seed,
            matrix_sink=sink if matrices else None,
        )
        doc = {"schema": 1, "params": parameters}
        doc.update(report.as_dict())
        _write(io.write_json, out, doc)

    return _Plan("compare", parameters, [], [out, *matrices.values()], list(seeds), run)


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

    return _Plan("heatmap", _parameters(args), [inp], [out], None, run)


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
                   help=f"threads per matrix, the calling one included, 1 to {MAX_JOBS} "
                        "(default: the usable CPUs for mca and eps, and for mvl, cv and kld "
                        "on signals of 2^15 samples or more; else 1)")


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

    # an unset synth flag keeps SynthesisSpec's default
    spec = SynthesisSpec(*BENCHMARK_PAIRS[0])
    p = sub.add_parser("synth", help="write a synthetic coupled signal as CSV")
    p.add_argument("--m", type=int, default=None, help="slow frequency in Hz")
    p.add_argument("--n", type=int, default=None, help="fast frequency in Hz")
    p.add_argument("--ami", type=float, default=None,
                   help=f"amplitude modulation index (default {spec.ami:g})")
    p.add_argument("--dur", dest="duration", type=float, default=None,
                   help=f"duration in s (default {spec.duration:g})")
    p.add_argument("--fs", type=float, default=None,
                   help=f"sampling rate in Hz (default {spec.fs:g})")
    p.add_argument("--noise-power", type=float, default=None,
                   help=f"pink-noise power (default {spec.noise_power:g})")
    p.add_argument("--clean-power", type=float, default=None,
                   help="rescale the clean part to this power (default: no rescale)")
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed (default 0)")
    presets = " ".join(f"({m},{n})" for m, n in BENCHMARK_PAIRS)
    p.add_argument("--paper-pair", type=int, default=None, metavar="K",
                   help=f"benchmark preset 1..{len(BENCHMARK_PAIRS)}: {presets} with ami "
                        f"{BENCHMARK_AMI:g}, {BENCHMARK_DURATION:g} s, {BENCHMARK_FS:g} Hz, "
                        f"noise {BENCHMARK_NOISE_POWER:g}, clean power {BENCHMARK_CLEAN_POWER:g}")
    p.add_argument("-o", "--output", required=True, help="signal CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pac", help="compute one normalized coupling matrix")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("-i", "--input", required=True, help="signal CSV path")
    p.add_argument("-o", "--output", required=True, help="matrix CSV path")
    grid = io.grid_str(GridSpec())
    p.add_argument("--grid", default=grid, help=f"evaluation grid (default {grid})")
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
    seeds = inspect.signature(run_comparison).parameters["n_seeds"].default
    p.add_argument("--seeds", type=int, default=seeds, help=f"seeds per pair (default {seeds})")
    p.add_argument("--base-seed", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--ami", type=float, default=BENCHMARK_AMI)
    p.add_argument("--dur", dest="duration", type=float, default=BENCHMARK_DURATION)
    p.add_argument("--fs", type=float, default=BENCHMARK_FS)
    p.add_argument("--noise-power", type=float, default=BENCHMARK_NOISE_POWER)
    p.add_argument("--clean-power", type=float, default=BENCHMARK_CLEAN_POWER)
    p.add_argument("--grid", default=grid, help=f"evaluation grid (default {grid})")
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
    except (_UsageError, InvalidInputError, InvalidMethodError) as e:
        # a plan is made from the arguments alone, so what it refuses is usage
        print(f"pac-lab: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.dry_run:
            doc = io.manifest_doc(plan.command, plan.parameters, plan.inputs,
                                  plan.outputs, plan.seeds, None, __version__)
            sys.stdout.write(io.json_text(doc))
            return EXIT_OK
        _pin_malloc()
        started = time.perf_counter()
        plan.run()
        _write(io.write_manifest, plan.outputs[0], plan.command, plan.parameters,
               plan.inputs, plan.outputs, plan.seeds, time.perf_counter() - started,
               __version__)
        return EXIT_OK
    except _IoError as e:
        print(f"pac-lab: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except PacError as e:
        print(f"pac-lab: numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:
        print(f"pac-lab: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

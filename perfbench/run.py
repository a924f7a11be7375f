"""paclab benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload stock_matrix --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. The program is imported from ./src; no
install is needed. Every evaluation is checked by oracle.py. The lines
before the last are a human-readable report; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones, from a run that first times one round
untraced and then traces the rest (see spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("stock_matrix", "long_recording", "compare_sweep")

IMPORT_SAMPLES = 2    # the run's own import plus a fresh-interpreter probe
INPUT_SAMPLES = 3     # repetitions of input preparation within the run
RUN_CAP_S = 150.0     # no round starts that would likely end past this
IMPORT_PROBE = ("import time; t = time.perf_counter(); import paclab, paclab.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="timed work to measure; whole rounds, at least the workload's minimum")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_note(jobs):
    import numpy
    import scipy

    def cache(level):
        # sysfs lists each cache of cpu0 with its level, type and size ("2048K")
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level) and \
                        (index / "type").read_text().strip() != "Instruction":
                    return (index / "size").read_text().strip()
            except OSError:
                continue
        return None

    return {
        "nproc": jobs,
        "cpu_count": os.cpu_count(),
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": jobs,
        "machine": platform.machine(),
    }


def import_probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def median(values):
    """Median, or 0 when every operation of that kind failed."""
    return statistics.median(values) if values else 0.0


def describe(name, values, unit):
    med = median(values)
    t = tail(values)
    extra = "too few samples for a tail percentile" if t is None else \
        f"p{t[0]:.0f} {t[1]:.4f} {unit}"
    return f"  {name:<24} median {med:.4f} {unit}  (n={len(values)}; {extra})"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "paclab" / "__init__.py").is_file():
        print(f"perfbench: paclab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import paclab.cli  # noqa: F401  (timed: import is part of set-up)
    import_s = [time.perf_counter() - t0]

    import calibration
    import oracle
    import spans
    import workloads

    jobs = len(os.sched_getaffinity(0))
    note = machine_note(jobs)
    print("machine: " + json.dumps(note, sort_keys=True))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, jobs, workdir, import_s, started, calibration, oracle, spans,
                   workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run(args, spec, jobs, workdir, import_s, started, calibration, oracle, spans, workloads):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, jobs)
    speed = calibration.SpeedProbe()
    pooled_speed = calibration.SpeedProbe(threads=jobs)
    refs = oracle.load_reference()
    tracer = spans.Tracer() if args.trace else None
    tally = {"attempted": 0, "failed": 0, "problems": []}

    def verify(rnd):
        if tracer is not None:
            tracer.enabled = False
        try:
            wl.load_outputs(rnd)
            for ev in rnd.evals:
                problems = ev.problems or oracle.check(ev, refs)
                tally["attempted"] += 1
                if problems:
                    tally["failed"] += 1
                    tally["problems"].append(f"{ev.label}: {'; '.join(problems)}")
        finally:
            if tracer is not None:
                tracer.enabled = True

    if not args.trace:
        import_s += [import_probe() for _ in range(IMPORT_SAMPLES - 1)]

    # set-up: inputs (sampled), then one untimed warm-up round
    if tracer is not None:
        tracer.install()
    input_s = []
    with tracer.root("setup") if tracer else nullcontext():
        for _ in range(1 if args.trace else INPUT_SAMPLES):
            t0 = time.perf_counter()
            wl.prepare()
            input_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = wl.warmup()
        warmup_s = time.perf_counter() - t0
    verify(warm)
    setup_s = statistics.median(import_s) + statistics.median(input_s) + warmup_s
    if tracer is None:
        wl.probe = lambda pooled: (pooled_speed if pooled else speed).calibrate()

    # timed rounds
    rounds = []
    untraced = None
    r = 1
    while True:
        measured = sum(x.work for x in rounds)
        if rounds and measured >= args.seconds and len(rounds) >= wl.min_rounds:
            break
        if rounds and time.perf_counter() - started + 1.5 * rounds[-1].work > RUN_CAP_S:
            break
        if tracer is not None and untraced is None:
            tracer.enabled = False  # one round without tracing, for the overhead
            untraced = wl.round(r)
            verify(untraced)
            r += 1
            continue
        with tracer.root(f"round{r}") if tracer else nullcontext():
            rnd = wl.round(r)
        verify(rnd)
        rounds.append(rnd)
        r += 1
    if tracer is not None:
        tracer.uninstall()

    for line in tally["problems"][:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} timed rounds, "
          f"{tally['attempted']} evaluations checked, {tally['failed']} failed")
    if tracer is None:
        metrics = end_to_end(rounds, setup_s, tally, speed, pooled_speed, workloads)
        print(f"  set-up: import {statistics.median(import_s):.4f} s (n={len(import_s)}), "
              f"inputs {statistics.median(input_s):.4f} s (n={len(input_s)}), "
              f"warm-up {warmup_s:.4f} s")
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        metrics = per_layer(tracer, rounds, untraced, spans)
        names = [m["name"] for m in spec["per_layer"]]
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


def end_to_end(rounds, setup_s, tally, speed, pooled_speed, workloads):
    """End-to-end metrics.

    Every timing is divided by the mean of the speed points probed right
    before and after it (calibration.py): one-thread for serial work,
    all-cores for work on a thread pool. setup_s stays raw wall time.
    """
    from paclab import localization_error

    print("end-to-end (corrected = raw / speed points around each timing; mean points: "
          + ", ".join(f"{kind} {s.mean:.4f} (n={len(s.points)})"
                      for kind, s in (("serial", speed), ("pooled", pooled_speed)) if s.points)
          + "):")
    m = {}
    for name in [f"{x}.matrix_s" for x in workloads.METHODS] + ["pipeline_s"]:
        values = [v for r in rounds for v in r.corrected.get(name, [])]
        raw = [v for r in rounds for v in r.raw.get(name, [])]
        print(describe(name, values, "s") + f"  raw {median(raw):.4f} s")
        m[name] = (median(values), "s")
    evals = [ev for r in rounds for ev in r.evals]
    work = sum(r.work for r in rounds)
    m["runs_per_s"] = (len(evals) / sum(r.corrected_work for r in rounds), "1/s")
    mca = [ev for ev in evals if ev.method == "mca" and ev.matrix is not None]
    m["mca.true_cell_value"] = (
        statistics.fmean(ev.matrix.cell(*ev.pair) for ev in mca) if mca else 0.0, "ratio")
    hits = sum(1 for ev in mca if localization_error(ev.found, ev.pair) <= 1)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    m["ops_ok_share"] = (1.0 - tally["failed"] / tally["attempted"], "ratio")
    m["setup_s"] = (setup_s, "s")
    print(f"  {'runs_per_s':<24} {m['runs_per_s'][0]:.4f} 1/s  raw {len(evals) / work:.4f} 1/s")
    for name in ("setup_s", "mca.true_cell_value", "peak_rss_mb", "ops_ok_share"):
        print(f"  {name:<24} {m[name][0]:.4f} {m[name][1]}")
    print(f"  ops_failed_share         {tally['failed']}/{tally['attempted']}")
    print(f"  mca.hit_rate_1hz         {hits}/{len(mca)} (not gated; see README)")
    return m


def per_layer(tracer, rounds, untraced, spans):
    m, layer_self, status = spans.layer_metrics(tracer)
    traced = statistics.median(r.work for r in rounds)
    base = untraced.work
    m["trace.overhead_s"] = (traced - base, "s")
    m["trace.overhead_share"] = ((traced - base) / base, "ratio")
    print("seams:")
    for seam, state in sorted(status.items()):
        print(f"  {state:<7} {seam}")
    wall = m["trace.wall_s"][0]
    print(f"layer self time over {wall:.3f} s traced wall "
          f"(set-up and {len(rounds)} traced rounds):")
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {s:9.4f} s  {100 * s / wall:5.1f}%")
    unc, ovl = m["trace.uncovered_s"][0], m["trace.overlap_s"][0]
    print(f"  {'uncovered':<14} {unc:9.4f} s  {100 * unc / wall:5.1f}%")
    print(f"  {'- overlap':<14} {ovl:9.4f} s  (concurrent children counted twice)")
    print(f"  balance error {m['trace.balance_error_s'][0]:.3e} s; overhead "
          f"{m['trace.overhead_s'][0]:.4f} s per round "
          f"({100 * m['trace.overhead_share'][0]:.1f}% of {base:.3f} s untraced)")
    for name, (value, unit) in sorted(m.items()):
        print(f"  {name:<40} {value:.6g} {unit}")
    return m


if __name__ == "__main__":
    sys.exit(main())

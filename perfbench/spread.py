"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload stock_matrix --runs 10 [--first-seed 100]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric the median and the distance between the first and third
quartiles as a share of the median (statistics.quantiles, n=4), next to
the metric's bound from BENCHMARK.json. A metric is steady when that
spread stays below a third of its bound (setup_s is exempt from the spread
rule but not from the bound on its median).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--out", default=None, help="also write every run's result as JSON lines")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    raw = {}
    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            # the report's raw wall-time figure next to each corrected timing
            hit = re.match(r"\s+(\S+)\s.*\braw ([0-9.]+) ", line)
            if hit:
                raw.setdefault(hit.group(1), []).append(float(hit.group(2)))
        result["seed"], result["wall_s"] = seed, time.perf_counter() - t0
        results.append(result)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} {result['failed']}/"
              f"{result['attempted']} failed, {result['wall_s']:.1f} s", flush=True)
    if args.out:
        Path(args.out).write_text("".join(json.dumps(r) + "\n" for r in results))
    print(f"{'metric':<22} {'median':>12} {'spread':>8} {'bound/3':>8} {'raw spread':>10}")
    for m in spec["end_to_end"]:
        med, spread = _spread(values[m["name"]])
        flag = "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
        rs = f"{_spread(raw[m['name']])[1]:10.4f}" if len(raw.get(m["name"], ())) > 1 else ""
        print(f"{m['name']:<22} {med:12.5g} {spread:8.4f} {m['bound'] / 3:8.4f} {rs}{flag}")


def _spread(v):
    """Median, and the quartile distance as a share of it."""
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4)
    return med, (q3 - q1) / med if med else float("inf")


if __name__ == "__main__":
    main()

"""Compare the peak memory of `pac-lab pac` from two source trees.

    python3 tools/bank_rss.py PARENT_TREE CHANGE_TREE

Synthesizes one recording with the parent tree's CLI (benchmark pair 1,
seed 51, DUR seconds at 1 kHz), then runs `pac-lab pac --method M` on it
for each of METHODS, default grid and jobs, from each tree's `src`, every
run a fresh interpreter. METHODS are mvl and kld, whose columns the
default jobs pools on a recording of 2**15 samples or more, cv, which it
keeps serial there because pooled it held the most memory, and eps, the
largest of the five. Each method gets PAIRS pairs of
runs, and the tree that goes first alternates from pair to pair. Prints
each run's max RSS (ru_maxrss from os.wait4) and, per method and tree,
the median. Exits 1 if a run fails.
Stdlib only; the runs themselves need numpy and scipy.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("mvl", "cv", "kld", "eps")
PAIRS = 5
DUR = 300.0


def _run(tree: Path, argv: list, cwd: Path) -> float:
    """Max RSS in MB of `pac-lab argv` run from tree's src in a fresh
    interpreter; exits if the run fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-m", "paclab.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"pac-lab {' '.join(argv)} from {tree} exited {proc.returncode}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "paclab" / "__init__.py").is_file():
            raise SystemExit(f"{tree} has no src/paclab")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _run(trees["parent"], ["synth", "--paper-pair", "1", "--seed", "51",
                               "--dur", str(DUR), "-o", "sig.csv"], tmp)
        print(f"{'method':6} {'pair':>4} {'first':>6} {'parent MB':>10} {'change MB':>10}")
        for method in METHODS:
            rss = {name: [] for name in trees}
            for k in range(PAIRS):
                order = list(trees) if k % 2 == 0 else list(trees)[::-1]
                for name in order:
                    rss[name].append(_run(trees[name], [
                        "pac", "--method", method, "-i", "sig.csv", "-o", f"{name}.csv"], tmp))
                print(f"{method:6} {k:>4} {order[0]:>6} {rss['parent'][-1]:>10.1f} "
                      f"{rss['change'][-1]:>10.1f}")
            print(f"{method:6} median        {statistics.median(rss['parent']):>10.1f} "
                  f"{statistics.median(rss['change']):>10.1f}  (parent range "
                  f"{min(rss['parent']):.1f}-{max(rss['parent']):.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that two source trees of paclab give the same numbers, bit for bit.

    python3 tools/same_numbers.py PARENT_TREE CHANGE_TREE

Each tree's `src` is imported in a fresh interpreter, which computes a
fixed set of comodulograms: the stock signal benchmark_spec((8, 45)) with
seeds 0 and 7; all five methods; the configs default, edge_trim=0 and
kld_bins=18 with morlet_cycles=6; and three ways of running, jobs None
and jobs 2 on the default grid and use_cache=False on GridSpec(1, 20, 1,
50). Every matrix and its meta["cached_filterings"] must be
np.array_equal between the trees, or both trees must raise the same
error. The script prints the count of equal results and, for each result
that differs, how far it moved: the largest absolute cell difference and
the parent matrix's maximum. It exits 1 on any difference. It takes a few
minutes per tree on two cores.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# runs inside each tree's interpreter: argv[1] is the pickle to write
_CHILD = r"""
import pickle, sys
import paclab
from paclab import GridSpec, MeasureConfig, benchmark_spec, compute_matrix, synth_pac

SEEDS = (0, 7)
METHODS = ("mca", "eps", "mvl", "cv", "kld")
CONFIGS = {
    "default": {},
    "edge_trim=0": {"edge_trim": 0},
    "kld_bins=18,morlet_cycles=6": {"kld_bins": 18, "morlet_cycles": 6.0},
}
RUNS = {
    "jobs=None": dict(jobs=None),
    "jobs=2": dict(jobs=2),
    "use_cache=False": dict(use_cache=False, grid=GridSpec(1, 20, 1, 50)),
}
out = {"paclab": paclab.__file__}
for seed in SEEDS:
    x = synth_pac(benchmark_spec((8, 45), seed=seed)).composite
    for method in METHODS:
        for cname, cfg in CONFIGS.items():
            for rname, kw in RUNS.items():
                key = (seed, method, cname, rname)
                try:
                    mat = compute_matrix(x, method, cfg=MeasureConfig(**cfg), **kw)
                    out[key] = ("ok", mat.values, mat.meta["cached_filterings"])
                except Exception as e:
                    out[key] = ("raised", type(e).__name__, str(e))
with open(sys.argv[1], "wb") as f:
    pickle.dump(out, f)
"""


def _start(tree: Path, dump: Path) -> subprocess.Popen:
    src = tree / "src"
    if not (src / "paclab" / "__init__.py").is_file():
        raise SystemExit(f"{tree} has no src/paclab")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(dump)], env=env, cwd=src)


def _same(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "raised":
        return a == b
    return np.array_equal(a[1], b[1]) and a[2] == b[2]


def _moved(a, b) -> str:
    """How result b differs from result a, for a line of the report."""
    if a[0] != "ok" or b[0] != "ok":
        said = ["ok" if r[0] == "ok" else f"raised {r[1]}: {r[2]}" for r in (a, b)]
        return f"parent {said[0]}; change {said[1]}"
    if a[1].shape != b[1].shape:
        return f"shape {a[1].shape} against {b[1].shape}"
    moved = f"max |cell difference| {np.max(np.abs(a[1] - b[1])):.3g}, " \
            f"matrix max {np.max(a[1]):.3g}"
    if a[2] != b[2]:
        moved += f", cached_filterings {a[2]} against {b[2]}"
    return moved


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/same_numbers.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [Path(tmp) / f"tree{i}.pkl" for i in range(2)]
        procs = [_start(t, d) for t, d in zip(trees, dumps)]
        codes = [p.wait() for p in procs]
        if any(codes):
            print(f"a tree's run failed (exit codes {codes})", file=sys.stderr)
            return 1
        parent, change = (pickle.loads(d.read_bytes()) for d in dumps)
    for tree, res in zip(trees, (parent, change)):
        if not Path(res.pop("paclab")).is_relative_to(tree):
            print(f"the run for {tree} imported paclab from elsewhere", file=sys.stderr)
            return 1
    keys = sorted(parent, key=repr)
    differ = [k for k in keys if k not in change or not _same(parent[k], change[k])]
    raised = sum(1 for k in keys if parent[k][0] == "raised")
    print(f"{len(keys) - len(differ)} of {len(keys)} results equal "
          f"({raised} of them the same error in both trees)")
    for k in differ:
        print("differs:", *k, "|", _moved(parent[k], change[k]) if k in change else "missing")
    return 1 if differ or set(change) != set(parent) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that two source trees of paclab give the same numbers, bit for bit.

    python3 tools/same_numbers.py PARENT_TREE CHANGE_TREE

Each tree's `src` is imported in a fresh interpreter, which computes a
fixed set of comodulograms: the stock signal benchmark_spec((8, 45)) with
seeds 0 and 7; all five methods; the configs default, edge_trim=0,
kld_bins=18 with morlet_cycles=6, and a Welch segmentation that is not
the default, an odd window of 999 samples at overlap 0.5 (cv reads it,
the other methods must not); and eight ways of running: jobs None, 1
and 2 on the default grid, jobs None, 1, 2 and 8 on GridSpec(1, 12, 30,
50), and use_cache=False on GridSpec(1, 20, 1, 50). Both stock signals
have 10,000 samples, below the 2**15 from which jobs=None pools mvl, cv
and kld, so a third signal, 40 s of benchmark_spec((8, 45)) with seed 0
(40,000 samples), runs all five methods in the default config at jobs
None and 1 on GridSpec(1, 12, 30, 50). jobs None picks a
thread count per method and machine, so jobs 1 keeps the serial path
compared on every machine. On the default grid nearly every band is read
until the sweep ends; on the narrow one the filter bank drops bands while
columns are still pending, and at jobs 8, more threads than cores, the
columns return far out of ascending order. The same interpreter calls
each public per-cell function (mca_pac, eps, mvl, cv, kld) on both
signals in each config at the cells of CELLS, some of them out of band
or below 1 Hz: a matrix scores such a cell 0, and so does the
use_cache=False run, so only these calls see the errors the cells raise.
Every matrix and its meta["cached_filterings"], and every cell value,
must be np.array_equal between the trees, or both trees must raise the
same error.

A second fresh interpreter per tree runs the CLI in an empty directory:
`synth --paper-pair 1 --dur 30`, then `pac --method mca` with --jobs
unset, at 1 and at 2, and `psd` with the default window and with `--window 999
--overlap 0.5`, on that CSV; and `compare --pairs 8:45,12:45
--methods mca,kld --seeds 2 --grid m=6:10,n=42:48 --mca-bw 2 --kld-bins 10
--jobs 2 --matrix-dir mats`. Every exit code and output file, the report
and each matrix file under mats included, must be the same byte for
byte, and every manifest the same apart from its duration_s. This covers
the signal CSV writer and reader, which the matrices above never touch,
the comparison's column pool and matrix sink, and the measure config that
the comparison's manifest and report record.

The script prints the count of equal results, 682 of them, and, for
each result that differs, how far it moved: the largest absolute cell difference and
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
import dataclasses, itertools, pickle, sys
import paclab
import numpy as np
from paclab import (GridSpec, MeasureConfig, WelchSpec, benchmark_spec, compute_matrix,
                    cv, eps, kld, mca_pac, mvl, synth_pac)

SEEDS = (0, 7)
METHODS = ("mca", "eps", "mvl", "cv", "kld")
CONFIGS = {
    "default": {},
    "edge_trim=0": {"edge_trim": 0},
    "kld_bins=18,morlet_cycles=6": {"kld_bins": 18, "morlet_cycles": 6.0},
    "welch=999,0.5": {"welch": WelchSpec(window_len=999, overlap=0.5)},
}
RUNS = {
    "jobs=None": dict(jobs=None),
    "jobs=1": dict(jobs=1),
    "jobs=2": dict(jobs=2),
    "narrow,jobs=None": dict(jobs=None, grid=GridSpec(1, 12, 30, 50)),
    "narrow,jobs=1": dict(jobs=1, grid=GridSpec(1, 12, 30, 50)),
    "narrow,jobs=2": dict(jobs=2, grid=GridSpec(1, 12, 30, 50)),
    "narrow,jobs=8": dict(jobs=8, grid=GridSpec(1, 12, 30, 50)),
    "use_cache=False": dict(use_cache=False, grid=GridSpec(1, 20, 1, 50)),
}
# on a signal of 2**15 samples or more, where jobs=None pools every method
LONG_RUNS = {
    "long,narrow,jobs=None": dict(jobs=None, grid=GridSpec(1, 12, 30, 50)),
    "long,narrow,jobs=1": dict(jobs=1, grid=GridSpec(1, 12, 30, 50)),
}
CELL_FNS = (mca_pac, eps, mvl, cv, kld)
# (m, n): in band, then m > n, m below 1 Hz, n + m past and n at Nyquist
CELLS = ((8, 45), (12, 40), (3, 30), (20, 21), (8, 5), (0.5, 20), (8, 495), (8, 500))
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
    for (cname, cfg), fn, (m, n) in itertools.product(CONFIGS.items(), CELL_FNS, CELLS):
        key = (seed, fn.__name__, cname, f"m={m},n={n}")
        try:
            out[key] = ("ok", np.array(fn(x, m, n, MeasureConfig(**cfg))), None)
        except Exception as e:
            out[key] = ("raised", type(e).__name__, str(e))
x = synth_pac(dataclasses.replace(benchmark_spec((8, 45), seed=0), duration=40.0)).composite
for method, (rname, kw) in itertools.product(METHODS, LONG_RUNS.items()):
    key = ("40 s", method, "default", rname)
    try:
        mat = compute_matrix(x, method, **kw)
        out[key] = ("ok", mat.values, mat.meta["cached_filterings"])
    except Exception as e:
        out[key] = ("raised", type(e).__name__, str(e))
with open(sys.argv[1], "wb") as f:
    pickle.dump(out, f)
"""

# runs inside each tree's interpreter, in an empty directory: argv[1] is
# the pickle to write
_CLI_CHILD = r"""
import json, pickle, sys
from pathlib import Path
import paclab
from paclab import cli

RUNS = {
    "synth": ["synth", "--paper-pair", "1", "--dur", "30", "-o", "sig.csv"],
    "pac": ["pac", "--method", "mca", "-i", "sig.csv", "-o", "mca.csv"],
    "pac --jobs 1": ["pac", "--method", "mca", "--jobs", "1", "-i", "sig.csv",
                     "-o", "mca_jobs1.csv"],
    "pac --jobs 2": ["pac", "--method", "mca", "--jobs", "2", "-i", "sig.csv",
                     "-o", "mca_jobs2.csv"],
    "psd": ["psd", "-i", "sig.csv", "-o", "psd.csv"],
    "psd --window 999": ["psd", "--window", "999", "--overlap", "0.5", "-i", "sig.csv",
                         "-o", "psd_999.csv"],
    "compare": ["compare", "--pairs", "8:45,12:45", "--methods", "mca,kld", "--seeds", "2",
                "--grid", "m=6:10,n=42:48", "--mca-bw", "2", "--kld-bins", "10",
                "--jobs", "2", "--matrix-dir", "mats",
                "-o", "compare.json"],
}
out = {"paclab": paclab.__file__}
for name, argv in RUNS.items():
    out[("cli", name, "exit code")] = ("exit", cli.main(argv))
for f in sorted(p for p in Path(".").rglob("*") if p.is_file()):
    if f.name.endswith(".manifest.json"):
        doc = json.loads(f.read_text())
        doc.pop("duration_s", None)
        out[("cli", f.as_posix())] = ("manifest", doc)
    else:
        out[("cli", f.as_posix())] = ("file", f.read_bytes())
with open(sys.argv[1], "wb") as f:
    pickle.dump(out, f)
"""


def _start(tree: Path, child: str, dump: Path, cwd: Path) -> subprocess.Popen:
    src = tree / "src"
    if not (src / "paclab" / "__init__.py").is_file():
        raise SystemExit(f"{tree} has no src/paclab")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PAC_LAB_JOBS", None)  # older trees read it as the default of --jobs
    return subprocess.Popen([sys.executable, "-c", child, str(dump)], env=env, cwd=cwd)


def _run_trees(trees, child: str, tmp: Path, name: str, in_src: bool):
    """child's dump from each tree, run in parallel: in the tree's src, or
    in an empty directory of its own; None if a run failed."""
    dumps, procs = [], []
    for i, tree in enumerate(trees):
        dumps.append(tmp / f"{name}{i}.pkl")
        cwd = tree / "src" if in_src else tmp / f"{name}{i}"
        cwd.mkdir(exist_ok=True)
        procs.append(_start(tree, child, dumps[-1], cwd))
    codes = [p.wait() for p in procs]
    if any(codes):
        print(f"a tree's {name} run failed (exit codes {codes})", file=sys.stderr)
        return None
    return [pickle.loads(d.read_bytes()) for d in dumps]


def _same(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] != "ok":
        return a == b
    return np.array_equal(a[1], b[1]) and a[2] == b[2]


def _moved(a, b) -> str:
    """How result b differs from result a, for a line of the report."""
    if a[0] == b[0] == "manifest":
        keys = sorted(k for k in a[1].keys() | b[1].keys() if a[1].get(k) != b[1].get(k))
        return f"manifest keys {keys} differ"
    if a[0] == b[0] == "file":
        at = next((i for i, (p, q) in enumerate(zip(a[1], b[1])) if p != q),
                  min(len(a[1]), len(b[1])))
        return f"{len(a[1])} against {len(b[1])} bytes, first difference at byte {at}"
    if a[0] == b[0] == "exit":
        return f"exit code {a[1]} against {b[1]}"
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
    results = [{}, {}]
    with tempfile.TemporaryDirectory() as tmp:
        for child, name, in_src in ((_CHILD, "matrices", True), (_CLI_CHILD, "cli", False)):
            dumps = _run_trees(trees, child, Path(tmp), name, in_src)
            if dumps is None:
                return 1
            for tree, res, dump in zip(trees, results, dumps):
                if not Path(dump.pop("paclab")).is_relative_to(tree):
                    print(f"the {name} run for {tree} imported paclab from elsewhere",
                          file=sys.stderr)
                    return 1
                res.update(dump)
    parent, change = results
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

"""Record the oracle's reference digests from the program as it is now.

    python3 perfbench/record_reference.py

Runs the warm-up and the first rounds of every workload for the default
seed 0 and the held-out seed 7, and writes one digest per evaluation to
perfbench/reference/reference.json. Re-record only in a change that is
meant to alter the program's numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

# timed rounds recorded after the warm-up; a run on a faster machine may do
# more rounds than this, and those are checked by the spot cells alone
ROUNDS = {"stock_matrix": 4, "long_recording": 1, "compare_sweep": 3}


def _digits(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, list):
        return [_digits(x) for x in v]
    return v


def main():
    jobs = len(os.sched_getaffinity(0))
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for seed in oracle.REFERENCE_SEEDS:
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(seed, workdir, jobs)
                wl.prepare()
                rounds = [wl.warmup()] + [wl.round(r) for r in range(1, ROUNDS[name] + 1)]
                for rnd in rounds:
                    wl.load_outputs(rnd)
                    for ev in rnd.evals:
                        problems = ev.problems or oracle.check(ev, {})
                        if problems:
                            raise SystemExit(f"{ev.label}: {'; '.join(problems)}")
                        digests[ev.label] = {k: _digits(v) for k, v in
                                             oracle.digest(ev.label, ev.matrix).items()}
                print(f"recorded {name} seed {seed}: {len(rounds)} rounds", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "seeds": list(oracle.REFERENCE_SEEDS),
        "tolerance": oracle.TOLERANCE,
        "digests": dict(sorted(digests.items())),
    }
    oracle.REFERENCE_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {len(digests)} digests to {oracle.REFERENCE_PATH}")


if __name__ == "__main__":
    main()

"""Record the golden matrices that tests/test_golden.py checks against.

    PYTHONPATH=src python tests/golden/record.py

Writes tests/golden/matrices.json: for each of the four benchmark pairs
and each method, the raw (unnormalized) compute_matrix values on the 7x7
grid centred on the pair, for benchmark_spec(pair, seed=0) at the default
MeasureConfig. Floats are written with repr, so they read back bitwise.
Re-record only when a change to the numbers is intended and argued.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import scipy

import paclab
from paclab import BENCHMARK_PAIRS, METHODS, GridSpec, benchmark_spec, compute_matrix, synth_pac

OUT = Path(__file__).resolve().parent / "matrices.json"
SEED = 0
HALF_WIDTH = 3


def grid_around(pair) -> GridSpec:
    m, n = pair
    return GridSpec(m - HALF_WIDTH, m + HALF_WIDTH, n - HALF_WIDTH, n + HALF_WIDTH)


def main() -> None:
    records = []
    for pair in BENCHMARK_PAIRS:
        x = synth_pac(benchmark_spec(pair, seed=SEED)).composite
        grid = grid_around(pair)
        for method in METHODS:
            mat = compute_matrix(x, method, grid)
            records.append({
                "pair": list(pair),
                "method": method,
                "grid": [grid.m_start, grid.m_stop, grid.n_start, grid.n_stop],
                "values": mat.values.tolist(),
            })
    doc = {
        "seed": SEED,
        "recorded_with": {
            "paclab": paclab.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "matrices": records,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(records)} matrices to {OUT}")


if __name__ == "__main__":
    main()

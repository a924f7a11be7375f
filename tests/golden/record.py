"""Record the golden matrices that tests/test_golden.py checks against.

    PYTHONPATH=src python tests/golden/record.py

Writes two files. tests/golden/matrices.json holds, for each of the four
benchmark pairs and each method, the raw (unnormalized) compute_matrix
values on the 7x7 grid centred on the pair, for benchmark_spec(pair,
seed=0) at the default MeasureConfig. tests/golden/long_matrices.json
holds the same for those signals lengthened to LONG_DURATION seconds,
past the length from which the filter bank fills Morlet bands from one
padded spectrum of the signal. Floats are written with repr, so they
read back bitwise. Re-record only when a change to the numbers is
intended and argued.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from pathlib import Path

import numpy as np
import scipy

import paclab
from paclab import BENCHMARK_PAIRS, METHODS, GridSpec, benchmark_spec, compute_matrix, synth_pac

HERE = Path(__file__).resolve().parent
SEED = 0
HALF_WIDTH = 3
LONG_DURATION = 30.0


def grid_around(pair) -> GridSpec:
    m, n = pair
    return GridSpec(m - HALF_WIDTH, m + HALF_WIDTH, n - HALF_WIDTH, n + HALF_WIDTH)


def record(out: Path, duration: float | None) -> None:
    """Write the golden matrices of the benchmark signals, lengthened to
    `duration` seconds unless it is None, to `out`."""
    records = []
    for pair in BENCHMARK_PAIRS:
        spec = benchmark_spec(pair, seed=SEED)
        if duration is not None:
            spec = dataclasses.replace(spec, duration=duration)
        x = synth_pac(spec).composite
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
        **({} if duration is None else {"duration": duration}),
        "recorded_with": {
            "paclab": paclab.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "matrices": records,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(records)} matrices to {out}")


def main() -> None:
    record(HERE / "matrices.json", None)
    record(HERE / "long_matrices.json", LONG_DURATION)


if __name__ == "__main__":
    main()

"""Golden matrices: raw compute_matrix values pinned for every method.

tests/golden/matrices.json holds, for each benchmark pair and method, the
unnormalized matrix on the 7x7 grid centred on the pair for
benchmark_spec(pair, seed=0) at the default MeasureConfig, written by
tests/golden/record.py. A rewrite that changes numbers must stay within
the tolerances below; one that moves the argmax alone is not enough.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from paclab import BENCHMARK_PAIRS, METHODS, GridSpec, benchmark_spec, compute_matrix, synth_pac

GOLDEN = json.loads((Path(__file__).parent / "golden" / "matrices.json").read_text())

#: Absolute tolerance per method on raw cell values. Each is at most
#: 1e-12 x the largest cell of every golden matrix of that method (mvl is
#: not bounded by 1; kld's matrices peak between 5.7e-5 and 1.1e-3).
TOLERANCE = {"mca": 5e-13, "eps": 3e-13, "mvl": 2.5e-13, "cv": 9e-13, "kld": 5e-17}

_SIGNALS = {}


def _signal(pair):
    if pair not in _SIGNALS:
        _SIGNALS[pair] = synth_pac(benchmark_spec(pair, seed=GOLDEN["seed"])).composite
    return _SIGNALS[pair]


def _records():
    return [pytest.param(r, id=f"{r['method']}-{r['pair'][0]}:{r['pair'][1]}")
            for r in GOLDEN["matrices"]]


def test_every_pair_and_method_is_recorded():
    got = {(tuple(r["pair"]), r["method"]) for r in GOLDEN["matrices"]}
    assert got == {(pair, meth) for pair in BENCHMARK_PAIRS for meth in METHODS}


@pytest.mark.parametrize("record", _records())
def test_matrix_matches_golden(record):
    pair = tuple(record["pair"])
    want = np.array(record["values"])
    tol = TOLERANCE[record["method"]]
    assert tol <= 1e-12 * want.max()
    mat = compute_matrix(_signal(pair), record["method"], GridSpec(*record["grid"]))
    assert mat.values.shape == want.shape
    assert np.max(np.abs(mat.values - want)) <= tol

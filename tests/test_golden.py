"""Golden matrices: raw compute_matrix values pinned for every method.

tests/golden/matrices.json holds, for each benchmark pair and method, the
unnormalized matrix on the 7x7 grid centred on the pair for
benchmark_spec(pair, seed=0) at the default MeasureConfig, written by
tests/golden/record.py. A rewrite that changes numbers must stay within
the tolerances below; one that moves the argmax alone is not enough.
tests/golden/long_matrices.json holds the same for those signals at 30 s,
long enough that the filter bank fills Morlet bands from one padded
spectrum of the signal; each of its matrices must match within 1e-12 of
its own maximum, kld's within the rounding of its formula when that is
larger (KLD_RESOLUTION).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from paclab import (BENCHMARK_PAIRS, METHODS, GridSpec, MeasureConfig, benchmark_spec,
                    compute_matrix, synth_pac)
from paclab.filters import _spectrum_taps

GOLDEN = json.loads((Path(__file__).parent / "golden" / "matrices.json").read_text())
LONG_GOLDEN = json.loads((Path(__file__).parent / "golden" / "long_matrices.json").read_text())

#: Absolute tolerance per method on raw cell values. Each is at most
#: 1e-12 x the largest cell of every golden matrix of that method (mvl is
#: not bounded by 1; kld's matrices peak between 5.7e-5 and 1.1e-3).
TOLERANCE = {"mca": 5e-13, "eps": 3e-13, "mvl": 2.5e-13, "cv": 9e-13, "kld": 5e-17}

#: Relative tolerance on the long goldens: the largest cell difference
#: over the golden matrix's maximum.
LONG_TOLERANCE = 1e-12
#: kld is 1 - H/log(bins) with H/log(bins) near 1, so a cell carries an
#: absolute rounding of about ulp(1) = 2.2e-16 whatever its size; on the
#: long goldens (maxima 4.3e-5 to 5.0e-4) one ulp is up to 5.2e-12 of the
#: maximum. kld's tolerance is never below four ulps of 1.
KLD_RESOLUTION = 4 * np.finfo(float).eps

_SIGNALS = {}


def _signal(pair, duration=None):
    if (pair, duration) not in _SIGNALS:
        spec = benchmark_spec(pair, seed=GOLDEN["seed"])
        if duration is not None:
            spec = dataclasses.replace(spec, duration=duration)
        _SIGNALS[pair, duration] = synth_pac(spec).composite
    return _SIGNALS[pair, duration]


def _records(golden=GOLDEN):
    return [pytest.param(r, id=f"{r['method']}-{r['pair'][0]}:{r['pair'][1]}")
            for r in golden["matrices"]]


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


def test_every_pair_and_method_is_recorded_long():
    got = {(tuple(r["pair"]), r["method"]) for r in LONG_GOLDEN["matrices"]}
    assert got == {(pair, meth) for pair in BENCHMARK_PAIRS for meth in METHODS}
    assert LONG_GOLDEN["seed"] == GOLDEN["seed"]


def test_long_goldens_reach_the_shared_morlet_spectrum():
    x = _signal(BENCHMARK_PAIRS[0], LONG_GOLDEN["duration"])
    assert _spectrum_taps(len(x), MeasureConfig().morlet_cycles, x.fs) is not None


@pytest.mark.parametrize("record", _records(LONG_GOLDEN))
def test_long_matrix_matches_golden(record):
    want = np.array(record["values"])
    tol = LONG_TOLERANCE * want.max()
    assert tol > 0
    if record["method"] == "kld":
        tol = max(tol, KLD_RESOLUTION)
    x = _signal(tuple(record["pair"]), LONG_GOLDEN["duration"])
    mat = compute_matrix(x, record["method"], GridSpec(*record["grid"]))
    assert mat.values.shape == want.shape
    assert np.max(np.abs(mat.values - want)) <= tol

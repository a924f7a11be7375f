"""Correctness checks for every evaluation the benchmark runs.

Three independent checks, any of which fails the evaluation:

* structure: the normalized matrix has the grid's shape, peaks at exactly 1,
  and the reported argmax is the first maximum in (n, m) order;
* spot cells: the argmax cell and one more cell, recomputed through the
  public per-cell measure without the filter-bank cache, agree with the
  matrix after the same normalization;
* reference: when the evaluation's inputs were recorded by
  record_reference.py (the default seed 0 and the held-out seed 7), its
  argmax, row and column sums and sampled cells match the recording.

Tolerances are absolute, on normalized values in [0, 1], per method.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

import paclab

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "reference.json"
REFERENCE_SEEDS = (0, 7)

#: Absolute tolerance on normalized cell values. Row and column sums get
#: the cell tolerance times the number of cells summed.
TOLERANCE = {"mca": 1e-6, "eps": 1e-6, "mvl": 1e-6, "cv": 1e-6, "kld": 1e-6}

#: Cells sampled into each reference digest, besides row and column sums.
DIGEST_CELLS = 8

_CELL_FNS = {
    "mca": paclab.mca_pac,
    "eps": paclab.eps,
    "mvl": paclab.mvl,
    "cv": paclab.cv,
    "kld": paclab.kld,
}
_ZERO_CELL_ERRORS = (
    paclab.OutOfBandError,
    paclab.DegeneratePhaseError,
    paclab.DegenerateDistributionError,
)


def direct_cell(method, x, m, n):
    """One cell through the public per-cell measure, uncached."""
    try:
        return float(_CELL_FNS[method](x, m, n))
    except _ZERO_CELL_ERRORS:
        return 0.0


#: direct_cell values by (label, m, n). A label names one input and method,
#: so an evaluation repeated on the same input is checked against the same
#: recomputation instead of paying for it again.
_DIRECT = {}


def _direct(ev, x, m, n):
    key = (ev.label, m, n)
    if key not in _DIRECT:
        _DIRECT[key] = direct_cell(ev.method, x, m, n)
    return _DIRECT[key]


def _cells(mat):
    """All (i, j, m, n) with m < n, in (n, m) order."""
    return [
        (i, j, int(m), int(n))
        for i, n in enumerate(mat.grid.n_values)
        for j, m in enumerate(mat.grid.m_values)
        if m < n
    ]


def _pick(cells, label, k):
    """k cells chosen by a hash of the label, so a label always picks the same."""
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    idx = rng.choice(len(cells), size=min(k, len(cells)), replace=False)
    return [cells[i] for i in sorted(idx)]


def digest(label, mat):
    """Reference record of one normalized matrix."""
    v = mat.values
    found = paclab.argmax(mat)
    return {
        "argmax": None if found is None else [found[0], found[1]],
        "rows": v.sum(axis=1).tolist(),
        "cols": v.sum(axis=0).tolist(),
        "cells": [[m, n, float(v[i, j])] for i, j, m, n in _pick(_cells(mat), label, DIGEST_CELLS)],
    }


def load_reference():
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["digests"]


def check(ev, refs):
    """Problems found in one evaluation; an empty list means it is correct."""
    mat = ev.matrix
    if mat is None:
        return ["no matrix was produced"]
    tol = TOLERANCE[ev.method]
    problems = []
    x = ev.signal
    if isinstance(x, paclab.SynthesisSpec):
        x = paclab.synth_pac(x).composite
    v = mat.values
    if mat.method != ev.method or not mat.normalized:
        problems.append(f"matrix is {mat.method!r}, normalized={mat.normalized}")
    if v.shape != (len(mat.grid.n_values), len(mat.grid.m_values)):
        problems.append(f"shape {v.shape} does not match the grid")
        return problems
    peak = float(v.max())
    if peak == 0.0:
        expected = None
    else:
        i, j = np.unravel_index(int(np.argmax(v)), v.shape)
        expected = (int(mat.grid.m_values[j]), int(mat.grid.n_values[i]))
        if peak != 1.0:
            problems.append(f"normalized peak is {peak!r}, not 1")
    got = None if ev.found is None else (int(ev.found[0]), int(ev.found[1]))
    if got != expected:
        problems.append(f"argmax {got} but the matrix peaks at {expected}")

    # spot cells against the uncached per-cell measure
    if expected is None:
        d_true = _direct(ev, x, *ev.pair)
        if d_true != 0.0:
            problems.append(f"all-zero matrix but the true cell scores {d_true!r}")
    else:
        d_star = _direct(ev, x, *expected)
        if not d_star > 0.0:
            problems.append(f"argmax cell {expected} scores {d_star!r} when recomputed")
        else:
            cells = _cells(mat)
            scored = [c for c in cells if v[c[0], c[1]] > 0 and (c[2], c[3]) != expected]
            for i, j, m, n in _pick(scored or cells, ev.label, 1):
                want = _direct(ev, x, m, n) / d_star
                if abs(float(v[i, j]) - want) > tol:
                    problems.append(f"cell ({m}, {n}) is {v[i, j]!r}, recomputed {want!r}")

    ref = refs.get(ev.label)
    if ref is not None:
        problems.extend(_against_reference(mat, ref, tol, expected))
    return problems


def _against_reference(mat, ref, tol, found):
    v = mat.values
    out = []
    ref_peak = None if ref["argmax"] is None else tuple(ref["argmax"])
    if found != ref_peak:
        # a near-tie may flip within tolerance; then the reference peak
        # must still read 1 within tolerance
        if ref_peak is None or abs(mat.cell(*ref_peak) - 1.0) > tol:
            out.append(f"argmax {found}, reference {ref_peak}")
    rows = np.abs(v.sum(axis=1) - np.asarray(ref["rows"]))
    cols = np.abs(v.sum(axis=0) - np.asarray(ref["cols"]))
    if rows.max() > tol * v.shape[1] or cols.max() > tol * v.shape[0]:
        out.append(f"row/column sums differ from the reference by {max(rows.max(), cols.max())!r}")
    for m, n, want in ref["cells"]:
        if abs(mat.cell(m, n) - want) > tol:
            out.append(f"cell ({m}, {n}) is {mat.cell(m, n)!r}, reference {want!r}")
    return out

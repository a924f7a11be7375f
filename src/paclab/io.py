"""File formats: signal CSV, matrix CSV with metadata header, report and
manifest JSON, and binary PGM heatmaps."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .comodulogram import GridSpec, PacMatrix, argmax
from .errors import InvalidInputError
from .signal_core import Signal

SIGNAL_HEADER = "time_s,value"
SPACING_TOL_REL = 1e-9
# fs landing this close to an integer is treated as that integer, so the
# common 1/fs=0.001 grid round-trips to exactly 1000.0
FS_SNAP_REL = 1e-6


def fmt(v: float) -> str:
    return "%.17g" % float(v)


def write_signal_csv(path, x: Signal) -> None:
    """Two-column CSV; 17 significant digits so parsing returns the same
    float64 values bitwise."""
    path = Path(path)
    fs = x.fs
    lines = [SIGNAL_HEADER]
    for i, v in enumerate(x.samples):
        lines.append(f"{fmt(i / fs)},{fmt(v)}")
    path.write_text("\n".join(lines) + "\n")


def read_signal_csv(path) -> Signal:
    """Parse a signal CSV; fs is inferred from the (validated uniform)
    time column."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInputError(f"cannot read signal file {path}: {e}") from e
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SIGNAL_HEADER:
        raise InvalidInputError(f"{path}: expected header {SIGNAL_HEADER!r}")
    times = []
    values = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"{path}:{k}: expected two columns")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as e:
            raise InvalidInputError(f"{path}:{k}: non-numeric field") from e
    if len(values) < 2:
        raise InvalidInputError(f"{path}: need at least 2 samples")
    t = np.array(times)
    if not np.all(np.isfinite(t)):
        raise InvalidInputError(f"{path}: time column must be finite")
    with np.errstate(over="ignore"):
        dt = np.diff(t)
        dt0 = float(np.mean(dt))
    if not dt0 > 0:
        raise InvalidInputError(f"{path}: time column must be increasing")
    if not (math.isfinite(dt0) and np.max(np.abs(dt - dt0)) <= SPACING_TOL_REL * dt0):
        raise InvalidInputError(f"{path}: sample spacing is not uniform")
    fs = 1.0 / dt0
    if not math.isfinite(fs):
        raise InvalidInputError(f"{path}: sample spacing {dt0!r} s gives no finite rate")
    if abs(fs - round(fs)) <= FS_SNAP_REL * fs:
        fs = float(round(fs))
    return Signal(np.array(values), fs)


def grid_str(g: GridSpec) -> str:
    return f"m={g.m_start}:{g.m_stop},n={g.n_start}:{g.n_stop}"


def parse_grid(s: str) -> GridSpec:
    try:
        parts = dict(p.split("=") for p in s.split(","))
        m0, m1 = (int(v) for v in parts["m"].split(":"))
        n0, n1 = (int(v) for v in parts["n"].split(":"))
        return GridSpec(m0, m1, n0, n1)
    except (KeyError, ValueError) as e:
        raise InvalidInputError(f"bad grid descriptor {s!r}") from e


def write_matrix_csv(path, mat: PacMatrix) -> None:
    """Metadata as '#'-prefixed lines, then one row per n (ascending),
    columns m ascending."""
    path = Path(path)
    peak = argmax(mat)
    lines = [
        f"# method: {mat.method}",
        f"# normalized: {str(mat.normalized).lower()}",
        f"# grid: {grid_str(mat.grid)}",
        "# argmax: none" if peak is None
        else f"# argmax: m={peak[0]},n={peak[1]},value={fmt(peak[2])}",
    ]
    for row in mat.values:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> PacMatrix:
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInputError(f"cannot read matrix file {path}: {e}") from e
    meta: dict = {}
    rows = []
    for ln in raw.splitlines():
        if not ln.strip():
            continue
        if ln.startswith("#"):
            body = ln[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                meta[key.strip()] = val.strip()
            continue
        try:
            rows.append([float(v) for v in ln.split(",")])
        except ValueError as e:
            raise InvalidInputError(f"{path}: non-numeric matrix row") from e
    if not rows:
        raise InvalidInputError(f"{path}: no matrix rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InvalidInputError(f"{path}: ragged matrix rows")
    grid = parse_grid(meta["grid"]) if "grid" in meta else GridSpec(
        1, len(rows[0]), 1, len(rows)
    )
    values = np.array(rows)
    method = meta.get("method", "unknown")
    normalized = meta.get("normalized", "false") == "true"
    try:
        return PacMatrix(values, method, normalized, grid)
    except InvalidInputError:
        raise
    except Exception as e:
        raise InvalidInputError(f"{path}: malformed matrix: {e}") from e


def write_pgm(path, mat: PacMatrix) -> None:
    """8-bit binary PGM, one pixel per cell, pixel = round(255*cell).

    The top pixel row is the largest n, so n increases upward in the
    rendered image; a header comment records that.
    """
    path = Path(path)
    vals = mat.values
    if np.any(vals > 1.0):
        raise InvalidInputError("heatmap needs cells in [0,1]; normalize first")
    h, w = vals.shape
    pixels = np.rint(255.0 * vals[::-1, :]).astype(np.uint8)
    header = (
        f"P5\n"
        f"# rows top to bottom are n={mat.grid.n_stop}..{mat.grid.n_start}; "
        f"n increases upward\n"
        f"{w} {h}\n255\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(pixels.tobytes())


def _json_ready(v):
    """v with paths as strings, numpy scalars as Python numbers and
    non-finite floats as null, the only spelling strict JSON has for them."""
    if isinstance(v, Path):
        return str(v)
    if isinstance(v, dict):
        return {k: _json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_ready(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def write_json(path, doc: dict) -> None:
    """Deterministic, strict JSON: sorted keys, fixed layout, trailing
    newline, non-finite floats written as null."""
    text = json.dumps(_json_ready(doc), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"{path}: invalid JSON: {e}") from e


def manifest_path(output_path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def manifest_doc(
    command: str,
    parameters: dict,
    inputs: list,
    outputs: list,
    seeds,
    duration_s,
    version: str,
) -> dict:
    """The manifest document: JSON-ready, non-finite floats recorded as null.

    duration_s is informational: it varies between reruns and is not part
    of the reproducibility contract.
    """
    return {
        "schema": 1,
        "command": command,
        "parameters": _json_ready(parameters),
        "seeds": _json_ready(seeds),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": version,
        "duration_s": duration_s,
    }


def write_manifest(
    output_path,
    command: str,
    parameters: dict,
    inputs: list,
    outputs: list,
    seeds,
    duration_s: float,
    version: str,
) -> dict:
    """Write manifest_doc(...) as the sidecar next to an output file."""
    doc = manifest_doc(command, parameters, inputs, outputs, seeds, duration_s, version)
    write_json(manifest_path(output_path), doc)
    return doc

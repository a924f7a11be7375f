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
# signal CSV rows formatted per write, so a long recording's file text
# is never held whole (about 35 bytes a row)
_ROWS_PER_WRITE = 4096
# characters of signal CSV rows numpy parses per call (about 30000 rows),
# so the parse holds one slice's lines and rows, not the whole file's
_PARSE_CHARS = 1 << 20
# deletes, by str.translate, the characters of rows of plain numbers,
# the only rows read_signal_csv hands to numpy
_DROP_PLAIN_ROW_CHARS = str.maketrans("", "", "0123456789.eE+-,\n")


def fmt(v: float) -> str:
    return "%.17g" % float(v)


def write_signal_csv(path, x: Signal) -> None:
    """Two-column CSV; 17 significant digits so parsing returns the same
    float64 values bitwise. Rows are written _ROWS_PER_WRITE at a time,
    each batch formatted by one %-format; np.arange(a, b) / fs is i / fs
    bitwise."""
    fs = x.fs
    samples = x.samples
    with Path(path).open("w") as f:
        f.write(SIGNAL_HEADER + "\n")
        for a in range(0, len(samples), _ROWS_PER_WRITE):
            b = min(a + _ROWS_PER_WRITE, len(samples))
            rows = np.column_stack((np.arange(a, b) / fs, samples[a:b]))
            f.write(("%.17g,%.17g\n" * (b - a)) % tuple(rows.ravel().tolist()))


def read_signal_csv(path) -> Signal:
    """Parse a signal CSV; fs is inferred from the (validated uniform)
    time column.

    A file of the exact header and rows of plain numbers is parsed by
    numpy, _PARSE_CHARS characters of rows at a time. Any other file, and
    any file numpy refuses or that holds a non-finite value, is parsed by
    the line loop, which gives the errors and their line numbers."""
    path = Path(path)
    try:
        columns = _read_plain_rows(path)
    except (OSError, UnicodeDecodeError):
        columns = None  # the line loop reads the file again and reports it
    t, values = columns if columns is not None else _read_rows(path)
    return Signal(values, _sample_rate(path, t))


def _read_plain_rows(path: Path):
    """(times, values) of a file whose first line is exactly the header and
    whose other characters are all digits, '.', 'e', 'E', '+', '-', ','
    or '\\n', parsed by np.loadtxt in slices of whole lines; None for any
    other file, or where loadtxt refuses a slice or finds a non-finite
    value. That alphabet has no whitespace, '_', 'inf', 'nan', '\\r' or
    '#', so within it loadtxt accepts the same fields as float(), with the
    same values.

    The text is read whole, as one string. Read in chunks instead, the
    largest block the reader frees is its result, and glibc's malloc,
    which lifts its mmap threshold to the largest mapped block freed,
    then maps and unmaps the FFT temporaries of the matrix computed next:
    on a 300 s recording, on a 2-vCPU VM, that took 2-3 times the page
    faults and made the matrices 7-18% slower. The freed text still lifts
    that threshold for an API caller's process; the pac-lab CLI sets
    glibc's thresholds outright (cli._pin_malloc), so there the read
    order no longer matters to the allocator."""
    with path.open(newline="") as f:
        if f.readline() != SIGNAL_HEADER + "\n":
            return None
        body = f.read()
    parts = []
    start = 0
    while start < len(body):
        end = body.find("\n", start + _PARSE_CHARS)
        end = len(body) if end < 0 else end + 1
        text = body[start:end]
        start = end
        # an all-blank slice has no data, which loadtxt warns about
        if text.translate(_DROP_PLAIN_ROW_CHARS) or not text.strip("\n"):
            return None
        try:
            rows = np.loadtxt(text.splitlines(True), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        if rows.shape[1] != 2 or not np.isfinite(rows).all():
            return None
        parts.append(rows)
    if not parts:
        return None
    rows = np.concatenate(parts)
    return rows[:, 0], rows[:, 1]


def _read_rows(path: Path):
    """(times, values) by a loop over the file's lines, naming the line of
    the first row with two fields that float() does not take, or takes as
    a non-finite value."""
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInputError(f"cannot read signal file {path}: {e}") from e
    # (line number in the file, line) of the non-blank lines
    rows = ((k, ln) for k, ln in enumerate(raw.splitlines(), start=1) if ln.strip())
    header = next(rows, None)
    if header is None or header[1].strip() != SIGNAL_HEADER:
        raise InvalidInputError(f"{path}: expected header {SIGNAL_HEADER!r}")
    times = []
    values = []
    for k, ln in rows:
        parts = ln.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"{path}:{k}: expected two columns")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError as e:
            raise InvalidInputError(f"{path}:{k}: non-numeric field") from e
        if not (math.isfinite(t) and math.isfinite(v)):
            raise InvalidInputError(f"{path}:{k}: non-finite value")
        times.append(t)
        values.append(v)
    return np.array(times), np.array(values)


def _sample_rate(path: Path, t: np.ndarray) -> float:
    """The rate of the finite time column t: at least 2 samples, increasing
    with uniform spacing, and snapped to a near integer."""
    if len(t) < 2:
        raise InvalidInputError(f"{path}: need at least 2 samples")
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
    return fs


def grid_str(g: GridSpec) -> str:
    return f"m={g.m_start}:{g.m_stop},n={g.n_start}:{g.n_stop}"


def parse_grid(s: str) -> GridSpec:
    """GridSpec of m=a:b,n=c:d, the keys m and n once each in either order."""
    try:
        parts = dict(p.split("=") for p in s.split(","))
        if sorted(parts) != ["m", "n"] or s.count(",") != 1:  # two items, no repeat
            raise KeyError("the keys must be m and n, once each")
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
    return PacMatrix(values, method, normalized, grid)


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


def json_text(doc: dict) -> str:
    """Deterministic, strict JSON: sorted keys, fixed layout, trailing
    newline, non-finite floats written as null."""
    return json.dumps(_json_ready(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, doc: dict) -> None:
    """Write json_text(doc) to path."""
    Path(path).write_text(json_text(doc))


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

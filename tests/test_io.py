"""File formats: round trips, validation, and deterministic output."""

import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paclab.io
from paclab import (
    GridSpec,
    InvalidInputError,
    PacMatrix,
    Signal,
    manifest_path,
    pink_noise,
    read_json,
    read_matrix_csv,
    read_signal_csv,
    write_json,
    write_manifest,
    write_matrix_csv,
    write_pgm,
    write_signal_csv,
)
from paclab.io import parse_grid


def small_matrix():
    g = GridSpec(m_start=1, m_stop=3, n_start=2, n_stop=4)
    vals = np.zeros((3, 3))
    vals[0, 0] = 0.123456789012345678
    vals[1, 0] = 1.0
    vals[2, 1] = 0.5
    return PacMatrix(vals, "mca", True, g)


class TestSignalCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        x = pink_noise(500, 1000.0, 2.0, seed=0)
        p = tmp_path / "sig.csv"
        write_signal_csv(p, x)
        y = read_signal_csv(p)
        assert np.array_equal(x.samples, y.samples)
        assert y.fs == 1000.0

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,v\n0,1\n0.001,2\n")
        with pytest.raises(InvalidInputError):
            read_signal_csv(p)

    def test_column_count_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,value\n0,1,9\n0.001,2,9\n")
        with pytest.raises(InvalidInputError):
            read_signal_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,value\n0,one\n0.001,two\n")
        with pytest.raises(InvalidInputError):
            read_signal_csv(p)

    def test_non_uniform_spacing_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,value\n0,1\n0.001,2\n0.005,3\n")
        with pytest.raises(InvalidInputError):
            read_signal_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_signal_csv(tmp_path / "absent.csv")

    def test_fs_snaps_to_integer(self, tmp_path):
        # 0.001 is not exactly representable; 1/mean(dt) must still give 1000
        x = Signal(np.arange(100, dtype=float), 1000.0)
        p = tmp_path / "sig.csv"
        write_signal_csv(p, x)
        assert read_signal_csv(p).fs == 1000.0

    @pytest.mark.parametrize("times", [("nan", "nan"), ("0", "nan"), ("0", "inf")])
    def test_non_finite_time_rejected(self, tmp_path, times):
        p = tmp_path / "bad.csv"
        p.write_text(f"time_s,value\n{times[0]},1\n{times[1]},2\n")
        with pytest.raises(InvalidInputError, match="finite"):
            read_signal_csv(p)

    def test_spacing_without_finite_rate_rejected(self, tmp_path):
        # 1 / 1e-320 overflows to an infinite rate
        p = tmp_path / "bad.csv"
        p.write_text("time_s,value\n0,1\n1e-320,2\n")
        with pytest.raises(InvalidInputError, match="finite rate"):
            read_signal_csv(p)

    def test_undecodable_bytes_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"time_s,value\n\xff,1\n")
        with pytest.raises(InvalidInputError):
            read_signal_csv(p)

    @pytest.mark.parametrize("text, line, message", [
        ("time_s,value\n\n\n0,1\n0.001,2\n0.002,x\n", 6, "non-numeric field"),
        ("\ntime_s,value\n0,1\n  \n0.001,2,3\n", 5, "expected two columns"),
        ("time_s,value\n0,1\n0.001,y\n", 3, "non-numeric field"),
        ("time_s,value\n0,1\n0.001,1e999\n0.002,3\n", 3, "non-finite value"),
    ], ids=["blank-lines-before-bad-row", "blank-lines-around-header", "no-blank-lines",
            "non-finite-value"])
    def test_errors_name_the_file_line(self, tmp_path, text, line, message):
        # blank lines are skipped, but still counted in the line number
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(p))}:{line}: {message}$"):
            read_signal_csv(p)

    def test_chunked_writes_equal_the_whole_text(self, tmp_path):
        # more rows than several writes hold, and a partial last write
        n = 3 * paclab.io._ROWS_PER_WRITE + 17
        x = pink_noise(n, 250.0, 1.0, seed=3)
        p = tmp_path / "sig.csv"
        write_signal_csv(p, x)
        fmt = paclab.io.fmt
        lines = ["time_s,value"] + [f"{fmt(i / x.fs)},{fmt(v)}" for i, v in enumerate(x.samples)]
        assert p.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestMatrixCsv:
    def test_round_trip_values_and_meta(self, tmp_path):
        mat = small_matrix()
        p = tmp_path / "mat.csv"
        write_matrix_csv(p, mat)
        back = read_matrix_csv(p)
        assert np.array_equal(back.values, mat.values)
        assert back.method == "mca"
        assert back.normalized
        assert back.grid == mat.grid

    def test_float_grid_round_trips(self, tmp_path):
        grid = GridSpec(6.0, 8.0, 44.0, 46.0)
        mat = PacMatrix(np.zeros(grid.shape), "mca", False, grid)
        p = tmp_path / "mat.csv"
        write_matrix_csv(p, mat)
        assert "# grid: m=6:8,n=44:46" in p.read_text().splitlines()
        back = read_matrix_csv(p)
        assert back.grid == grid == GridSpec(6, 8, 44, 46)
        assert np.array_equal(back.values, mat.values)

    def test_header_lines_present(self, tmp_path):
        p = tmp_path / "mat.csv"
        write_matrix_csv(p, small_matrix())
        text = p.read_text().splitlines()
        assert text[0] == "# method: mca"
        assert text[1] == "# normalized: true"
        assert text[2] == "# grid: m=1:3,n=2:4"
        assert text[3].startswith("# argmax: m=1,n=3,value=")

    def test_all_zero_matrix_argmax_none(self, tmp_path):
        g = GridSpec(m_start=1, m_stop=3, n_start=2, n_stop=4)
        mat = PacMatrix(np.zeros((3, 3)), "mca", True, g)
        p = tmp_path / "mat.csv"
        write_matrix_csv(p, mat)
        assert "# argmax: none" in p.read_text()

    def test_malformed_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# method: mca\n1,2\n3\n")
        with pytest.raises(InvalidInputError):
            read_matrix_csv(p)
        p.write_text("# method: mca\nx,y\n")
        with pytest.raises(InvalidInputError):
            read_matrix_csv(p)
        p.write_text("# method: mca\n")
        with pytest.raises(InvalidInputError):
            read_matrix_csv(p)

    def test_matrix_invariants_enforced_on_read(self, tmp_path):
        p = tmp_path / "bad.csv"
        # cell m=2,n=2 sits on the diagonal and must be zero
        p.write_text("# grid: m=1:3,n=2:4\n0,0.5,0\n0,0,0\n0,0,0\n")
        with pytest.raises(InvalidInputError):
            read_matrix_csv(p)

    def test_huge_grid_header_is_rejected_before_allocating(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("# grid: m=1:100000000000,n=1:1\n0\n")
        with pytest.raises(InvalidInputError, match="does not match grid"):
            read_matrix_csv(p)

    def test_grid_falls_back_to_shape(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("0,0\n0.5,0\n")
        back = read_matrix_csv(p)
        assert back.grid == GridSpec(1, 2, 1, 2)
        assert back.cell(1, 2) == 0.5

    def test_grid_header_with_a_repeated_key_is_refused(self, tmp_path):
        p = tmp_path / "mat.csv"
        # the last m= fits the rows: a reader keeping it would accept the file
        p.write_text("# grid: m=1:2,n=2:4,m=1:3\n0,0,0\n0,0,0\n0,0,0\n")
        with pytest.raises(InvalidInputError, match="bad grid descriptor"):
            read_matrix_csv(p)

    def test_memory_error_is_not_a_malformed_matrix(self, tmp_path, monkeypatch):
        # PacMatrix refuses parsed rows only with InvalidInputError; anything
        # else it raises is not about the file and must not read as exit 3
        def no_memory(*args):
            raise MemoryError

        p = tmp_path / "mat.csv"
        write_matrix_csv(p, small_matrix())
        monkeypatch.setattr(paclab.io, "PacMatrix", no_memory)
        with pytest.raises(MemoryError):
            read_matrix_csv(p)


class TestParseGrid:
    def test_keys_in_either_order(self):
        assert parse_grid("m=1:5,n=6:9") == parse_grid("n=6:9,m=1:5") == GridSpec(1, 5, 6, 9)

    @pytest.mark.parametrize("text", [
        "m=1:5,n=6:9,m=3:4", "m=1:5,n=6:9,n=6:9", "m=1:5,n=6:9,q=7",
        "m=1:5,n=6:9,m=3:4,q=7", "m=1:5,q=6:9", "M=1:5,n=6:9", "m=1:5",
    ])
    def test_keys_are_m_and_n_once_each(self, text):
        with pytest.raises(InvalidInputError, match="bad grid descriptor"):
            parse_grid(text)


class TestPgm:
    def test_header_and_orientation(self, tmp_path):
        mat = small_matrix()
        p = tmp_path / "map.pgm"
        write_pgm(p, mat)
        blob = p.read_bytes()
        text, _, pixels = blob.partition(b"255\n")
        assert text.startswith(b"P5\n")
        assert b"n increases upward" in text
        assert b"3 3\n" in text
        assert len(pixels) == 9
        # top row is n=4 whose m=2 cell is 0.5
        assert pixels[1] == round(255 * 0.5)
        # bottom row is n=2 with the 0.1234... cell at m=1
        assert pixels[6] == round(255 * 0.123456789012345678)

    def test_rejects_unnormalized(self, tmp_path):
        g = GridSpec(m_start=1, m_stop=2, n_start=2, n_stop=3)
        vals = np.zeros((2, 2))
        vals[1, 0] = 4.2
        mat = PacMatrix(vals, "mca", False, g)
        with pytest.raises(InvalidInputError):
            write_pgm(tmp_path / "map.pgm", mat)


class TestJsonAndManifest:
    def test_json_round_trip_and_determinism(self, tmp_path):
        doc = {"b": 2, "a": [1, 2.5], "nested": {"z": None}}
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        write_json(p1, doc)
        write_json(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_json(p1) == doc
        assert p1.read_text().endswith("\n")

    def test_read_json_errors(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_json(tmp_path / "absent.json")
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(InvalidInputError):
            read_json(p)
        p.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(InvalidInputError):
            read_json(p)

    def test_manifest_sits_next_to_output(self, tmp_path):
        out = tmp_path / "mat.csv"
        doc = write_manifest(
            out,
            command="pac",
            parameters={"method": "mca", "path": out, "inf": float("inf")},
            inputs=[tmp_path / "sig.csv"],
            outputs=[out],
            seeds=[3],
            duration_s=1.25,
            version="0.1.0",
        )
        saved = read_json(manifest_path(out))
        assert saved == doc
        assert saved["schema"] == 1
        assert saved["command"] == "pac"
        assert saved["parameters"]["inf"] is None
        assert saved["parameters"]["path"].endswith("mat.csv")
        assert saved["seeds"] == [3]
        assert saved["duration_s"] == 1.25

    def test_numpy_scalars_serialize(self, tmp_path):
        out = tmp_path / "x.csv"
        doc = write_manifest(
            out,
            command="synth",
            parameters={"m": np.int64(8), "power": np.float64(630.0)},
            inputs=[],
            outputs=[out],
            seeds=None,
            duration_s=0.0,
            version="0.1.0",
        )
        assert json.dumps(doc)  # everything is plain JSON types
        assert doc["parameters"]["m"] == 8


class TestWriteJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        out = tmp_path / "doc.json"
        write_json(out, {"inf": float("inf"), "nan": float("nan"),
                         "nested": [np.float64("-inf"), 1.5]})

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc == {"inf": None, "nan": None, "nested": [None, 1.5]}


# Hostile CSV text: every input must parse or raise InvalidInputError, and
# warnings are errors, so no NaN or overflow slips through unnoticed.
FIELDS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e999", "1e-320", "5e-324", "", " ", "x", "1_0"]),
)


@st.composite
def time_columns(draw, n):
    kind = draw(st.sampled_from(["uniform"] * 4 + ["reversed", "jittered", "repeated", "field"]))
    # rates that are not integers, and spacings down to subnormal
    fs = draw(st.one_of(*[st.floats(1e-3, 1e5)] * 3, st.floats(1e300, 1e308)))
    t0 = draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    times = ["%.17g" % (t0 + k / fs) for k in range(n)]
    if kind == "reversed":
        times.reverse()
    elif kind == "jittered" and n > 2:
        k = draw(st.integers(1, n - 2))
        times[k] = "%.17g" % (t0 + (k + draw(st.floats(-1.0, 1.0))) / fs)
    elif kind == "repeated" and n > 1:
        times[-1] = times[-2]
    elif kind == "field" and n:
        times[draw(st.integers(0, n - 1))] = draw(FIELDS)
    return times


@st.composite
def signal_texts(draw):
    n = draw(st.integers(0, 30))
    times = draw(time_columns(n))
    values = [repr(v) for v in draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))]
    rows = [f"{t},{v}" for t, v in zip(times, values)]
    if rows:
        k = draw(st.integers(0, n - 1))
        # one row may hold a hostile value, or one field too many or too few
        rows[k] = draw(st.sampled_from([rows[k]] * 4 + [
            f"{times[k]},{draw(FIELDS)}", rows[k] + ",0", times[k]]))
    header = draw(st.sampled_from(["time_s,value"] * 4 + ["t,v", ""]))
    return "\n".join([header, *rows]) + "\n"


@st.composite
def matrix_texts(draw):
    n_rows = draw(st.integers(0, 5))
    width = draw(st.integers(1, 5))
    # nonzero cells below the diagonal only, so most matrices are valid
    rows = [[draw(st.sampled_from(["0", "0.5", "1e-300", "3"])) if j < i else "0"
             for j in range(width)] for i in range(n_rows)]
    if rows:
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
        # one cell may be hostile, or one row a field short
        how = draw(st.sampled_from(["keep"] * 3 + ["field", "ragged"]))
        if how == "field":
            rows[i][j] = draw(FIELDS)
        elif how == "ragged":
            rows[i].pop()
    header = []
    if draw(st.booleans()):
        bound = st.one_of(st.integers(-1, 7), st.just(10**11))
        m0, m1, n0, n1 = 1, width, 1, n_rows
        if draw(st.booleans()):
            m0, m1, n0, n1 = (draw(bound) for _ in range(4))
        header.append(draw(st.sampled_from([
            f"# grid: m={m0}:{m1},n={n0}:{n1}",
            f"# grid: m={m0}:{m1},n={n0}:{n1}",
            f"# grid: m={m0}:{m1}",
            f"# grid: m={m0},n={n0}:{n1}",
        ])))
    header += draw(st.lists(st.sampled_from(
        ["# method: mca", "# normalized: true", "# normalized: maybe", "#", "# argmax: none"]),
        max_size=3))
    return "\n".join(header + [",".join(r) for r in rows]) + "\n"


def _parse_text(reader, text):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "input.csv"
        p.write_text(text)
        try:
            return reader(p)
        except InvalidInputError:
            return None


class TestHostileText:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=signal_texts())
    def test_signal_csv_parses_or_is_invalid(self, text):
        x = _parse_text(read_signal_csv, text)
        if x is not None:
            assert isinstance(x, Signal)
            assert len(x) >= 2 and math.isfinite(x.fs) and x.fs > 0
            assert np.all(np.isfinite(x.samples))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=matrix_texts())
    def test_matrix_csv_parses_or_is_invalid(self, text):
        mat = _parse_text(read_matrix_csv, text)
        if mat is not None:
            assert isinstance(mat, PacMatrix)
            assert np.all(np.isfinite(mat.values)) and np.all(mat.values >= 0)

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=200))
    def test_any_text_after_the_header_parses_or_is_invalid(self, text):
        for reader, head in ((read_signal_csv, "time_s,value\n"), (read_matrix_csv, "")):
            _parse_text(reader, head + text)


def reference_read_signal_csv(path) -> Signal:
    """The line-loop reader as it stood before plain files went through
    numpy, with one change: a non-finite field names its line."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInputError(f"cannot read signal file {path}: {e}") from e
    rows = ((k, ln) for k, ln in enumerate(raw.splitlines(), start=1) if ln.strip())
    header = next(rows, None)
    if header is None or header[1].strip() != "time_s,value":
        raise InvalidInputError(f"{path}: expected header {'time_s,value'!r}")
    times = []
    values = []
    for k, ln in rows:
        parts = ln.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"{path}:{k}: expected two columns")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as e:
            raise InvalidInputError(f"{path}:{k}: non-numeric field") from e
        # the one change
        if not (math.isfinite(times[-1]) and math.isfinite(values[-1])):
            raise InvalidInputError(f"{path}:{k}: non-finite value")
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
    if not (math.isfinite(dt0) and np.max(np.abs(dt - dt0)) <= 1e-9 * dt0):
        raise InvalidInputError(f"{path}: sample spacing is not uniform")
    fs = 1.0 / dt0
    if not math.isfinite(fs):
        raise InvalidInputError(f"{path}: sample spacing {dt0!r} s gives no finite rate")
    if abs(fs - round(fs)) <= 1e-6 * fs:
        fs = float(round(fs))
    return Signal(np.array(values), fs)


# one edit of a written file's lines; k is a row index (line 0 is the header)
EDITS = {
    "none": lambda lines, k, f: lines,
    "spaces": lambda lines, k, f: _set(lines, k, f" {lines[k]} "),
    "tab-in-field": lambda lines, k, f: _set(lines, k, lines[k].replace(",", ",\t")),
    "field": lambda lines, k, f: _set(lines, k, lines[k].split(",")[0] + "," + f),
    "before-comma": lambda lines, k, f: _set(lines, k, lines[k].replace(",", f + ",")),
    "time-field": lambda lines, k, f: _set(lines, k, f + "," + lines[k].split(",")[1]),
    "three-columns": lambda lines, k, f: _set(lines, k, lines[k] + ",0"),
    "one-column": lambda lines, k, f: _set(lines, k, lines[k].split(",")[0]),
    "blank-before": lambda lines, k, f: ["", "  "] + lines,
    "blank-inside": lambda lines, k, f: lines[:k] + ["", ""] + lines[k:],
    "blank-after": lambda lines, k, f: lines + ["", " "],
    "bare-header": lambda lines, k, f: lines[:1],
    "header-spaces": lambda lines, k, f: [" time_s,value "] + lines[1:],
}
EDITED_FIELDS = st.sampled_from([
    "1_000", "infinity", "-Infinity", "nan", "1e999", "-1e999", "+1", ".5", "1.", "-.5e-3",
    "", " ", "1e", "--1", "1e-400", "0x10", "1,5",
    # whitespace to numpy, line breaks to str.splitlines
    "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0"])


def _set(lines, k, line):
    return lines[:k] + [line] + lines[k + 1:]


class TestReaderMatchesLineLoop:
    """read_signal_csv against the reference line loop: the same values
    bit for bit and the same rate, or the same error type and message."""

    @staticmethod
    def _outcome(reader, path):
        try:
            x = reader(path)
        except InvalidInputError as e:
            return type(e), str(e)
        return x.samples.tobytes(), x.fs

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(0, 120),
           fs=st.one_of(st.sampled_from([250.0, 1000.0, 1000.0 / 3]), st.floats(1e-3, 1e5),
                        st.floats(1e300, 1e308)),
           data=st.data(),
           edit=st.sampled_from(sorted(EDITS)),
           field=EDITED_FIELDS,
           newline=st.sampled_from(["\n", "\n", "\r\n"]),
           final_newline=st.booleans(),
           chars=st.one_of(st.none(), st.integers(1, 400)))
    def test_same_values_or_same_error(self, n, fs, data, edit, field, newline,
                                       final_newline, chars):
        samples = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=n, max_size=n))
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "input.csv"
            if n:
                write_signal_csv(p, Signal(np.array(samples), fs))
                lines = p.read_text().splitlines()
            else:
                lines = ["time_s,value"]
            k = data.draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
            lines = EDITS[edit](lines, k, field)
            text = newline.join(lines) + (newline if final_newline else "")
            p.write_bytes(text.encode())
            # a small slice puts slice boundaries next to the edited row
            chars = paclab.io._PARSE_CHARS if chars is None else chars
            with mock.patch.object(paclab.io, "_PARSE_CHARS", chars):
                got = self._outcome(read_signal_csv, p)
            assert got == self._outcome(reference_read_signal_csv, p)

    def test_written_file_is_bitwise_and_read_by_numpy(self, tmp_path, monkeypatch):
        # more rows than a slice holds: every slice goes through numpy
        x = pink_noise(5000, 1000.0 / 3, 1.0, seed=4)
        p = tmp_path / "sig.csv"
        write_signal_csv(p, x)
        monkeypatch.setattr(paclab.io, "_PARSE_CHARS", 4096)
        monkeypatch.setattr(paclab.io, "_read_rows", None)  # the loop is never reached
        y = read_signal_csv(p)
        assert np.array_equal(y.samples, x.samples)
        assert y.fs == reference_read_signal_csv(p).fs

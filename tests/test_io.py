"""File formats: round trips, validation, and deterministic output."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

"""File formats: round trips, validation, and deterministic output."""

import json

import numpy as np
import pytest

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

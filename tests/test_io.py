"""Tests for the plain-text formats: matrix files, grid data, configs, CSV."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envma import matio
from envma import matrixcore as mc
from envma.errors import ParseError
from envma.solver import GridSpec, ScalarField


class TestMatrixFormat:
    def test_sym_parse(self):
        M = matio.parse_matrix_text("sym 2\n1 0.5\n0.5 2\n")
        assert np.allclose(M, [[1.0, 0.5], [0.5, 2.0]])

    def test_sym_round_trip(self):
        rng = np.random.default_rng(3)
        S = rng.uniform(-5, 5, size=(4, 4))
        S = (S + S.T) / 2
        M = matio.parse_matrix_text(matio.format_matrix_text(S))
        assert np.array_equal(M, S)

    def test_herm_parse_embeds(self):
        text = "herm 2\n1,0 0,1\n0,-1 4,0\n"
        M = matio.parse_matrix_text(text)
        H = np.array([[1.0, 0.0], [0.0, 4.0]]) + 1j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(M, mc.embed(H))

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), exponent=st.integers(-150, 150))
    def test_herm_file_is_its_embedding(self, seed, n, exponent):
        # a Hermitian matrix is one complex array: its herm file parses to the
        # same bits as the sym file of its embedding, and hermitian_blocks
        # inverts embed
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Z = (G + G.conj().T) / 2 * 10.0 ** exponent
        rows = (" ".join(f"{matio.fmt(z.real)},{matio.fmt(z.imag)}" for z in row) for row in Z)
        M = matio.parse_matrix_text(f"herm {n}\n" + "\n".join(rows) + "\n")
        assert M.tobytes() == matio.parse_matrix_text(matio.format_matrix_text(mc.embed(Z))).tobytes()
        assert mc.hermitian_blocks(mc.embed(Z)).tobytes() == Z.tobytes()

    def test_herm_asymmetry_below_tolerance_is_snapped(self):
        M = matio.parse_matrix_text("herm 2\n1,0 2,0.5\n2,-0.5000000001 3,0\n")
        assert np.array_equal(M, M.T)
        b = (0.5 + 0.5000000001) / 2
        assert np.array_equal(M, mc.embed(np.array([[1.0, 2.0 + b * 1j], [2.0 - b * 1j, 3.0]])))

    def test_row_length_diagnostic(self):
        with pytest.raises(ParseError, match="row 2: expected 2 entries"):
            matio.parse_matrix_text("sym 2\n1 0\n0\n")

    def test_bad_number_diagnostic(self):
        with pytest.raises(ParseError, match="row 1, column 2"):
            matio.parse_matrix_text("sym 2\n1 zork\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            matio.parse_matrix_text("mat 2\n1 0\n0 1\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 2 rows"):
            matio.parse_matrix_text("sym 2\n1 0\n")

    def test_odd_sym_dimension_is_validation_error(self):
        with pytest.raises(ValueError, match="even"):
            matio.parse_matrix_text("sym 3\n1 0 0\n0 1 0\n0 0 1\n")

    def test_herm_pair_diagnostic(self):
        with pytest.raises(ParseError, match="row 1, column 1"):
            matio.parse_matrix_text("herm 1\n1;0\n")

    @pytest.mark.parametrize("text, where", [
        ("sym 2\n1 nan\nnan 1\n", "row 1, column 2"),
        ("sym 2\n1 0\n0 -inf\n", "row 2, column 2"),
        ("herm 1\nnan,0\n", "row 1, column 1"),          # passes the symmetry checks
        ("herm 2\n1,0 0,inf\n0,-inf 1,0\n", "row 1, column 2"),
    ])
    def test_non_finite_entry_diagnostic(self, text, where):
        with pytest.raises(ParseError, match=f"{where}: bad or non-finite number"):
            matio.parse_matrix_text(text)


class TestGridValues:
    def test_parse(self):
        vals = matio.parse_grid_values("1.0\n2.0\n# comment\n3.0\n", 3)
        assert np.array_equal(vals, [1.0, 2.0, 3.0])

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 4 grid values"):
            matio.parse_grid_values("1\n2\n", 4)

    def test_bad_line(self):
        with pytest.raises(ParseError, match="line 2"):
            matio.parse_grid_values("1\nxyz\n", 2)

    def test_non_finite_line(self):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError, match="line 3"):
                matio.parse_grid_values(f"1\n# c\n{bad}\n", 2)


class TestConfig:
    def test_parse_with_comments(self):
        values, texts = matio.parse_config("# hi\nn = 1\nlo = -1,-1  # corners\n", ())
        assert texts == {"n": "1", "lo": "-1,-1"}
        assert values == {"n": 1, "lo": [-1.0, -1.0]}

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            matio.parse_config("n = 1\nn = 2\n", ())

    def test_missing_equals(self):
        for line in ("just some words", "n =", "= 1"):
            with pytest.raises(ParseError, match="line 1: expected 'key = value'"):
                matio.parse_config(line + "\n", ())

    def test_missing_key_named(self):
        with pytest.raises(ParseError, match="^missing config key 'pointsPerAxis'$"):
            matio.parse_config("n = 1\n", ("n", "pointsPerAxis"))

    def test_rejects_unknown_keys(self):
        with pytest.raises(ParseError, match="^unknown config keys: typo, zz$"):
            matio.parse_config("zz = 1\nn = 1\ntypo = 1\n", ())

    def test_typed_values(self):
        values, _ = matio.parse_config(
            "n = 2\ntol = 1e-9\nlo = -1,0.5\nrefinements = 9, 17\nboundary = file:g.txt\n", ())
        assert values == {"n": 2, "tol": 1e-9, "lo": [-1.0, 0.5], "refinements": [9, 17],
                          "boundary": "file:g.txt"}

    def test_bad_number_reports_key(self):
        with pytest.raises(ParseError, match="^config key 'tol': bad or non-finite number 'abc'$"):
            matio.parse_config("tol = abc\n", ())

    def test_non_finite_numbers_rejected(self):
        for key, tok in (("tol", "nan"), ("theta", "inf"), ("lo", "nan,-1")):
            with pytest.raises(ParseError, match=f"^config key '{key}': .* '{tok}'$"):
                matio.parse_config(f"{key} = {tok}\n", ())

    def test_readme_lists_every_config_key(self):
        # the key table of README's "Problem configs" section names exactly
        # the keys the parser knows
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = re.split(r"\n##+ ", readme.split("### Problem configs", 1)[1])[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert len(keys) == len(set(keys))
        assert set(keys) == set(matio.CONFIG_KEYS)


class TestCsvAndReport:
    def test_field_csv_shape_and_precision(self):
        grid = GridSpec(1, (0.0, 0.0), (1.0, 1.0), 5)
        f = ScalarField.from_function(grid, lambda x, y: x / 3.0 + y)
        text = matio.field_csv(f)
        lines = text.strip().split("\n")
        assert lines[0] == "x0,x1,value"
        assert len(lines) == 1 + 25
        # 17 significant digits survive a round trip
        x0, x1, v = (float(tok) for tok in lines[7].split(","))
        assert v == f.values[1, 1]

    def test_field_csv_matches_per_point_formatting(self):
        def per_point(field):
            grid = field.grid
            axes = [grid.axis_coords(a) for a in range(grid.dim)]
            lines = [",".join([f"x{a}" for a in range(grid.dim)] + ["value"])]
            for idx in np.ndindex(grid.shape):
                coords = [matio.fmt(axes[a][i]) for a, i in enumerate(idx)]
                lines.append(",".join(coords) + "," + matio.fmt(field.values[idx]))
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(11)
        special = [-0.0, 1e-300, 1e17, -1e17, -2.5, -1e-300, 1.0 / 3.0]
        for n, lo, hi, P in ((1, (-1.0, 0.1), (2.0, 0.7), 6),
                             (2, (-1.0,) * 4, (1.0, 3.0, 1e-3, 1.0), 5)):
            grid = GridSpec(n, lo, hi, P)
            values = rng.uniform(-1e3, 1e3, grid.shape)
            values.reshape(-1)[:len(special)] = special
            values.reshape(-1)[-1] = -0.0
            field = ScalarField(grid, values)
            text = matio.field_csv(field)
            assert text.encode() == per_point(field).encode()
            assert ",-0\n" in text and "1e-300" in text and "1e+17" in text

    def test_fmt_round_trips(self):
        for v in (1.0 / 3.0, 2.0, -1.7e-12, 3.9999999999999996):
            assert float(matio.fmt(v)) == v

    def test_fmt_is_format_of_float(self):
        # random bit patterns cover normals, subnormals, inf and nan of both signs
        bits = np.random.default_rng(8).integers(0, 2**63, 20000, dtype=np.uint64)
        values = [*bits.view(np.float64), *(bits[:2000] >> 52).view(np.float64),
                  0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan,
                  np.float32(0.1), np.int64(-7), 3, 10**20, True]
        for v in values:
            assert matio.fmt(v) == format(float(v), ".17g")

    def test_convergence_csv(self):
        from envma.solver import ConvergenceRow
        # the converged flag and final residual are not columns
        rows = [ConvergenceRow(9, 0.25, 1e-3, None, True, 1e-11),
                ConvergenceRow(17, 0.125, 2.5e-4, 2.0, False, 3e-10)]
        text = matio.convergence_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "points_per_axis,h,max_error,observed_order"
        assert lines[1].endswith(",")
        assert lines[2].endswith(",2")
        assert len(lines) == 3 and all(line.count(",") == 3 for line in lines)

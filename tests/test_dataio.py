import numpy as np
import pytest

from glmavg import DataError, Dataset, load_csv, save_csv, split, synthetic_prostate
from glmavg.datasets import PROSTATE_PREDICTORS


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x1,x2,y\n1.5,2.0,3.0\n-0.5,1.0,0.25\n2.25,-3.5,1.125\n")
    return path


class TestLoadCsv:
    def test_prepends_intercept(self, toy_csv):
        ds = load_csv(toy_csv, "y")
        assert ds.n == 3 and ds.d == 3
        np.testing.assert_array_equal(ds.design[:, 0], 1.0)
        np.testing.assert_array_equal(ds.design[:, 1], [1.5, -0.5, 2.25])
        np.testing.assert_array_equal(ds.response, [3.0, 0.25, 1.125])
        assert ds.column_names[1:] == ["x1", "x2"]
        assert ds.response_name == "y"

    def test_missing_response_column(self, toy_csv):
        with pytest.raises(DataError, match="no column named 'z'"):
            load_csv(toy_csv, "z")

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(DataError, match="row 3.*'x'"):
            load_csv(path, "y")

    def test_missing_value_reports_location(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("x,y\n1.0,\n")
        with pytest.raises(DataError, match="missing value at row 2"):
            load_csv(path, "y")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="row 2 has 3 cells"):
            load_csv(path, "y")

    def test_blank_lines_are_skipped(self, tmp_path):
        # as csv.DictReader skips them; a short row after one keeps its record number
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n1.0,2.0\n\n3.0,4.0\n\n")
        ds = load_csv(path, "y")
        np.testing.assert_array_equal(ds.response, [2.0, 4.0])
        path.write_text("x,y\n1.0,2.0\n\n3.0\n")
        with pytest.raises(DataError, match="row 4 has 1 cells, header has 2"):
            load_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "y")

    def test_round_trip_bit_exact(self, toy_csv, tmp_path):
        ds = load_csv(toy_csv, "y")
        out = tmp_path / "echo.csv"
        save_csv(ds, out)
        again = load_csv(out, "y")
        np.testing.assert_array_equal(ds.design, again.design)
        np.testing.assert_array_equal(ds.response, again.response)
        assert ds.column_names == again.column_names

    def test_round_trip_awkward_floats(self, tmp_path):
        path = tmp_path / "awkward.csv"
        path.write_text("x,y\n0.1,0.3\n1e-17,2.2250738585072014e-308\n")
        ds = load_csv(path, "y")
        out = tmp_path / "echo.csv"
        save_csv(ds, out)
        again = load_csv(out, "y")
        np.testing.assert_array_equal(ds.design, again.design)
        np.testing.assert_array_equal(ds.response, again.response)


class TestDatasetInvariants:
    def test_intercept_enforced(self):
        with pytest.raises(DataError, match="intercept"):
            Dataset(
                response=np.ones(2),
                design=np.array([[2.0, 1.0], [1.0, 1.0]]),
                column_names=["(intercept)", "x"],
                family="linear",
            )

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(
                response=np.array([1.0, np.nan]),
                design=np.ones((2, 1)),
                column_names=["(intercept)"],
                family="linear",
            )

    def test_family_checked(self):
        with pytest.raises(DataError):
            Dataset(
                response=np.ones(2),
                design=np.ones((2, 1)),
                column_names=["(intercept)"],
                family="poisson",
            )

    def test_take_preserves_metadata(self):
        ds = synthetic_prostate()
        sub = ds.take([0, 5, 9])
        assert sub.n == 3
        assert sub.column_names == ds.column_names
        assert sub.response_name == "lpsa"


class TestSplit:
    def test_sizes(self):
        ds = synthetic_prostate()
        train, test = split(ds, 67, seed=0)
        assert (train.n, test.n) == (67, 30)

    def test_deterministic(self):
        ds = synthetic_prostate()
        a_train, a_test = split(ds, 67, seed=4)
        b_train, b_test = split(ds, 67, seed=4)
        np.testing.assert_array_equal(a_train.response, b_train.response)
        np.testing.assert_array_equal(a_test.design, b_test.design)

    def test_different_seeds_differ(self):
        ds = synthetic_prostate()
        a, _ = split(ds, 67, seed=1)
        b, _ = split(ds, 67, seed=2)
        assert not np.array_equal(a.response, b.response)

    def test_partition_is_exact(self):
        ds = synthetic_prostate()
        train, test = split(ds, 60, seed=3)
        merged = np.sort(np.concatenate([train.response, test.response]))
        np.testing.assert_array_equal(merged, np.sort(ds.response))

    def test_singleton_test_set(self):
        ds = synthetic_prostate()
        train, test = split(ds, ds.n - 1, seed=0)
        assert test.n == 1

    def test_out_of_range(self):
        ds = synthetic_prostate()
        with pytest.raises(DataError):
            split(ds, ds.n, seed=0)
        with pytest.raises(DataError):
            split(ds, 0, seed=0)


class TestSyntheticProstate:
    def test_shape_and_schema(self):
        ds = synthetic_prostate()
        assert ds.n == 97 and ds.d == 9
        assert ds.column_names[1:] == PROSTATE_PREDICTORS
        assert ds.response_name == "lpsa"

    def test_svi_binary_gleason_ordinal(self):
        ds = synthetic_prostate()
        svi = ds.design[:, 1 + PROSTATE_PREDICTORS.index("svi")]
        assert set(np.unique(svi)) <= {0.0, 1.0}
        gleason = ds.design[:, 1 + PROSTATE_PREDICTORS.index("gleason")]
        assert np.all((gleason >= 6) & (gleason <= 9))

    def test_deterministic(self):
        a = synthetic_prostate()
        b = synthetic_prostate()
        np.testing.assert_array_equal(a.response, b.response)
        np.testing.assert_array_equal(a.design, b.design)

    def test_response_scale_plausible(self):
        # the real study's lpsa spans roughly (-0.43, 5.58) with sd ~1.15
        ds = synthetic_prostate()
        assert 0.8 < np.std(ds.response) < 1.6

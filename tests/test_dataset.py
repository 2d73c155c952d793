import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocksr.dataset import (
    DataFormatError,
    Dataset,
    l2_normalize,
    l2_normalize_rows,
    load_csv,
    load_features_csv,
    make_synthetic,
    random_split,
    write_csv,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_reads_rows_and_labels(tmp_path):
    p = _write(tmp_path / "d.csv", "1,0.5,2.0\n1,1.5,3.0\n0,9.0,9.5\n")
    ds = load_csv(p, label_column=0)
    assert ds.n == 3 and ds.d == 2
    assert ds.labels.tolist() == [1, 1, 0]
    assert ds.targets().shape == (2, 2)
    np.testing.assert_array_equal(ds.X[2], [9.0, 9.5])


def test_load_csv_header_detected(tmp_path):
    p = _write(tmp_path / "d.csv", "label,x0\n1,0.5\n0,1.5\n")
    ds = load_csv(p, label_column=0)
    assert ds.n == 2
    assert ds.labels.tolist() == [1, 0]


def test_load_csv_label_in_middle_column(tmp_path):
    p = _write(tmp_path / "d.csv", "0.5,1,2.0\n")
    ds = load_csv(p, label_column=1)
    assert ds.labels.tolist() == [1]
    np.testing.assert_array_equal(ds.X, [[0.5, 2.0]])


def test_load_csv_empty_file(tmp_path):
    p = _write(tmp_path / "d.csv", "")
    with pytest.raises(DataFormatError, match="no rows"):
        load_csv(p, label_column=0)


def test_load_csv_ragged_row(tmp_path):
    p = _write(tmp_path / "d.csv", "1,0.5,2.0\n1,1.5\n")
    with pytest.raises(DataFormatError, match="ragged row at line 2"):
        load_csv(p, label_column=0)


def test_load_csv_non_numeric_feature(tmp_path):
    p = _write(tmp_path / "d.csv", "1,0.5\n1,abc\n")
    with pytest.raises(DataFormatError, match="non-numeric value"):
        load_csv(p, label_column=0)


def test_load_csv_invalid_label(tmp_path):
    p = _write(tmp_path / "d.csv", "2,0.5\n1,0.25\n")
    with pytest.raises(DataFormatError, match="invalid label"):
        load_csv(p, label_column=0)


def test_load_csv_errors_name_line_and_column(tmp_path):
    # header on line 1, so data rows start on line 2
    p = _write(tmp_path / "d.csv", "label,x0,x1\n1,0.5,2.0\n1,1.5,x\n")
    with pytest.raises(DataFormatError, match="non-numeric value 'x' at line 3, column 2"):
        load_csv(p, label_column=0)
    p = _write(tmp_path / "e.csv", "label,x0\n1,0.5\n0,1.5\n0.5,2.5\n")
    with pytest.raises(DataFormatError,
                       match=r"invalid label '0.5' at line 4 \(must be 0 or 1\)"):
        load_csv(p, label_column=0)
    with pytest.raises(DataFormatError, match="non-numeric value 'x' at line 3, column 2"):
        load_features_csv(str(tmp_path / "d.csv"))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="no such file"):
        load_csv(str(tmp_path / "absent.csv"), label_column=0)


def test_load_csv_label_column_out_of_range(tmp_path):
    p = _write(tmp_path / "d.csv", "1,0.5\n")
    with pytest.raises(DataFormatError, match="out of range"):
        load_csv(p, label_column=5)


def test_load_features_csv(tmp_path):
    p = _write(tmp_path / "f.csv", "x0,x1\n0.5,1.5\n2.5,3.5\n")
    X = load_features_csv(p)
    np.testing.assert_array_equal(X, [[0.5, 1.5], [2.5, 3.5]])


def test_write_csv_round_trips_exactly(tmp_path):
    ds = make_synthetic(5, 3, 4, 2.5, seed=11)
    p = str(tmp_path / "rt.csv")
    write_csv(ds, p)
    back = load_csv(p, label_column=0)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_dataset_validation():
    with pytest.raises(DataFormatError, match="one entry per row"):
        Dataset(np.zeros((2, 2)), np.array([1]))
    with pytest.raises(DataFormatError, match="non-finite"):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1]))
    with pytest.raises(DataFormatError, match="lie in"):
        Dataset(np.zeros((1, 2)), np.array([3]))


def test_dataset_arrays_read_only():
    ds = make_synthetic(4, 0, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0


def test_normalize_three_four_five():
    out = l2_normalize_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_normalize_zero_row_kept_with_warning():
    with pytest.warns(UserWarning, match="all-zero"):
        out = l2_normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out[0], [0.0, 0.0])
    np.testing.assert_allclose(out[1], [0.6, 0.8], rtol=0, atol=1e-15)


def test_normalize_unit_row_untouched():
    row = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(l2_normalize_rows(row), row)


def test_normalize_dataset_idempotent():
    ds = make_synthetic(20, 10, 6, 3.0, seed=2)
    once = l2_normalize(ds)
    twice = l2_normalize(once)
    np.testing.assert_array_equal(once.X, twice.X)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_normalize_unit_norms(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0 ** float(rng.integers(-3, 4))
    out = l2_normalize_rows(X)
    norms = np.linalg.norm(out, axis=1)
    nonzero = np.linalg.norm(X, axis=1) > 0
    assert np.abs(norms[nonzero] - 1.0).max() <= 1e-12


def test_split_disjoint_and_complete():
    ds = make_synthetic(40, 20, 5, 3.0, seed=1)
    train, test = random_split(ds, 0.5, seed=7)
    assert train.n + test.n == ds.n
    # all outliers land in the test half by default
    assert int((train.labels == 0).sum()) == 0
    assert int((test.labels == 0).sum()) == 20
    orig = {tuple(r) for r in ds.X}
    got = {tuple(r) for r in np.vstack([train.X, test.X])}
    assert got == orig


def test_split_deterministic():
    ds = make_synthetic(30, 10, 4, 2.0, seed=3)
    a_train, a_test = random_split(ds, 0.6, seed=5)
    b_train, b_test = random_split(ds, 0.6, seed=5)
    np.testing.assert_array_equal(a_train.X, b_train.X)
    np.testing.assert_array_equal(a_test.X, b_test.X)


def test_split_seed_changes_partition():
    ds = make_synthetic(50, 0, 4, 0.0, seed=3)
    a, _ = random_split(ds, 0.5, seed=1)
    b, _ = random_split(ds, 0.5, seed=2)
    assert not np.array_equal(a.X, b.X)


def test_split_fraction_bounds():
    ds = make_synthetic(10, 0, 3, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_split(ds, 0.0, seed=1)
    with pytest.raises(ValueError):
        random_split(ds, 1.5, seed=1)


@given(st.integers(0, 10_000), st.floats(0.2, 0.8), st.integers(5, 60),
       st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_split_counts(seed, frac, n_pos, n_neg):
    ds = make_synthetic(n_pos, n_neg, 3, 2.0, seed=seed % 100)
    train, test = random_split(ds, frac, seed)
    assert train.n + test.n == ds.n
    assert int((train.labels == 0).sum()) == 0
    assert int((test.labels == 0).sum()) == n_neg
    assert 1 <= int((train.labels == 1).sum()) < n_pos


def test_synthetic_shapes_and_determinism():
    a = make_synthetic(7, 5, 3, 4.0, seed=9)
    b = make_synthetic(7, 5, 3, 4.0, seed=9)
    assert a.n == 12 and a.d == 3
    assert int(a.labels.sum()) == 7
    np.testing.assert_array_equal(a.X, b.X)
    assert a.name == "synthetic-sep4-d3"


def test_synthetic_separation_moves_outlier_mean():
    ds = make_synthetic(2000, 2000, 6, 8.0, seed=4)
    gap = np.linalg.norm(ds.outliers().mean(axis=0) - ds.targets().mean(axis=0))
    assert 7.5 < gap < 8.5


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic(0, 5, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(5, 5, 3, -1.0, seed=0)

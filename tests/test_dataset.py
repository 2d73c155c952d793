import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
    # parsed, but not a finite real: the first such value is named
    p = _write(tmp_path / "f.csv", "label,x0,x1\n1,0.5,2.0\n0,inf,1.0\n1,0.5,nan\n")
    with pytest.raises(DataFormatError, match="non-finite value 'inf' at line 3, column 1"):
        load_csv(p, label_column=0)
    with pytest.raises(DataFormatError, match="non-finite value 'inf' at line 3, column 1"):
        load_features_csv(p)


def test_errors_name_the_file_line_past_blank_lines(tmp_path):
    # blank lines count: the short row below is on line 5, the third
    # non-empty row
    p = _write(tmp_path / "d.csv", "label,x\n\n1,2\n\n1\n")
    for read in (lambda p: load_csv(p, 0), load_features_csv):
        with pytest.raises(DataFormatError, match="ragged row at line 5$"):
            read(p)
    p = _write(tmp_path / "e.csv", "label,x\n\n1,0.5\n\n\n0.5,0.25\n")
    with pytest.raises(DataFormatError, match=r"invalid label '0.5' at line 6 "):
        load_csv(p, label_column=0)
    p = _write(tmp_path / "f.csv", "\n1,0.5,2.0\n\n0,nan,1.0\n")
    with pytest.raises(DataFormatError, match="non-finite value 'nan' at line 4, column 1"):
        load_features_csv(p)
    p = _write(tmp_path / "g.csv", "1,0.5\n\n\n1,abc\n")
    with pytest.raises(DataFormatError, match="non-numeric value 'abc' at line 4, column 1"):
        load_csv(p, label_column=0)


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


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _labeled_csv(draw):
    """A labeled CSV text written with ``repr`` and its label column.

    Draws whether there is a header (some of its names quoted, one with
    a comma and one spanning two lines), blank lines anywhere, CRLF line
    ends, double-quoted fields and a missing final line end.
    """
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    label_column = draw(st.integers(0, d))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = []
    for _ in range(n):
        row = [repr(draw(finite)) for _ in range(d)]
        row.insert(label_column, draw(st.sampled_from(["0", "1", "1.0", "-0.0", "1e0"])))
        rows.append(row)
    if draw(st.booleans()):
        rows.insert(0, [draw(st.sampled_from(["x", "label", '"a,b"', '"two\nlines"']))
                        for _ in range(d + 1)])
    quote = draw(st.booleans())
    lines = [",".join(f'"{tok}"' if quote and '"' not in tok and draw(st.booleans())
                      else tok for tok in row) for row in rows]
    blank = st.integers(0, 2)
    lines = [x for line in lines for x in [""] * draw(blank) + [line]] + [""] * draw(blank)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, label_column


@given(_labeled_csv())
@settings(max_examples=200, deadline=None)
def test_readers_match_the_token_oracle_bit_for_bit(tmp_path_factory, case):
    text, label_column = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    path = str(path)
    X, labels = oracles.load_csv(path, label_column)
    ds = load_csv(path, label_column)
    _same_bits(ds.X, X)
    _same_bits(ds.labels, labels)
    _same_bits(load_features_csv(path), oracles.parse_csv(path)[0])


@pytest.mark.parametrize("text", [
    "1,0.5,2.0\n1,1.5\n",                  # ragged
    "label,x\n\n1,2\n\n1\n",               # ragged, after blank lines
    "1,0.5\n1,abc\n",                      # non-numeric
    "label,x0,x1\n1,0.5,2.0\n\n1,1.5,\n",  # empty field
    *[f"label,x0,x1\n1,0.5,2.0\n\n0,{tok},1.0\n" for tok in ("nan", "NaN", "inf", "-inf")],
    '1,0.5\r\n\r\n0,"-inf"\r\n',           # quoted, CRLF
    "1,1e400\n",                           # overflows to inf
    "2,0.5\n1,0.25\n",                     # invalid label
    "label,x\n1,0.5\n\n0.5,0.25\n",        # invalid label, after a blank line
    "",                                    # empty file
    "\n\r\n\n",                            # blank lines only
    "label,x0\n",                          # header only
    "label,x0\n\n\r\n",                    # header and blank lines
    "1,2\n# note\n3,4\n",                  # no comment lines
    "1\n#2\n",
    "# a comment is a header\n1,0\n",
    "1,0.5\n \n",                          # a space is a field
])
def test_reader_errors_keep_the_oracle_messages(tmp_path, text):
    path = tmp_path / "d.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    path = str(path)
    for read, oracle in ((lambda p: load_csv(p, 0).X, lambda p: oracles.load_csv(p, 0)[0]),
                         (load_features_csv, lambda p: oracles.parse_csv(p)[0])):
        try:
            expected = oracle(path)
        except DataFormatError as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no loadtxt "no data" warning
                with pytest.raises(DataFormatError) as got:
                    read(path)
            assert str(got.value) == str(exc)
        else:
            _same_bits(read(path), expected)


def test_missing_file_keeps_the_oracle_message(tmp_path):
    path = str(tmp_path / "absent.csv")
    for read, oracle in ((lambda p: load_csv(p, 0), lambda p: oracles.load_csv(p, 0)),
                         (load_features_csv, oracles.parse_csv)):
        with pytest.raises(DataFormatError) as exc:
            oracle(path)
        with pytest.raises(DataFormatError) as got:
            read(path)
        assert str(got.value) == str(exc.value)


@pytest.mark.parametrize("token", ["2_0", "\uff12", "\u0662.5"])
def test_fields_only_python_float_reads_are_data_errors(tmp_path, token):
    # digit underscores and non-ASCII digits: Python's float reads them,
    # numpy's reader does not, and the loaders name the field numpy refused
    p = _write(tmp_path / "d.csv", f"1,0.5\n0,{token}\n")
    assert oracles.parse_csv(p)[0].shape == (2, 2)
    for read in (lambda p: load_csv(p, 0), load_features_csv):
        with pytest.raises(DataFormatError, match=repr(token)):
            read(p)


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


@pytest.mark.parametrize("labels", [[0.7, 1.9, 1.0], [1.0, np.nan, 0.0], [0, 1, -0.5],
                                    [1, 2, 0], ["0", "1", "1"], [None, 1, 0]])
def test_labels_are_checked_before_they_are_cast(labels):
    # a cast to integers first would read 0.7 as 0 and 1.9 as 1
    with pytest.raises(DataFormatError, match=r"^labels must lie in \{0, 1\}$"):
        Dataset(np.zeros((3, 2)), labels)
    assert Dataset(np.zeros((3, 2)), [1.0, 0.0, 1.0]).labels.tolist() == [1, 0, 1]


def test_bool_and_empty_labels_are_accepted():
    ds = Dataset(np.zeros((2, 2)), np.array([True, False]))
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]
    assert Dataset(np.zeros((0, 2)), np.array([])).labels.shape == (0,)


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
    for separation in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"separation must be finite and >= 0, "
                                             f"not {separation}"):
            make_synthetic(5, 5, 3, separation, seed=0)

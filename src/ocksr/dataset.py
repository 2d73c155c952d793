"""Labeled datasets for one-class experiments.

A dataset is a feature matrix plus a binary label vector where 1 marks a
target (inlier) row and 0 marks an outlier row.  Loading, per-row
normalization, seeded target/outlier splitting, and synthetic generation
all live here.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np


class DataFormatError(ValueError):
    """Raised when an input file or array does not satisfy the data contract."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix X (n, d) with labels in {0, 1} (1 = target)."""

    X: np.ndarray
    labels: np.ndarray
    name: str = field(default="dataset")

    def __post_init__(self) -> None:
        # views, so that freezing them leaves the caller's arrays writable
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64)).view()
        if X.ndim != 2:
            raise DataFormatError("feature matrix must be 2-dimensional")
        labels = np.asarray(self.labels, dtype=np.int64).view()
        if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
            raise DataFormatError("labels must be a vector with one entry per row")
        if not np.isfinite(X).all():
            raise DataFormatError("feature matrix contains non-finite entries")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataFormatError("labels must lie in {0, 1}")
        X.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def targets(self) -> np.ndarray:
        """Rows labeled 1."""
        return self.X[self.labels == 1]

    def outliers(self) -> np.ndarray:
        """Rows labeled 0."""
        return self.X[self.labels == 0]


def _parse_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _parse_csv(path: str) -> tuple[np.ndarray, list[list[str]], int]:
    """Parse a numeric CSV file with an optional header row.

    Returns the matrix, the data rows as read, and the line number of
    the first data row, so callers can point at the offending field.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except FileNotFoundError as exc:
        raise DataFormatError(f"no such file: {path}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no rows")
    start = 1 if any(_parse_float(tok) is None for tok in rows[0]) else 0
    if start == len(rows):
        raise DataFormatError(f"{path}: no rows after header")
    rows = rows[start:]
    width = len(rows[0])
    out = []
    for i, row in enumerate(rows, start=start + 1):
        if len(row) != width:
            raise DataFormatError(f"{path}: ragged row at line {i}")
        parsed = [_parse_float(tok) for tok in row]
        if None in parsed:
            j = parsed.index(None)
            raise DataFormatError(
                f"{path}: non-numeric value {row[j]!r} at line {i}, column {j}"
            )
        out.append(parsed)
    return np.array(out, dtype=np.float64).reshape(len(out), width), rows, start + 1


def load_csv(path: str, label_column: int, name: str | None = None) -> Dataset:
    """Load a labeled dataset from a CSV file.

    One optional header row is permitted and detected by a non-numeric
    field in the first row.  Every data row must have the same number of
    fields; the label column must parse to 0 or 1 and the remaining
    columns to finite reals.

    Args:
        path: CSV file path.
        label_column: 0-based index of the label column.
        name: dataset name; defaults to the file path.

    Raises:
        DataFormatError: empty file, ragged rows, non-numeric features,
            or labels outside {0, 1}.
    """
    M, rows, first_line = _parse_csv(path)
    width = M.shape[1]
    if not 0 <= label_column < width:
        raise DataFormatError(
            f"{path}: label column {label_column} out of range for {width} columns"
        )
    labels = M[:, label_column]
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        r = int(bad[0])
        raise DataFormatError(
            f"{path}: invalid label {rows[r][label_column]!r} at line "
            f"{first_line + r} (must be 0 or 1)"
        )
    return Dataset(np.delete(M, label_column, axis=1), labels.astype(np.int64),
                   name=name or path)


def load_features_csv(path: str) -> np.ndarray:
    """Load an unlabeled feature matrix from a CSV file (header optional)."""
    return _parse_csv(path)[0]


def write_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset as CSV with the label in column 0, full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"x{j}" for j in range(dataset.d)])
        for label, row in zip(dataset.labels, dataset.X):
            writer.writerow([int(label)] + [f"{v:.17g}" for v in row])


# Rows whose norm is already this close to 1 are left untouched, which makes
# normalization exactly idempotent.
_UNIT_TOL = 1e-12


def l2_normalize_rows(X) -> np.ndarray:
    """Row-wise unit-norm scaling of a feature matrix; zero rows are kept.

    Rows already within 1e-12 of unit norm are returned bit-identical,
    which makes the operation exactly idempotent.  All-zero rows are left
    unchanged and reported through a single warning carrying their count.
    """
    X = np.array(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0.0
    n_zero = int(zero.sum())
    if n_zero:
        warnings.warn(f"{n_zero} all-zero rows left unnormalized", stacklevel=3)
    rows = ~zero & (np.abs(norms - 1.0) > _UNIT_TOL)
    X[rows] = X[rows] / norms[rows, None]
    return X


def l2_normalize(dataset: Dataset) -> Dataset:
    """Dataset with each nonzero row scaled to unit Euclidean norm.

    Applying the function twice gives the same result as applying it
    once.
    """
    return Dataset(l2_normalize_rows(dataset.X), dataset.labels, name=dataset.name)


def random_split(
    dataset: Dataset,
    target_train_fraction: float,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Split into a train set of targets and a test set of the remainder.

    The requested fraction of target rows (seeded, without replacement)
    goes to train; every remaining target plus every outlier goes to
    test.

    Args:
        dataset: labeled dataset with at least 2 target rows.
        target_train_fraction: fraction in (0, 1] of targets for train.
        seed: RNG seed; equal seeds give identical splits.

    Returns:
        (train, test) datasets preserving original row order within each.
    """
    if not 0.0 < target_train_fraction <= 1.0:
        raise ValueError("target_train_fraction must lie in (0, 1]")
    target_idx = np.flatnonzero(dataset.labels == 1)
    if target_idx.size < 2:
        raise ValueError("need at least 2 target rows to split")

    rng = np.random.default_rng(seed)
    n_train = int(round(target_train_fraction * target_idx.size))
    n_train = min(max(n_train, 1), target_idx.size)
    chosen = rng.permutation(target_idx.size)[:n_train]

    in_train = np.zeros(dataset.n, dtype=bool)
    in_train[target_idx[chosen]] = True
    test_mask = ~in_train
    train = Dataset(dataset.X[in_train], dataset.labels[in_train],
                    name=f"{dataset.name}[train]")
    test = Dataset(dataset.X[test_mask], dataset.labels[test_mask],
                   name=f"{dataset.name}[test]")
    return train, test


def make_synthetic(
    n_pos: int, n_neg: int, d: int, separation: float, seed: int
) -> Dataset:
    """Generate a Gaussian target cloud plus a shifted Gaussian outlier cloud.

    Targets are drawn from a standard normal in d dimensions.  Outliers
    are drawn from an isotropic unit-variance normal whose mean has norm
    ``separation`` along a seeded random direction.  Identical arguments
    give bit-identical data.
    """
    if n_pos < 1 or n_neg < 0 or d < 1:
        raise ValueError("need n_pos >= 1, n_neg >= 0, d >= 1")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0 else np.eye(d)[0]
    pos = rng.standard_normal((n_pos, d))
    neg = separation * direction + rng.standard_normal((n_neg, d))
    X = np.vstack([pos, neg.reshape(n_neg, d)])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             np.zeros(n_neg, dtype=np.int64)])
    return Dataset(X, labels, name=f"synthetic-sep{separation:g}-d{d}")

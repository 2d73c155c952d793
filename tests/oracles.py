"""Reference computations the tests compare the library against.

pytest puts this directory on ``sys.path``, so test modules import it
as ``oracles``.  Nothing here is fast; each routine takes the plainest
route to its answer.  ``R_of``, ``packed_of`` and ``theta_of`` show the
tests a factor's storage, which the library itself never reads back.
``border_block`` and ``project`` are the one-array computations that
the library replaced by panels and probe chunks.
``parse_csv`` and ``load_csv`` are the token-by-token CSV reader the
library's numpy-backed one must agree with.  ``knndd_self_kth`` and
``knndd_score`` are the one-k-at-a-time k-NN fit and score that the
library's sweep replaced, and ``kmeans_fit`` and ``kmeans_score`` the
one-k-at-a-time k-means.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsm
from scipy.spatial.distance import cdist

from ocksr.cholesky import _unpack
from ocksr.dataset import DataFormatError
from ocksr.kernel import KernelSpec, _sq_dists, kernel_cross


def R_of(factor) -> np.ndarray:
    """A ``CholeskyFactor`` as a read-only dense upper-triangular matrix."""
    R = _unpack(factor)
    R.setflags(write=False)
    return R


def packed_of(factor) -> np.ndarray:
    """Read-only view of a ``CholeskyFactor``'s column-packed upper triangle."""
    view = factor._tail.buf[: factor.m * (factor.m + 1) // 2].view()
    view.setflags(write=False)
    return view


def theta_of(factor) -> np.ndarray:
    """Read-only view of a ``CholeskyFactor``'s theta = R^-T b."""
    view = factor._theta.buf[: factor.m].view()
    view.setflags(write=False)
    return view


def border_block(factor, K12) -> np.ndarray:
    """R12 = R^-T K12 for the (n, m) K12: one dtrsm against R unpacked."""
    return dtrsm(1.0, _unpack(factor), K12, lower=0, trans_a=1)


def project(model, Z) -> np.ndarray:
    """Projections of the probe rows Z: the whole cross kernel times alpha."""
    return kernel_cross(model.X_train, Z, model.spec) @ model.alpha


def project_train(model) -> np.ndarray:
    """Projections of the retained training rows under the trained model.

    Uses raw kernel values (no delta), so at delta = 0 this reproduces
    the response vector up to solver rounding.
    """
    return project(model, model.X_train)


def gram(X, spec: KernelSpec) -> np.ndarray:
    """K + delta I from explicit-difference squared distances (``cdist``)."""
    K = np.exp(cdist(X, X, "sqeuclidean") / (-2.0 * spec.sigma**2))
    np.fill_diagonal(K, 1.0 + spec.delta)
    return K


def fit_alpha(X, spec: KernelSpec, nu=None) -> np.ndarray:
    """alpha solving (K + delta I) alpha = nu (default all ones).

    The whole Gram matrix from ``gram`` above, factored by a copying
    Cholesky (scipy's ``cho_factor``), then two triangular solves.
    """
    X = np.asarray(X, dtype=np.float64)
    nu = np.ones(X.shape[0]) if nu is None else nu
    return cho_solve(cho_factor(gram(X, spec)), nu)


def knndd_self_kth(X, k: int) -> np.ndarray:
    """Each training row's distance to its own k-th nearest other row."""
    d = np.sqrt(_sq_dists(X, X))
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, k - 1]


def knndd_score(X, Z, k: int) -> np.ndarray:
    """k-NN distance ratio of each probe row of Z for one k: fit, then score.

    The k-th nearest training row j of a probe is found by a stable
    argsort of the probe's distances; its novelty is that distance over
    ``knndd_self_kth(X, k)[j]``, 0 for 0 / 0 and inf for positive / 0.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    self_kth = knndd_self_kth(X, k)
    dists = cdist(Z, X)
    rows = np.arange(dists.shape[0])
    j = np.argsort(dists, axis=1, kind="stable")[:, k - 1]
    num = dists[rows, j]
    den = self_kth[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(den == 0.0, np.where(num == 0.0, 0.0, np.inf), ratio)


@dataclass(frozen=True, eq=False)
class KMeansModel:
    centers: np.ndarray


def kmeans_fit(X_pos, k: int, seed: int) -> KMeansModel:
    """Lloyd's iterations from a seeded random-row initialization.

    Rows are put in canonical (lexicographic) order before the seeded
    draw.  Each iteration moves every center that kept a point to the
    mean of its cluster; a cluster that loses all points keeps its
    previous center.  Stops when the largest center movement drops below
    1e-8 or after 100 iterations.
    """
    X = np.asarray(X_pos, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    X = X[np.lexsort(X.T[::-1])]
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(100):
        assign = np.argmin(_sq_dists(X, centers), axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.shape[0]:
                new_centers[j] = members.mean(axis=0)
        movement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if movement < 1e-8:
            break
    return KMeansModel(centers=centers)


def kmeans_score(model: KMeansModel, Z) -> np.ndarray:
    """Distance from each probe row of Z to its nearest center."""
    return cdist(Z, model.centers).min(axis=1)


def _parse_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def parse_csv(path: str) -> tuple[np.ndarray, tuple[list[str], ...], tuple[int, ...]]:
    """A numeric CSV with an optional header row, one Python ``float`` per field.

    ``csv.reader`` splits the non-empty rows; the first is a header if
    any of its fields is not a number.  Every value must parse to a
    finite real.  Returns the matrix, the data rows as read, and each
    data row's line: the line of the file it ends on, blank lines
    counted (``csv.reader.line_num``).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            numbered = [(reader.line_num, row) for row in reader if row]
    except FileNotFoundError as exc:
        raise DataFormatError(f"no such file: {path}") from exc
    if not numbered:
        raise DataFormatError(f"{path}: no rows")
    start = 1 if any(_parse_float(tok) is None for tok in numbered[0][1]) else 0
    if start == len(numbered):
        raise DataFormatError(f"{path}: no rows after header")
    lines, rows = zip(*numbered[start:])
    width = len(rows[0])
    out = []
    for line, row in zip(lines, rows):
        if len(row) != width:
            raise DataFormatError(f"{path}: ragged row at line {line}")
        parsed = [_parse_float(tok) for tok in row]
        if None in parsed:
            j = parsed.index(None)
            raise DataFormatError(
                f"{path}: non-numeric value {row[j]!r} at line {line}, column {j}"
            )
        out.append(parsed)
    M = np.array(out, dtype=np.float64).reshape(len(out), width)
    finite = np.isfinite(M)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: non-finite value {rows[r][j]!r} at line {lines[r]}, column {j}"
        )
    return M, rows, lines


def load_csv(path: str, label_column: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, labels) of a labeled CSV through ``parse_csv``, labels in {0, 1}."""
    M, rows, lines = parse_csv(path)
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
            f"{lines[r]} (must be 0 or 1)"
        )
    return np.delete(M, label_column, axis=1), labels.astype(np.int64)

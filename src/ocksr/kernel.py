"""Gaussian kernel evaluation, Gram matrix construction and the bandwidth heuristic.

Every squared distance comes from one helper, ``_sq_dists``, as the
expansion ||a||^2 + ||b||^2 - 2 a.b on scipy's BLAS.  The self kernel
(``gram``, and the distances behind ``median_pairwise_distance``)
first shifts the rows by the first one, so an offset shared by every
row does not cancel in the expansion; ``gram`` takes a "median"
bandwidth from the same distances it turns into K.  The cross kernel
(``kernel_cross``, and the model's scoring and appends) works on the
rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth sigma plus the diagonal regularizer delta.

    sigma is a positive real, or "median": the median pairwise distance
    of the rows a Gram matrix is built from, which ``gram`` resolves.
    """

    sigma: float | str = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.sigma, str):
            if self.sigma != "median":
                raise ValueError('sigma must be a positive real or "median"')
        elif not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be a positive real")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be a nonnegative real")


def _real_sigma(spec: KernelSpec) -> float:
    """spec's sigma, or ValueError while it is still "median"."""
    if isinstance(spec.sigma, str):
        raise ValueError('sigma "median" has no value until a Gram matrix resolves it')
    return spec.sigma


def _as_matrix(X) -> np.ndarray:
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("expected a nonempty 2-d array of rows")
    return X


def _sq_dists(A: np.ndarray, B: np.ndarray | None = None,
              sa: np.ndarray | None = None,
              sb: np.ndarray | None = None) -> np.ndarray:
    """Squared distances ||a||^2 + ||b||^2 - 2 a.b between rows of A and B.

    Without B, between the rows of A, valid in the lower triangle only.
    sa and sb are the squared row norms, computed here when not given.
    The norm sums are written first, and scipy's BLAS subtracts 2 A B^T
    from them in place, so the result is the only array of its size.
    scipy's BLAS is the library that factors K next.  numpy and scipy
    each bundle an OpenBLAS with its own worker threads, which spin for
    a while after each call; a numpy product here would leave numpy's
    threads spinning on the cores that scipy's need for dpotrf.
    """
    if sa is None:
        sa = np.einsum("ij,ij->i", A, A)
    if B is None:
        sb = sa
    elif sb is None:
        sb = np.einsum("ij,ij->i", B, B)
    d2 = sa[:, None] + sb[None, :]
    if A.shape[1] == 0:
        # BLAS rejects an empty inner dimension; featureless rows coincide
        return d2
    # the transpose of a C-ordered d2 is Fortran-ordered, so BLAS updates
    # it in place (beta=1)
    if B is None:
        # dsyrk fills the upper triangle of d2^T, the lower one of d2
        dsyrk(-2.0, A.T, beta=1.0, c=d2.T, trans=1, overwrite_c=1)
    elif A.shape[0] == 1:
        # one row (a single probe): gemm costs ~3x gemv here (2000 rows
        # of 64 features: 91 vs 29 us on a 2-core x86-64 VM)
        dgemv(-2.0, B.T, A[0], beta=1.0, y=d2[0], trans=1, overwrite_y=1)
    elif B.shape[0] == 1:
        # the same for one row against A (an append)
        dgemv(-2.0, A.T, B[0], beta=1.0, y=d2[:, 0], trans=1, overwrite_y=1)
    else:
        dgemm(-2.0, B.T, A.T, beta=1.0, c=d2.T, trans_a=1, overwrite_c=1)
    # rounding can push tiny squared distances below 0
    np.maximum(d2, 0.0, out=d2)
    return d2


def _shifted_sq_dists(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances (lower triangle) and squared norms of X - X[0].

    An offset shared by every row cancels catastrophically in the
    expansion; rows shifted by the first one carry only their spread.
    """
    Y = X - X[0]
    s = np.einsum("ij,ij->i", Y, Y)
    return _sq_dists(Y, sa=s), s


def _lower_median(d2: np.ndarray, s: np.ndarray, d: int) -> float:
    """Median of the distances whose squares fill d2's strict lower triangle.

    s holds the squared norms the expansion summed, and d the rows'
    width.  1.0 when there are no pairs or the median is 0.
    """
    n = d2.shape[0]
    if n < 2:
        return 1.0
    # the triangle row by row, as one vector of the n (n - 1) / 2 pairs
    pairs = np.concatenate([d2[i, :i] for i in range(1, n)])
    # the expansion's rounding error is below 2 (d + 1) eps (||a||^2 +
    # ||b||^2): a value under that bound is a pair of coinciding rows.  A
    # screen on the largest norm leaves the exact test to the few near 0
    tol = 2.0 * (d + 1) * np.finfo(np.float64).eps
    near = np.flatnonzero(pairs <= tol * 2.0 * s.max())
    if near.size:
        starts = np.arange(n) * (np.arange(n) - 1) // 2  # row i's first pair
        i = np.searchsorted(starts, near, side="right") - 1
        j = near - starts[i]
        pairs[near[pairs[near] <= tol * (s[i] + s[j])]] = 0.0
    k = pairs.shape[0] // 2
    pairs.partition(k)
    med = np.sqrt(pairs[k])
    if pairs.shape[0] % 2 == 0:
        # the other middle rank is the largest of the lower half
        med = (np.sqrt(pairs[:k].max()) + med) / 2.0
    med = float(med)
    return med if med > 0.0 else 1.0


def _rbf(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel of squared distances d2, overwriting d2."""
    d2 /= -2.0 * sigma**2
    return np.exp(d2, out=d2)


def gram(X, spec: KernelSpec) -> tuple[np.ndarray, KernelSpec]:
    """K[i, j] = k(x_i, x_j) + delta * [i == j], and the spec it was built with.

    Only K's lower triangle holds the kernel, with a diagonal of exactly
    1 + delta; the entries above it are unspecified.  K is the one n x n
    array built: the distances of the rows shifted by the first one fill
    its lower triangle, a "median" sigma is resolved from that triangle
    (the returned spec carries the value), and the kernel is taken in
    place.  X is not checked for finiteness: callers pass rows already
    checked where they entered the library.
    """
    X = _as_matrix(X)
    d2, s = _shifted_sq_dists(X)
    if isinstance(spec.sigma, str):
        spec = replace(spec, sigma=_lower_median(d2, s, X.shape[1]))
    K = _rbf(d2, spec.sigma)
    np.fill_diagonal(K, 1.0 + spec.delta)
    return K, spec


def kernel_cross(X, Z, spec: KernelSpec) -> np.ndarray:
    """Kernel values between probe rows Z and training rows X, shape (len(Z), len(X)).

    No delta term: regularization is a property of the training system
    only.  spec's sigma must be a real.
    """
    X = _as_matrix(X)
    return _rbf(_sq_dists(_probes(X, Z), X), _real_sigma(spec))


def _probes(X: np.ndarray, Z) -> np.ndarray:
    """Z as a nonempty float64 matrix of rows as wide as X's, or ValueError."""
    Z = _as_matrix(Z)
    if Z.shape[1] != X.shape[1]:
        raise ValueError(f"dimension mismatch: {Z.shape[1]} vs {X.shape[1]}")
    return Z


def median_pairwise_distance(X) -> float:
    """Median Euclidean distance over all row pairs; 1.0 when degenerate.

    Deterministic bandwidth heuristic, the value of a "median" sigma.
    Falls back to 1.0 when there are no pairs (a single row) or the
    median is 0 (at least half the pairs coincide).

    The squared distances are the ones ``gram`` builds: the expansion
    ||a||^2 + ||b||^2 - 2 a.b over the rows shifted by the first one,
    in the lower triangle of one n x n array (one ``dsyrk``).  The
    triangle is copied into one vector of the n (n - 1) / 2 pairs, and
    values within the expansion's rounding of zero are set to 0.  The
    two middle ranks are found by partitioning that vector in place,
    and the median is the mean of their square roots: the median of the
    distances, as an explicit-difference ``pdist`` gives to rounding.
    """
    X = _as_matrix(X)
    return _lower_median(*_shifted_sq_dists(X), X.shape[1])

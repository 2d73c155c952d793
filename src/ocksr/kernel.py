"""Gaussian kernel evaluation and Gram matrix construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk
from scipy.spatial.distance import pdist


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth sigma plus the diagonal regularizer delta."""

    sigma: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be a positive real")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be a nonnegative real")


def _as_matrix(X) -> np.ndarray:
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("expected a nonempty 2-d array of rows")
    return X


def _two_products(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """2 A B^T from scipy's BLAS; 2 A A^T in its lower triangle without B.

    scipy's BLAS is the library that factors K next.  numpy and scipy
    each bundle an OpenBLAS with its own worker threads, which spin for a
    while after each call; a numpy product here would leave numpy's
    threads spinning on the cores that scipy's need for dpotrf.
    """
    if A.shape[1] == 0:
        # BLAS rejects an empty inner dimension; featureless rows coincide
        return np.zeros((A.shape[0], A.shape[0] if B is None else B.shape[0]))
    if B is None:
        # dsyrk fills the upper triangle of its Fortran-ordered result, so
        # the transpose holds the lower one
        return dsyrk(2.0, A.T, trans=1).T
    if A.shape[0] == 1:
        # one row (an append, a single probe): gemm costs ~3x gemv here
        # (2000 rows of 64 features: 91 vs 29 us on a 2-core x86-64 VM)
        return dgemv(2.0, B.T, A[0], trans=1)[None, :]
    return dgemm(2.0, B.T, A.T, trans_a=1).T


def _sq_dists(A: np.ndarray, B: np.ndarray | None = None,
              sa: np.ndarray | None = None,
              sb: np.ndarray | None = None) -> np.ndarray:
    """Squared distances ||a||^2 + ||b||^2 - 2 a.b between rows of A and B.

    Without B, between the rows of A, valid in the lower triangle only.
    sa and sb are the squared row norms, computed here when not given.
    """
    if sa is None:
        sa = np.einsum("ij,ij->i", A, A)
    if B is None:
        sb = sa
    elif sb is None:
        sb = np.einsum("ij,ij->i", B, B)
    d2 = sa[:, None] + sb[None, :]
    d2 -= _two_products(A, B)
    # rounding can push tiny squared distances below 0
    np.maximum(d2, 0.0, out=d2)
    return d2


def _rbf(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel of squared distances d2, overwriting d2."""
    d2 /= -2.0 * sigma**2
    return np.exp(d2, out=d2)


def gram(X, spec: KernelSpec) -> np.ndarray:
    """The regularized Gram matrix K[i, j] = k(x_i, x_j) + delta * [i == j].

    The result is exactly symmetric (the lower triangle is mirrored) and
    its diagonal is exactly 1 + delta.  X is not checked for finiteness:
    callers pass rows already checked where they entered the library.
    """
    X = _as_matrix(X)
    K = _rbf(_sq_dists(X), spec.sigma)
    lower = np.tril(K, -1)
    K = lower + lower.T
    np.fill_diagonal(K, 1.0 + spec.delta)
    return K


def kernel_cross(X, Z, spec: KernelSpec) -> np.ndarray:
    """Kernel values between probe rows Z and training rows X, shape (len(Z), len(X)).

    No delta term: regularization is a property of the training system only.
    """
    X = _as_matrix(X)
    Z = _as_matrix(Z)
    if Z.shape[1] != X.shape[1]:
        raise ValueError(f"dimension mismatch: {Z.shape[1]} vs {X.shape[1]}")
    return _rbf(_sq_dists(Z, X), spec.sigma)


def median_pairwise_distance(X) -> float:
    """Median Euclidean distance over all row pairs; 1.0 when degenerate.

    Deterministic bandwidth heuristic.  Falls back to 1.0 when there are
    no pairs (a single row) or all rows coincide.
    """
    X = _as_matrix(X)
    if X.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(X)))
    return med if med > 0.0 else 1.0


def _resolve_sigma(sigma: float | str, X) -> float:
    """sigma as a real: the literal "median" means ``median_pairwise_distance(X)``."""
    return median_pairwise_distance(X) if sigma == "median" else float(sigma)

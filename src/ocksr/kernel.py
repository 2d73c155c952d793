"""Gaussian kernel evaluation, Gram matrix construction and the bandwidth heuristic.

Every squared distance comes from one helper, ``_sq_dists``, as the
expansion ||a||^2 + ||b||^2 - 2 a.b on scipy's BLAS.  The self kernel
(``gram``, and the distances behind ``median_pairwise_distance``)
first shifts the rows by the first one, so an offset shared by every
row does not cancel in the expansion.  The cross kernel
(``kernel_cross``, and the model's scoring and appends) works on the
rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk


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


def _sq_dists(A: np.ndarray, B: np.ndarray | None = None,
              sa: np.ndarray | None = None,
              sb: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances ||a||^2 + ||b||^2 - 2 a.b between rows of A and B.

    Without B, between the rows of A, valid in the lower triangle only.
    sa and sb are the squared row norms, computed here when not given.
    The norm sums are written first, into ``out`` when given (C-ordered,
    of the result's shape), and scipy's BLAS subtracts 2 A B^T from them
    in place, so the result is the only array of its size.  scipy's BLAS
    is the library that factors K next.  numpy and scipy each bundle an
    OpenBLAS with its own worker threads, which spin for a while after
    each call; a numpy product here would leave numpy's threads spinning
    on the cores that scipy's need for dpotrf.
    """
    if sa is None:
        sa = np.einsum("ij,ij->i", A, A)
    if B is None:
        sb = sa
    elif sb is None:
        sb = np.einsum("ij,ij->i", B, B)
    d2 = np.add(sa[:, None], sb[None, :], out=out)
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


def _translated(X: np.ndarray) -> np.ndarray:
    """X shifted by its first row: the same distances, without the offset.

    An offset shared by every row cancels catastrophically in the
    expansion; shifted rows carry only their spread.
    """
    return X - X[0]


def _rbf(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel of squared distances d2, overwriting d2."""
    d2 /= -2.0 * sigma**2
    return np.exp(d2, out=d2)


# Side of the square tiles the mirror copies: a 64 x 64 tile (32 KB) and
# its transpose stay in cache.  At n = 3200 this took 27 ms, strips of
# 256 whole rows 46 ms (2-core x86-64 VM).
_MIRROR_TILE = 64


def _mirror_lower(K: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of the square K onto its upper one, in place."""
    n = K.shape[0]
    for i0 in range(0, n, _MIRROR_TILE):
        i1 = min(i0 + _MIRROR_TILE, n)
        for j0 in range(i1, n, _MIRROR_TILE):
            j1 = min(j0 + _MIRROR_TILE, n)
            K[i0:i1, j0:j1] = K[j0:j1, i0:i1].T
        tile = K[i0:i1, i0:i1]
        upper = np.triu_indices(i1 - i0, 1)
        tile[upper] = tile.T[upper]
    return K


def gram(X, spec: KernelSpec) -> np.ndarray:
    """The regularized Gram matrix K[i, j] = k(x_i, x_j) + delta * [i == j].

    The result is exactly symmetric and its diagonal is exactly
    1 + delta.  It is the one n x n array built: the distances of the
    rows shifted by the first one fill its lower triangle, the kernel is
    taken in place, and the triangle is mirrored up tile by tile.  X is
    not checked for finiteness: callers pass rows already checked where
    they entered the library.
    """
    X = _as_matrix(X)
    K = _mirror_lower(_rbf(_sq_dists(_translated(X)), spec.sigma))
    np.fill_diagonal(K, 1.0 + spec.delta)
    return K


def kernel_cross(X, Z, spec: KernelSpec) -> np.ndarray:
    """Kernel values between probe rows Z and training rows X, shape (len(Z), len(X)).

    No delta term: regularization is a property of the training system only.
    """
    X = _as_matrix(X)
    return _rbf(_sq_dists(_probes(X, Z), X), spec.sigma)


def _probes(X: np.ndarray, Z) -> np.ndarray:
    """Z as a nonempty float64 matrix of rows as wide as X's, or ValueError."""
    Z = _as_matrix(Z)
    if Z.shape[1] != X.shape[1]:
        raise ValueError(f"dimension mismatch: {Z.shape[1]} vs {X.shape[1]}")
    return Z


# Pairs per row block of the median's distance vector (4 MB of float64):
# blocks this large keep the products on Level-3 BLAS at d = 1024, and
# the zero test's scratch stays a block.
_PAIR_BLOCK = 1 << 19


def _zero_coincident(d2: np.ndarray, sa: np.ndarray, sb: np.ndarray,
                     tol: float) -> np.ndarray:
    """Set to 0, in place, each d2[i, j] <= tol (sa[i] + sb[j]).

    A screen against the largest norms skips the exact test (and its
    block-sized scratch) when nothing is that close to zero.
    """
    if d2.min() <= tol * (sa.max() + sb.max()):
        d2[d2 <= tol * (sa[:, None] + sb[None, :])] = 0.0
    return d2


def median_pairwise_distance(X) -> float:
    """Median Euclidean distance over all row pairs; 1.0 when degenerate.

    Deterministic bandwidth heuristic.  Falls back to 1.0 when there are
    no pairs (a single row) or the median is 0 (at least half the pairs
    coincide).

    The squared distances come from the expansion ||a||^2 + ||b||^2 -
    2 a.b over the rows shifted by the first one, a row block at a time
    on Level-3 BLAS, written straight into one vector of the n (n - 1) / 2
    pairs.  Values within the expansion's rounding of zero are set to 0.
    The two middle ranks are found by partitioning that vector in place,
    and the median is the mean of their square roots: the median of the
    distances, as an explicit-difference ``pdist`` gives to rounding.
    """
    X = _as_matrix(X)
    n, d = X.shape
    if n < 2:
        return 1.0
    Y = _translated(X)
    s = np.einsum("ij,ij->i", Y, Y)
    # the expansion's rounding error is below 2 (d + 1) eps (||a||^2 +
    # ||b||^2): a value under that bound is a pair of coinciding rows
    tol = 2.0 * (d + 1) * np.finfo(np.float64).eps
    pairs = np.empty(n * (n - 1) // 2)
    pos, i0 = 0, 1
    while i0 < n:
        # rows i0:i1 pair with the rows before them (a rectangle) and with
        # each other (the strict lower triangle of a square)
        i1 = min(n, i0 + min(i0, max(1, _PAIR_BLOCK // i0)))
        rows, sr = Y[i0:i1], s[i0:i1]
        b = i1 - i0
        rect = pairs[pos:pos + b * i0].reshape(b, i0)
        _zero_coincident(_sq_dists(rows, Y[:i0], sr, s[:i0], out=rect),
                         sr, s[:i0], tol)
        pos += b * i0
        if b > 1:
            square = _zero_coincident(_sq_dists(rows, sa=sr), sr, sr, tol)
            pairs[pos:pos + b * (b - 1) // 2] = square[np.tri(b, k=-1, dtype=bool)]
            pos += b * (b - 1) // 2
        i0 = i1
    k = pairs.shape[0] // 2
    pairs.partition(k)
    med = np.sqrt(pairs[k])
    if pairs.shape[0] % 2 == 0:
        # the other middle rank is the largest of the lower half
        med = (np.sqrt(pairs[:k].max()) + med) / 2.0
    med = float(med)
    return med if med > 0.0 else 1.0


def _resolve_sigma(sigma: float | str, X) -> float:
    """sigma as a real: the literal "median" means ``median_pairwise_distance(X)``."""
    return median_pairwise_distance(X) if sigma == "median" else float(sigma)

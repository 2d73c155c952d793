"""Reference novelty scorers: k-means distance, k-NN distance ratio, kernel PCA.

Each scorer maps a matrix of probe rows to nonnegative novelty scores,
one per row, where larger means more anomalous, so all of them plug
into the same AUC evaluation as the kernel regression model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .kernel import KernelSpec, _sq_dists, gram, kernel_cross

_KMEANS_TOL = 1e-8
_KMEANS_MAX_ITER = 100
# Default KPCA component count: the smallest q whose leading eigenvalues
# capture this share of the centered spectrum.
_KPCA_MASS = 0.95


class EigenSolverDidNotConverge(RuntimeError):
    """The dense eigensolver failed on the centered Gram matrix."""


# ---------------------------------------------------------------------------
# k-means


@dataclass(frozen=True)
class KMeansModel:
    method = "kmeans"
    centers: np.ndarray


def kmeans_fit(X_pos, k: int, seed: int) -> KMeansModel:
    """Lloyd's iterations from a seeded random-row initialization.

    Rows are put in canonical (lexicographic) order before the seeded
    draw, so the fit depends on the row set and the seed, not on the
    order rows arrive in.  Stops when the largest center movement drops
    below 1e-8 or after 100 iterations.  A cluster that loses all points
    keeps its previous center.

    Args:
        X_pos: training rows.
        k: number of centers, 1 <= k <= n.
        seed: RNG seed for choosing the initial rows.
    """
    X = np.asarray(X_pos, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    X = X[np.lexsort(X.T[::-1])]
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(_KMEANS_MAX_ITER):
        d2 = _sq_dists(X, centers)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.shape[0]:
                new_centers[j] = members.mean(axis=0)
        movement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if movement < _KMEANS_TOL:
            break
    return KMeansModel(centers=centers)


def kmeans_score(model: KMeansModel, Z) -> np.ndarray:
    """Distance from each probe row of Z to its nearest center."""
    return cdist(Z, model.centers).min(axis=1)


# ---------------------------------------------------------------------------
# k-nearest-neighbor distance ratio


@dataclass(frozen=True)
class KnnddModel:
    method = "knndd"
    X: np.ndarray
    k: int
    self_kth: np.ndarray  # per-row distance to its own k-th nearest other row


def _kth_nn_within(X: np.ndarray, k: int) -> np.ndarray:
    d = np.sqrt(_sq_dists(X, X))
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, k - 1]


def knndd_fit(X_pos, k: int) -> KnnddModel:
    """Retain the training rows and each row's own k-th neighbor distance."""
    X = np.asarray(X_pos, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    return KnnddModel(X=X, k=k, self_kth=_kth_nn_within(X, k))


def knndd_score(model: KnnddModel, Z) -> np.ndarray:
    """Ratio of each probe's k-th neighbor distance to that neighbor's own.

    For each probe row of Z, the numerator is the distance to its k-th
    nearest training row (ties resolve to the earlier row); the
    denominator is the distance from that row to its own k-th nearest
    training row (itself excluded).  A probe inside the training cloud
    scores near 1, a probe on a training row scores 0.  A zero
    denominator gives 0 for a zero numerator and inf otherwise.
    """
    dists = cdist(Z, model.X)
    rows = np.arange(dists.shape[0])
    j = np.argsort(dists, axis=1, kind="stable")[:, model.k - 1]
    num = dists[rows, j]
    den = model.self_kth[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(den == 0.0, np.where(num == 0.0, 0.0, np.inf), ratio)


# ---------------------------------------------------------------------------
# kernel PCA reconstruction residual


@dataclass(frozen=True)
class KpcaModel:
    method = "kpca"
    X: np.ndarray
    spec: KernelSpec
    coeffs: np.ndarray       # (n, q), eigenvector l scaled by 1/sqrt(lambda_l)
    eigenvalues: np.ndarray  # (q,), descending
    row_mean: np.ndarray     # per-row mean of the uncentered Gram matrix
    total_mean: float


def _centered_gram(X: np.ndarray, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray, float]:
    K = gram(X, replace(spec, delta=0.0)).K
    row_mean = K.mean(axis=1)
    total_mean = float(K.mean())
    Kc = K - row_mean[:, None] - row_mean[None, :] + total_mean
    return Kc, row_mean, total_mean


def kpca_fit(X_pos, spec: KernelSpec, q: int | None = None) -> KpcaModel:
    """Principal subspace of the centered Gram matrix.

    Factors the centered Gram matrix with one dense symmetric
    eigendecomposition and stores the top-q eigenvectors scaled by
    inverse root eigenvalue, so probe projections come from centered
    kernel evaluations alone.

    Args:
        X_pos: training rows.
        spec: kernel configuration (delta is ignored: centering applies
            to the raw kernel matrix).
        q: number of components, 1 <= q <= n - 1.  None picks the
            smallest q whose leading eigenvalues capture 95 percent of
            the centered spectrum.

    Raises:
        EigenSolverDidNotConverge: the eigendecomposition failed.
    """
    X = np.asarray(X_pos, dtype=np.float64)
    n = X.shape[0]
    Kc, row_mean, total_mean = _centered_gram(X, spec)
    try:
        eig, vectors = np.linalg.eigh(Kc)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverDidNotConverge(f"eigendecomposition failed: {exc}") from exc
    eig, vectors = eig[::-1], vectors[:, ::-1]
    if q is None:
        spectrum = np.clip(eig, 0.0, None)
        total = float(spectrum.sum())
        q = 1
        if total > 0.0:
            q = int(np.searchsorted(np.cumsum(spectrum) / total, _KPCA_MASS) + 1)
        q = min(q, n - 1)
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must lie in [1, {n - 1}], got {q}")
    eigenvalues = eig[:q]
    floor = max(float(eigenvalues[0]), 1.0) * np.finfo(float).eps
    lam = np.clip(eigenvalues, floor, None)
    coeffs = vectors[:, :q] / np.sqrt(lam)[None, :]
    return KpcaModel(X=X, spec=replace(spec, delta=0.0), coeffs=coeffs,
                     eigenvalues=eigenvalues, row_mean=row_mean,
                     total_mean=total_mean)


def kpca_score(model: KpcaModel, Z) -> np.ndarray:
    """Feature-space reconstruction residual of each probe row of Z, clamped at 0.

    The squared distance between the centered feature image of a probe
    and its projection onto the stored principal subspace, computed
    purely from kernel evaluations.
    """
    KZ = kernel_cross(model.X, Z, model.spec)
    kz_mean = KZ.mean(axis=1)
    centered = KZ - kz_mean[:, None] - model.row_mean[None, :] + model.total_mean
    self_centered = 1.0 - 2.0 * kz_mean + model.total_mean
    F = centered @ model.coeffs
    return np.maximum(self_centered - np.einsum("ij,ij->i", F, F), 0.0)

"""Reference novelty scorers: k-means distance, k-NN distance ratio, kernel PCA.

Each scorer maps a matrix of probe rows to nonnegative novelty scores,
one per row, where larger means more anomalous, so all of them plug
into the same AUC evaluation as the kernel regression model.  The
k-means and k-NN scorers each take a whole sweep of center or neighbor
counts at once and return one row of scores per k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


def _lloyd(X: np.ndarray, sa: np.ndarray, ks: list[int]) -> list[np.ndarray]:
    """Centers of Lloyd's iterations on X (norms sa), one array per k of ks.

    Each k starts from k rows drawn with seed 0 and stops on its own
    test.  The ks iterate side by side, their centers stacked one block
    per k, so the center norms, the copy and the stopping test serve
    every k at once; each k's distances and sums stay its own, because
    one product over all the blocks would round differently.
    """
    n, d = X.shape
    starts = np.cumsum([0, *ks])[:-1]
    rng = np.random.default_rng(0)
    seed = rng.bit_generator.state
    centers = np.empty((sum(ks), d))
    for a, k in zip(starts, ks):
        rng.bit_generator.state = seed
        centers[a:a + k] = X[rng.choice(n, size=k, replace=False)]
    live = list(zip(starts, ks))  # the first center and k of each k still running
    for _ in range(_KMEANS_MAX_ITER):
        if not live:
            break
        sb = np.einsum("ij,ij->i", centers, centers)
        new_centers = centers.copy()
        for a, k in live:
            assign = np.argmin(_sq_dists(X, centers[a:a + k], sa, sb[a:a + k]), axis=1)
            counts = np.bincount(assign, minlength=k)
            if d == 1:
                # numpy sums one contiguous column pairwise, which bincount would not
                for j in np.flatnonzero(counts):
                    new_centers[a + j] = X[assign == j].mean(axis=0)
            else:
                # bincount adds each cluster's rows in order, as their mean does
                # (cluster j's column c sums in bin j d + c)
                sums = np.bincount((assign[:, None] * d + np.arange(d)).ravel(), X.ravel(),
                                   minlength=k * d).reshape(k, d)
                np.divide(sums, counts[:, None], out=new_centers[a:a + k],
                          where=counts[:, None] > 0)
        # a stopped k moves 0 and stays stopped; a NaN movement keeps its k running
        movement = np.maximum.reduceat(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)), starts)
        live = [(a, k) for a, k, m in zip(starts, ks, movement) if not m < _KMEANS_TOL]
        centers = new_centers
    return [centers[a:a + k] for a, k in zip(starts, ks)]


def kmeans_novelty(X_pos, Z, ks) -> np.ndarray:
    """Distance from each probe row of Z to its nearest k-means center, per k.

    For each k in ``ks`` (each 1 <= k <= n, in any order), Lloyd's
    iterations start from k rows drawn with seed 0 from the rows in
    canonical (lexicographic) order, so the centers depend on the row
    set, not its order.  They stop once every center moves less than
    1e-8, or after 100; a cluster that loses all points keeps its center.
    One sort and one distance pass serve the whole sweep, and the
    distinct ks iterate side by side in one loop, each leaving it on its
    own test with the same centers as a run of its own.

    Returns:
        An array of shape (len(ks), len(Z)), one row per k.
    """
    from scipy.spatial.distance import cdist  # here, so importing ocksr skips it

    X = np.asarray(X_pos, dtype=np.float64)
    ks = [int(k) for k in ks]
    bad = [k for k in ks if not 1 <= k <= X.shape[0]]
    if bad:
        raise ValueError(f"k must lie in [1, {X.shape[0]}], got {bad[0]}")
    X = X[np.lexsort(X.T[::-1])]
    sa = np.einsum("ij,ij->i", X, X)
    distinct = list(dict.fromkeys(ks))
    fitted = dict(zip(distinct, _lloyd(X, sa, distinct)))
    dists = cdist(Z, np.vstack([X[:0], *(fitted[k] for k in ks)]))
    # X[:0] stacks an empty sweep too; each k's columns follow the previous k's
    return np.minimum.reduceat(dists, np.cumsum([0, *ks])[:-1], axis=1).T


# ---------------------------------------------------------------------------
# k-nearest-neighbor distance ratio


def knndd_novelty(X_pos, Z, ks) -> np.ndarray:
    """Ratio of each probe's k-th neighbor distance to that neighbor's own, per k.

    For each k in ``ks`` and each probe row of Z, the numerator is the
    distance to its k-th nearest training row (ties resolve to the
    earlier row); the denominator is the distance from that row to its
    own k-th nearest training row (itself excluded).  A probe inside the
    training cloud scores near 1, a probe on a training row scores 0.  A
    zero denominator gives 0 for a zero numerator and inf otherwise.

    The training distances are sorted once and the probe distances
    argsorted once, so a whole sweep costs one fit.

    Args:
        X_pos: training rows.
        Z: probe rows.
        ks: neighbor counts, each 1 <= k <= n - 1, in any order.

    Returns:
        An array of shape (len(ks), len(Z)), one row per k.
    """
    from scipy.spatial.distance import cdist  # here, so importing ocksr skips it

    X = np.asarray(X_pos, dtype=np.float64)
    n = X.shape[0]
    ks = [int(k) for k in ks]
    bad = [k for k in ks if not 1 <= k <= n - 1]
    if bad:
        raise ValueError(f"k must lie in [1, {n - 1}], got {bad[0]}")
    cols = np.array(ks, dtype=np.intp) - 1
    d = np.sqrt(_sq_dists(X, X))
    np.fill_diagonal(d, np.inf)
    self_sorted = np.sort(d, axis=1)  # column k - 1: each row's k-th neighbor
    dists = cdist(Z, X)
    j = np.argsort(dists, axis=1, kind="stable")[:, cols]
    num = np.take_along_axis(dists, j, axis=1)
    den = self_sorted[j, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(den == 0.0, np.where(num == 0.0, 0.0, np.inf), ratio).T


# ---------------------------------------------------------------------------
# kernel PCA reconstruction residual


@dataclass(frozen=True, eq=False)
class KpcaModel:
    X: np.ndarray
    spec: KernelSpec
    coeffs: np.ndarray       # (n, q), eigenvector l scaled by 1/sqrt(lambda_l)
    eigenvalues: np.ndarray  # (q,), descending
    row_mean: np.ndarray     # per-row mean of the uncentered Gram matrix
    total_mean: float


def _centered_gram(X: np.ndarray, spec: KernelSpec
                   ) -> tuple[np.ndarray, np.ndarray, float, KernelSpec]:
    """Centered K, its uncentered row and total means, and its spec (delta 0)."""
    K, spec = gram(X, replace(spec, delta=0.0))
    # gram fills the lower triangle; the means need the whole matrix
    upper = np.triu_indices(K.shape[0], 1)
    K[upper] = K.T[upper]
    row_mean = K.mean(axis=1)
    total_mean = float(K.mean())
    Kc = K - row_mean[:, None] - row_mean[None, :] + total_mean
    return Kc, row_mean, total_mean, spec


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
    Kc, row_mean, total_mean, spec = _centered_gram(X, spec)
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
    return KpcaModel(X=X, spec=spec, coeffs=coeffs,
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

"""Correctness checks for the benchmark, independent of the ocksr code.

Every check recomputes a library output with numpy/scipy alone, or
tests a property the method guarantees, and raises ``CheckFailed`` on
disagreement.  Nothing here imports ocksr: the kernel, the bandwidth,
the leave-one-out novelties, the ranks and the model file reader are
all re-derived from the documented definitions.

Tolerances are relative to the size of the terms summed, so they hold
at every problem size the workloads use: a backward-stable Cholesky
solve leaves residuals near n * eps * sum_j |k_ij alpha_j|, far below
the 1e-9 allowed.
"""

from __future__ import annotations

import csv
import struct

import numpy as np
from scipy.stats import chi2 as chi2_dist

# The library's documented regularizer ladder and relative pivot floor:
# a requested delta that leaves a pivot at or below PIVOT_EPS times the
# matrix infinity norm is raised to the next rung.
DELTA_LADDER = (1e-8, 1e-6)
PIVOT_EPS = 1e-12
RESIDUAL_TOL = 1e-9

OCKSR1_HEAD = struct.Struct("<6sBBddQQQ")
OCKSR1_MAGIC = b"OCKSR1"


class CheckFailed(AssertionError):
    """A library output disagrees with its independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# kernel and bandwidth


def kernel_rows(X: np.ndarray, Z: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-|z - x|^2 / (2 sigma^2)) from explicit differences, one probe at a time."""
    out = np.empty((Z.shape[0], X.shape[0]))
    for i, z in enumerate(Z):
        diff = X - z
        out[i] = np.exp(np.einsum("ij,ij->i", diff, diff) / (-2.0 * sigma**2))
    return out


def kernel_matrix(X: np.ndarray, sigma: float) -> np.ndarray:
    """Full kernel matrix through the Gram expansion, diagonal exactly 1."""
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(d2 / (-2.0 * sigma**2))
    K = (K + K.T) / 2.0
    np.fill_diagonal(K, 1.0)
    return K


def median_distance(X: np.ndarray, block: int = 256) -> float:
    """Median pairwise Euclidean distance via the Gram expansion, in row blocks."""
    n = X.shape[0]
    if n < 2:
        return 1.0
    sq = np.einsum("ij,ij->i", X, X)
    vals = np.empty(n * (n - 1) // 2)
    pos = 0
    for lo in range(0, n - 1, block):
        hi = min(lo + block, n - 1)
        d2 = sq[lo:hi, None] + sq[None, lo + 1:] - 2.0 * (X[lo:hi] @ X[lo + 1:].T)
        for r in range(hi - lo):
            row = d2[r, r:]
            vals[pos: pos + row.size] = row
            pos += row.size
    np.maximum(vals, 0.0, out=vals)
    med = float(np.median(np.sqrt(vals, out=vals)))
    return med if med > 0.0 else 1.0


def check_sigma(X: np.ndarray, sigma: float) -> None:
    ref = median_distance(X)
    _require(abs(sigma - ref) <= 1e-9 * ref,
             f"bandwidth {sigma!r} differs from recomputed median distance {ref!r}")


# ---------------------------------------------------------------------------
# the trained system and its scores


def check_training_residual(X: np.ndarray, alpha: np.ndarray, sigma: float,
                            delta: float, rows: np.ndarray) -> float:
    """k_i^T alpha + delta * alpha_i = 1 on the sampled training rows.

    This is row i of (K + delta I) alpha = nu with nu = 1, i.e. the
    training projection of a target hits 1 up to the ridge term.
    Returns the largest scaled residual.
    """
    _require(alpha.shape == (X.shape[0],), "alpha has the wrong length")
    _require(bool(np.isfinite(alpha).all()), "alpha has non-finite entries")
    K = kernel_rows(X, X[rows], sigma)
    terms = K * alpha[None, :]
    resid = terms.sum(axis=1) + delta * alpha[rows] - 1.0
    scale = np.abs(terms).sum(axis=1) + delta * np.abs(alpha[rows]) + 1.0
    worst = float((np.abs(resid) / scale).max())
    _require(worst <= RESIDUAL_TOL,
             f"training residual {worst:.3g} exceeds {RESIDUAL_TOL:g} "
             f"(rows {rows[:4].tolist()}...)")
    return worst


def check_novelties(X: np.ndarray, alpha: np.ndarray, sigma: float, Z: np.ndarray,
                    projections: np.ndarray, novelties: np.ndarray,
                    rows: np.ndarray, print_rtol: float = 0.0) -> None:
    """Novelty = |k(z)^T alpha - 1| for every probe; sampled probes recomputed.

    ``print_rtol`` allows for values that went through a text file.
    """
    _require(projections.shape == novelties.shape == (Z.shape[0],),
             "one projection and novelty per probe expected")
    gap = np.abs(novelties - np.abs(projections - 1.0))
    allowed = 2.0 * print_rtol * (np.abs(projections) + 1.0) + 1e-15
    _require(bool((gap <= allowed).all()),
             f"novelty != |projection - 1| at probe {int(np.argmax(gap - allowed))}")
    K = kernel_rows(X, Z[rows], sigma)
    terms = K * alpha[None, :]
    ref = terms.sum(axis=1)
    scale = np.abs(terms).sum(axis=1) + 1.0
    err = np.abs(projections[rows] - ref) / scale
    worst = float(err.max())
    _require(worst <= RESIDUAL_TOL + 2.0 * print_rtol,
             f"projection of probe {int(rows[np.argmax(err)])} off by {worst:.3g}")
    nov_err = np.abs(novelties[rows] - np.abs(ref - 1.0)) / scale
    _require(float(nov_err.max()) <= RESIDUAL_TOL + 2.0 * print_rtol,
             f"novelty of probe {int(rows[np.argmax(nov_err)])} off by "
             f"{float(nov_err.max()):.3g}")


def check_same_alpha(alpha: np.ndarray, ref: np.ndarray, what: str) -> None:
    """Two coefficient vectors agree to 1e-8 of the largest coefficient."""
    _require(alpha.shape == ref.shape, f"{what}: lengths differ")
    err = float(np.abs(alpha - ref).max())
    _require(err <= 1e-8 * float(np.abs(ref).max()),
             f"{what}: max |alpha diff| {err:.3g} vs max |alpha| "
             f"{float(np.abs(ref).max()):.3g}")


def direct_alpha(X: np.ndarray, sigma: float, delta: float) -> np.ndarray:
    """alpha from a dense solve of (K + delta I) alpha = 1."""
    K = kernel_matrix(X, sigma)
    K[np.diag_indices_from(K)] += delta
    return np.linalg.solve(K, np.ones(X.shape[0]))


# ---------------------------------------------------------------------------
# leave-one-out threshold


def ladder_rungs(H0: np.ndarray, requested: float) -> list[float]:
    """The deltas the documented ladder may settle on for kernel matrix H0.

    One entry when the pivot test is clear-cut; two when the smallest
    pivot lies within a factor 100 of the floor, since a different
    Cholesky build may round to either side of it.
    """
    rungs = [requested] + [d for d in DELTA_LADDER if d > requested]
    n = H0.shape[0]
    for k, delta in enumerate(rungs):
        H = H0 + delta * np.eye(n)
        floor = PIVOT_EPS * float(np.abs(H).sum(axis=1).max())
        try:
            ratio = float((np.diag(np.linalg.cholesky(H)) ** 2).min()) / floor
        except np.linalg.LinAlgError:
            ratio = 0.0
        if ratio > 100.0 or (ratio > 0.01 and k == len(rungs) - 1):
            return [delta]
        if ratio > 0.01:
            return [delta, rungs[k + 1]]
    raise CheckFailed("no rung of the delta ladder gives a positive definite system")


def loo_novelty_bounds(X: np.ndarray, sigma: float, delta: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper leave-one-out novelty per row.

    With H = K + delta I and alpha = H^-1 1, the held-out residual of row
    i is alpha_i / [H^-1]_ii (Allen's PRESS identity), so its novelty is
    |alpha_i| / [H^-1]_ii.  That holds while fold i settles on the same
    delta as the full set; a fold the ladder escalates differently is
    solved by brute force at its own delta.  The two bounds differ only
    on folds whose pivot test is too close to call.
    """
    n = X.shape[0]
    K = kernel_matrix(X, sigma)
    full_delta = ladder_rungs(K, delta)[0]
    Hinv = np.linalg.inv(K + full_delta * np.eye(n))
    press = np.abs(Hinv.sum(axis=1)) / np.diag(Hinv)
    lo, hi = press.copy(), press.copy()
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        keep[i] = False
        Ki = K[np.ix_(keep, keep)]
        values = []
        for d in ladder_rungs(Ki, delta):
            if d == full_delta:
                values.append(press[i])
            else:
                a = np.linalg.solve(Ki + d * np.eye(n - 1), np.ones(n - 1))
                values.append(abs(float(K[i, keep] @ a) - 1.0))
        lo[i], hi[i] = min(values), max(values)
        keep[i] = True
    return lo, hi


def check_tau(tau: float, X: np.ndarray, sigma: float, delta: float,
              rejection: float) -> None:
    """tau is the (1 - rejection) linear-interpolation quantile of LOO novelties."""
    lo, hi = loo_novelty_bounds(X, sigma, delta)
    q = 1.0 - rejection
    t_lo, t_hi = float(np.quantile(lo, q)), float(np.quantile(hi, q))
    tol = 1e-6 * max(abs(t_hi), 1e-12)
    _require(t_lo - tol <= tau <= t_hi + tol,
             f"tau {tau!r} outside the recomputed LOO quantile [{t_lo!r}, {t_hi!r}]")


# ---------------------------------------------------------------------------
# AUC and Friedman ranks


def pair_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (outlier, target) pairs with the outlier scored higher, ties 1/2."""
    out = scores[labels == 0][:, None]
    tar = scores[labels == 1][None, :]
    wins = float((out > tar).sum()) + 0.5 * float((out == tar).sum())
    return wins / (out.size * tar.size)


def seeded_split(labels: np.ndarray, fraction: float, seed: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Train/test row masks of the documented seeded split: a seeded
    permutation picks the training targets; everything else is test."""
    targets = np.flatnonzero(labels == 1)
    n_train = min(max(int(round(fraction * targets.size)), 1), targets.size)
    chosen = np.random.default_rng(seed).permutation(targets.size)[:n_train]
    train = np.zeros(labels.size, dtype=bool)
    train[targets[np.sort(chosen)]] = True
    return train, ~train


def check_ocksr_cell(X: np.ndarray, labels: np.ndarray, aucs, base_seed: int,
                     fraction: float = 0.5) -> None:
    """Each repeat's AUC from a dense solve at the median bandwidth and pair counting.

    One score pair may flip on rounding, so AUCs agree to one pair.
    """
    aucs = np.asarray(aucs, dtype=np.float64)
    for r, got in enumerate(aucs):
        train, test = seeded_split(labels, fraction, base_seed + r)
        Xt = X[train]
        sigma = median_distance(Xt)
        K = kernel_matrix(Xt, sigma)
        Kz = kernel_rows(Xt, X[test], sigma)
        pairs = int((labels[test] == 0).sum()) * int((labels[test] == 1).sum())
        refs = []
        for delta in ladder_rungs(K, 0.0):
            alpha = np.linalg.solve(K + delta * np.eye(K.shape[0]), np.ones(K.shape[0]))
            refs.append(pair_auc(np.abs(Kz @ alpha - 1.0), labels[test]))
        _require(min(abs(got - ref) for ref in refs) <= 1.0 / pairs + 1e-12,
                 f"repeat {r}: AUC {got!r} vs pair-counted {refs}")


def average_ranks_of(row: np.ndarray) -> np.ndarray:
    """Rank 1 for the highest value, tied values share their mean rank."""
    greater = (row[None, :] > row[:, None]).sum(axis=1)
    equal = (row[None, :] == row[:, None]).sum(axis=1)
    return 1.0 + greater + (equal - 1) / 2.0


def check_friedman(means: np.ndarray, per_dataset: np.ndarray,
                   average: np.ndarray, chi_square: float, p_value: float) -> None:
    """Ranks, their sum, the chi-square statistic and its p-value.

    ``means`` and ``per_dataset`` are (datasets, methods) tables.
    """
    N, M = means.shape
    ref = np.vstack([average_ranks_of(row) for row in means])
    _require(bool(np.array_equal(per_dataset, ref)),
             f"per-dataset ranks {per_dataset.tolist()} != {ref.tolist()}")
    _require(bool(np.allclose(average, per_dataset.mean(axis=0), rtol=0, atol=1e-12)),
             "average ranks are not the mean of the per-dataset ranks")
    _require(abs(float(average.sum()) - M * (M + 1) / 2.0) <= 1e-9,
             f"average ranks sum to {float(average.sum())}, not {M * (M + 1) / 2}")
    R = per_dataset.mean(axis=0)
    chi2 = 12.0 * N / (M * (M + 1)) * float((R**2).sum()) - 3.0 * N * (M + 1)
    _require(abs(chi_square - chi2) <= 1e-9 * max(1.0, abs(chi2)),
             f"chi-square {chi_square!r} vs recomputed {chi2!r}")
    p = float(chi2_dist.sf(chi2, M - 1))
    _require(abs(p_value - p) <= 1e-9 * p + 1e-15,
             f"p-value {p_value!r} vs chi2.sf {p!r}")


# ---------------------------------------------------------------------------
# files written by the command line


def read_ocksr1(path: str) -> dict:
    """Parse a model file by the documented OCKSR1 layout.

    Magic, family code, flags (bit 0: tau present), sigma, delta, n,
    n_neg, d, optional tau, X row-major, alpha; little-endian.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    _require(len(blob) >= OCKSR1_HEAD.size, f"{path}: truncated header")
    magic, family, flags, sigma, delta, n, n_neg, d = OCKSR1_HEAD.unpack_from(blob)
    _require(magic == OCKSR1_MAGIC, f"{path}: bad magic {magic!r}")
    _require(family == 1, f"{path}: unknown kernel family {family}")
    _require(n_neg <= n, f"{path}: n_neg {n_neg} > n {n}")
    offset = OCKSR1_HEAD.size
    tau = None
    if flags & 1:
        _require(len(blob) >= offset + 8, f"{path}: truncated threshold")
        (tau,) = struct.unpack_from("<d", blob, offset)
        offset += 8
    expected = offset + 8 * (n * d + n)
    _require(len(blob) == expected,
             f"{path}: {len(blob)} bytes, layout needs {expected}")
    X = np.frombuffer(blob, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    alpha = np.frombuffer(blob, dtype="<f8", count=n, offset=offset + 8 * n * d)
    return {"sigma": sigma, "delta": delta, "n": n, "n_neg": n_neg, "d": d,
            "tau": tau, "X": X.astype(np.float64), "alpha": alpha.astype(np.float64)}


def read_scores(path: str, n_probes: int) -> tuple[np.ndarray, np.ndarray]:
    """The projection and novelty columns of an ``ocksr score`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0][:3] == ["index", "projection", "novelty"],
             f"{path}: unexpected header {rows[:1]}")
    body = np.array([[float(v) for v in row[:3]] for row in rows[1:]])
    _require(body.shape == (n_probes, 3), f"{path}: {len(rows) - 1} rows, "
             f"expected {n_probes}")
    _require(bool(np.array_equal(body[:, 0], np.arange(n_probes))),
             f"{path}: index column is not 0..{n_probes - 1}")
    return body[:, 1], body[:, 2]


def unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows scaled to unit Euclidean norm (the CLI's default preprocessing)."""
    return X / np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]

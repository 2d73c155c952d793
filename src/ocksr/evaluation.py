"""AUC evaluation over repeated seeded splits, with Friedman rank aggregation.

Scores are novelty values (larger = more anomalous); the AUC is the
probability that a random outlier scores above a random target, ties
counted one half.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from . import baselines, model as ocksr_model
from .dataset import Dataset, random_split
from .kernel import KernelSpec, median_pairwise_distance

SCORER_NAMES = ("ocksr", "kmeans", "knndd", "kpca")

# Neighborhood sizes swept for the scorers that take one.
NEIGHBORHOOD_RANGE = tuple(range(3, 11))


@dataclass(frozen=True)
class ScoredSet:
    """Novelty scores with ground-truth labels (1 = target, 0 = outlier)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64).ravel()
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if scores.shape[0] != labels.shape[0]:
            raise ValueError("scores and labels must have equal length")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must lie in {0, 1}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, ties given their average rank.

    Equals ``scipy.stats.rankdata`` (method "average"), NaN propagating to
    every rank, without importing ``scipy.stats``.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    ordered = np.sort(values)
    if ordered.size and np.isnan(ordered[-1]):
        return np.full(values.shape, np.nan)
    first = np.searchsorted(ordered, values, side="left")
    past = np.searchsorted(ordered, values, side="right")
    return (first + past + 1) / 2.0


def roc_auc(scored: ScoredSet) -> float:
    """Mann-Whitney AUC of outlier-over-target score orderings.

    Computed from average ranks, so tied scores contribute one half.
    """
    labels = scored.labels
    n_out = int((labels == 0).sum())
    n_tar = int((labels == 1).sum())
    if n_out == 0 or n_tar == 0:
        raise ValueError("AUC needs at least one target and one outlier")
    ranks = _average_ranks(scored.scores)
    numerator = float(ranks[labels == 0].sum()) - n_out * (n_out + 1) / 2.0
    return numerator / (n_out * n_tar)


# ---------------------------------------------------------------------------
# scorers


class OcksrScorer:
    """Kernel regression novelty scorer.

    sigma may be the literal string "median", resolved on each fit as
    the median pairwise distance of the training rows.
    """

    name = "ocksr"

    def __init__(self, sigma: float | str = "median", delta: float = 0.0):
        self.sigma = sigma
        self.delta = delta
        self._model: ocksr_model.Model | None = None

    def fit(self, X: np.ndarray) -> "OcksrScorer":
        sigma = (median_pairwise_distance(X) if self.sigma == "median"
                 else float(self.sigma))
        self._model = ocksr_model.fit(X, KernelSpec(sigma=sigma, delta=self.delta))
        return self

    def novelty(self, Z: np.ndarray) -> np.ndarray:
        assert self._model is not None, "fit before scoring"
        return ocksr_model.score_batch(self._model, Z)[1]


class KMeansScorer:
    name = "kmeans"

    def __init__(self, k: int = 5, seed: int = 0):
        self.k = k
        self.seed = seed
        self._model: baselines.KMeansModel | None = None

    def fit(self, X: np.ndarray) -> "KMeansScorer":
        self._model = baselines.kmeans_fit(X, min(self.k, X.shape[0]), self.seed)
        return self

    def novelty(self, Z: np.ndarray) -> np.ndarray:
        assert self._model is not None, "fit before scoring"
        return baselines.kmeans_score(self._model, Z)


class KnnddScorer:
    name = "knndd"

    def __init__(self, k: int = 5):
        self.k = k
        self._model: baselines.KnnddModel | None = None

    def fit(self, X: np.ndarray) -> "KnnddScorer":
        self._model = baselines.knndd_fit(X, min(self.k, X.shape[0] - 1))
        return self

    def novelty(self, Z: np.ndarray) -> np.ndarray:
        assert self._model is not None, "fit before scoring"
        return baselines.knndd_score(self._model, Z)


class KpcaScorer:
    """Kernel PCA reconstruction residual scorer.

    q defaults to the smallest component count capturing 95 percent of
    the centered spectrum of each training set.
    """

    name = "kpca"

    def __init__(self, sigma: float | str = "median", q: int | None = None):
        self.sigma = sigma
        self.q = q
        self._model: baselines.KpcaModel | None = None

    def fit(self, X: np.ndarray) -> "KpcaScorer":
        sigma = (median_pairwise_distance(X) if self.sigma == "median"
                 else float(self.sigma))
        q = None if self.q is None else min(max(self.q, 1), X.shape[0] - 1)
        self._model = baselines.kpca_fit(X, KernelSpec(sigma=sigma), q)
        return self

    def novelty(self, Z: np.ndarray) -> np.ndarray:
        assert self._model is not None, "fit before scoring"
        return baselines.kpca_score(self._model, Z)


def make_scorer(name: str, **params):
    """Construct a scorer by name: ocksr, kmeans, knndd, or kpca."""
    table = {
        "ocksr": OcksrScorer,
        "kmeans": KMeansScorer,
        "knndd": KnnddScorer,
        "kpca": KpcaScorer,
    }
    if name not in table:
        raise ValueError(f"unknown method {name!r} (choose from {SCORER_NAMES})")
    return table[name](**params)


# ---------------------------------------------------------------------------
# repeated evaluation


def repeated_aucs(
    dataset: Dataset,
    scorers,
    repeats: int,
    base_seed: int,
    train_fraction: float = 0.5,
) -> np.ndarray:
    """AUC table, one row per scorer and one column per seeded repeat.

    Repeat r draws one split with seed base_seed + r; every scorer fits
    on its train targets and scores its test rows.  Any split or fit
    failure is re-raised with the repeat index attached.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    out = np.empty((len(scorers), repeats))
    for r in range(repeats):
        seed = base_seed + r
        try:
            train, test = random_split(dataset, train_fraction, seed)
            targets = train.targets()
            for i, scorer in enumerate(scorers):
                scored = ScoredSet(scorer.fit(targets).novelty(test.X), test.labels)
                out[i, r] = roc_auc(scored)
        except Exception as exc:
            raise RuntimeError(f"repeat {r} (seed {seed}) failed: {exc}") from exc
    return out


def _mean_std(aucs: np.ndarray) -> tuple[float, float]:
    return float(aucs.mean()), (float(aucs.std(ddof=1)) if aucs.size > 1 else 0.0)


def repeated_eval(
    dataset: Dataset,
    scorer,
    repeats: int,
    base_seed: int,
    train_fraction: float = 0.5,
) -> tuple[float, float]:
    """Mean and sample standard deviation of AUC over seeded repeats.

    A single repeat has standard deviation 0 by definition.
    """
    return _mean_std(repeated_aucs(dataset, [scorer], repeats, base_seed,
                                   train_fraction)[0])


def best_neighborhood(
    dataset: Dataset,
    name: str,
    repeats: int,
    base_seed: int,
    ks=NEIGHBORHOOD_RANGE,
    train_fraction: float = 0.5,
) -> tuple[int, np.ndarray]:
    """Sweep the neighborhood parameter and keep the best mean AUC.

    Every k is scored on the same seeded splits.  The first maximal mean
    wins, so ties resolve to the earliest k in ``ks`` and a NaN mean
    never wins.
    """
    ks = [int(k) for k in ks]
    table = repeated_aucs(dataset, [make_scorer(name, k=k) for k in ks],
                          repeats, base_seed, train_fraction)
    best = int(np.nanargmax(table.mean(axis=1)))
    return ks[best], table[best]


# ---------------------------------------------------------------------------
# rank aggregation


def friedman_ranks(auc_table) -> np.ndarray:
    """Average rank per method over datasets (rank 1 = highest AUC, ties averaged).

    Args:
        auc_table: (n_datasets, n_methods) array of AUC values.
    """
    table = np.atleast_2d(np.asarray(auc_table, dtype=np.float64))
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 2:
        raise ValueError("need at least 1 dataset and 2 methods")
    ranks = np.vstack([_average_ranks(-row) for row in table])
    return ranks.mean(axis=0)


@dataclass(frozen=True)
class FriedmanResult:
    average_ranks: np.ndarray
    chi_square: float
    p_value: float
    n_datasets: int
    n_methods: int


def friedman_test(auc_table) -> FriedmanResult:
    """Friedman chi-square over the rank table, with M - 1 degrees of freedom.

    The p-value is the upper tail of the chi-square distribution,
    evaluated through the regularized incomplete gamma function.
    """
    table = np.atleast_2d(np.asarray(auc_table, dtype=np.float64))
    avg = friedman_ranks(table)
    n, m = table.shape
    chi2 = chi_square_from_ranks(avg, n)
    return FriedmanResult(avg, chi2, chi_square_p_value(chi2, m - 1), n, m)


def chi_square_from_ranks(average_ranks, n_datasets: int) -> float:
    """Friedman statistic from per-method average ranks over n_datasets blocks."""
    avg = np.asarray(average_ranks, dtype=np.float64)
    m = avg.shape[0]
    return float(12.0 * n_datasets / (m * (m + 1))
                 * ((avg**2).sum() - m * (m + 1) ** 2 / 4.0))


def chi_square_p_value(chi2: float, dof: int) -> float:
    """Upper-tail chi-square probability via the regularized incomplete gamma."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return float(gammaincc(dof / 2.0, chi2 / 2.0))


# ---------------------------------------------------------------------------
# benchmark reports


@dataclass
class BenchCell:
    mean: float | None = None
    std: float | None = None
    param: int | None = None
    aucs: list[float] = field(default_factory=list)
    error: str | None = None


@dataclass
class BenchReport:
    datasets: list[str]
    methods: list[str]
    repeats: int
    base_seed: int
    cells: dict[str, dict[str, BenchCell]]
    average_ranks: dict[str, float] | None = None
    chi_square: float | None = None
    p_value: float | None = None
    ranked_datasets: list[str] = field(default_factory=list)
    per_dataset_ranks: dict[str, dict[str, float]] = field(default_factory=dict)


def bench_run(
    datasets: list[Dataset],
    methods: list[str],
    repeats: int,
    base_seed: int,
    train_fraction: float = 0.5,
    sigma: float | str = "median",
    fixed_k: int | None = None,
) -> BenchReport:
    """Evaluate every method on every dataset and aggregate Friedman ranks.

    Neighborhood methods sweep k over [3, 10] unless ``fixed_k`` pins it.
    A failing (dataset, method) cell is recorded as missing with its
    error message; datasets with missing cells are excluded from the
    rank aggregation with a warning.
    """
    for name in methods:
        if name not in SCORER_NAMES:
            raise ValueError(f"unknown method {name!r} (choose from {SCORER_NAMES})")
    cells: dict[str, dict[str, BenchCell]] = {}
    for ds in datasets:
        row: dict[str, BenchCell] = {}
        for name in methods:
            cell = BenchCell()
            try:
                if name in ("kmeans", "knndd"):
                    ks = NEIGHBORHOOD_RANGE if fixed_k is None else (fixed_k,)
                    cell.param, aucs = best_neighborhood(ds, name, repeats, base_seed,
                                                         ks, train_fraction)
                else:
                    aucs = repeated_aucs(ds, [make_scorer(name, sigma=sigma)],
                                         repeats, base_seed, train_fraction)[0]
                cell.aucs = [float(a) for a in aucs]
                cell.mean, cell.std = _mean_std(aucs)
            except Exception as exc:
                cell.error = str(exc)
                warnings.warn(
                    f"cell ({ds.name}, {name}) failed and is recorded as missing: {exc}",
                    stacklevel=2,
                )
            row[name] = cell
        cells[ds.name] = row

    report = BenchReport([d.name for d in datasets], list(methods), repeats,
                         base_seed, cells)
    complete = [d.name for d in datasets
                if all(cells[d.name][m].error is None for m in methods)]
    skipped = [name for name in report.datasets if name not in complete]
    if skipped:
        warnings.warn(f"datasets excluded from ranking: {skipped}", stacklevel=2)
    if complete and len(methods) >= 2:
        table = np.array([[cells[d][m].mean for m in methods] for d in complete])
        result = friedman_test(table)
        report.average_ranks = dict(zip(methods, result.average_ranks.tolist()))
        report.chi_square = result.chi_square
        report.p_value = result.p_value
        report.ranked_datasets = complete
        for i, d in enumerate(complete):
            row_ranks = _average_ranks(-table[i])
            report.per_dataset_ranks[d] = dict(zip(methods, row_ranks.tolist()))
    return report


def write_bench_csv(report: BenchReport, path: str) -> None:
    """One row per (dataset, method): mean, std, parameter, per-dataset rank."""
    lines = ["dataset,method,mean_auc,std_auc,param,rank"]
    for ds in report.datasets:
        for m in report.methods:
            cell = report.cells[ds][m]
            if cell.error is not None:
                lines.append(f"{ds},{m},,,,")
                continue
            rank = report.per_dataset_ranks.get(ds, {}).get(m)
            lines.append(
                f"{ds},{m},{cell.mean:.12g},{cell.std:.12g},"
                f"{'' if cell.param is None else cell.param},"
                f"{'' if rank is None else format(rank, 'g')}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ranks_csv(report: BenchReport, path: str) -> None:
    """Average rank per method plus the Friedman statistic as comment lines."""
    lines = []
    if report.chi_square is not None:
        lines.append(f"# friedman_chi_square,{report.chi_square:.12g}")
        lines.append(f"# p_value,{report.p_value:.12g}")
        lines.append(f"# datasets_ranked,{len(report.ranked_datasets)}")
    lines.append("method,average_rank")
    if report.average_ranks:
        for m in report.methods:
            lines.append(f"{m},{report.average_ranks[m]:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bench_json(report: BenchReport, path: str) -> None:
    """Full structured report including every per-repeat AUC."""
    payload = {
        "repeats": report.repeats,
        "base_seed": report.base_seed,
        "datasets": report.datasets,
        "methods": report.methods,
        "cells": {
            ds: {
                m: (
                    {"error": cell.error}
                    if cell.error is not None
                    else {
                        "mean": cell.mean,
                        "std": cell.std,
                        "param": cell.param,
                        "aucs": cell.aucs,
                    }
                )
                for m, cell in row.items()
            }
            for ds, row in report.cells.items()
        },
        "average_ranks": report.average_ranks,
        "friedman": (
            None
            if report.chi_square is None
            else {
                "chi_square": report.chi_square,
                "p_value": report.p_value,
                "datasets_ranked": report.ranked_datasets,
            }
        ),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

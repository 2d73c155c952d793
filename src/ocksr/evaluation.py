"""AUC evaluation over repeated seeded splits, with Friedman rank aggregation.

Scores are novelty values (larger = more anomalous); the AUC is the
probability that a random outlier scores above a random target, ties
counted one half.  A method is a name in ``SCORER_NAMES``: ``novelties``
fits it on one split's train targets and returns a table of novelties
for the test rows, one row per neighborhood size for the methods that
sweep one.  ``bench_run`` scores each (dataset, method) cell with one
``repeated_aucs`` call and keeps the first row with the largest mean AUC.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import baselines, model as ocksr_model
from .dataset import Dataset, random_split
from .kernel import KernelSpec

# Neighborhood sizes swept for the scorers that take one.
NEIGHBORHOOD_RANGE = tuple(range(3, 11))

# Share of the target rows that each seeded split trains on.
TRAIN_FRACTION = 0.5


def _average_ranks(values) -> np.ndarray:
    """1-based ranks along the last axis of ``values``, ties given their average rank.

    Equals ``scipy.stats.rankdata`` (method "average") on each row, NaN
    propagating to every rank of its row, without importing ``scipy.stats``.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    index = np.arange(values.shape[-1])
    # a run of ties [first, last] ends where the next value differs, or at the row's end
    ends = np.ones(values.shape, dtype=bool)
    ends[..., :-1] = ordered[..., 1:] != ordered[..., :-1]
    first = np.maximum.accumulate(np.where(np.roll(ends, 1, axis=-1), index, 0), axis=-1)
    last = np.flip(np.minimum.accumulate(np.flip(np.where(ends, index, index.size), -1),
                                         axis=-1), -1)
    # NaN sorts last, so a row holds one exactly when it ends with one
    ranked = np.where(np.isnan(ordered[..., -1:]), np.nan, (first + last + 2) / 2.0)
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, ranked, axis=-1)
    return ranks


def _auc_rows(novelty, labels) -> np.ndarray:
    """``roc_auc`` of each row of a (p, len(labels)) table, the labels checked once.

    Ranks are half-integers, so each outlier rank sum is exact in any order.
    """
    novelty = np.asarray(novelty, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if novelty.shape[1] != labels.shape[0]:
        raise ValueError("scores and labels must have equal length")
    outliers, targets = labels == 0, labels == 1
    if not (outliers | targets).all():
        raise ValueError("labels must lie in {0, 1}")
    n_out, n_tar = int(outliers.sum()), int(targets.sum())
    if n_out == 0 or n_tar == 0:
        raise ValueError("AUC needs at least one target and one outlier")
    rank_sums = _average_ranks(novelty)[:, outliers].sum(axis=1)
    return (rank_sums - n_out * (n_out + 1) / 2.0) / (n_out * n_tar)


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC of outlier-over-target score orderings.

    ``labels`` marks each score 1 (target) or 0 (outlier); tied scores
    count one half.  The one-row case of ``_auc_rows``.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    return float(_auc_rows(scores[None, :], labels)[0])


# ---------------------------------------------------------------------------
# methods

SCORER_NAMES = ("ocksr", "kmeans", "knndd", "kpca")


def _check_method(name: str) -> str:
    """A method name from ``SCORER_NAMES``, or ValueError."""
    if name not in SCORER_NAMES:
        raise ValueError(f"unknown method {name!r} (choose from {SCORER_NAMES})")
    return name


def _check_k(k: int) -> int:
    """A neighborhood size (centers or neighbors) as an int >= 1, or ValueError.

    Each fit also caps k at what its training set allows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return k


def novelties(
    name: str,
    X: np.ndarray,
    Z: np.ndarray,
    sigma: float | str = "median",
    ks=NEIGHBORHOOD_RANGE,
) -> np.ndarray:
    """Novelty of each probe row of Z under method ``name`` fit on the rows X.

    ocksr (kernel regression) and kpca (kernel PCA reconstruction
    residual, keeping 95 percent of the centered spectrum) return one
    row; sigma may be "median", which each fit resolves over its own
    training rows.  kmeans and knndd return one row per k in ``ks``, each
    k capped at what the n training rows allow (n centers, n - 1
    neighbors), each method serving the sweep from one call.

    Returns:
        An array of shape (1 or len(ks), len(Z)).

    Raises:
        ValueError: an unknown method name, a bad sigma or a k below 1.
    """
    _check_method(name)
    n = X.shape[0]
    if name == "ocksr":
        fitted = ocksr_model.fit(X, KernelSpec(sigma=sigma))
        return ocksr_model.score_batch(fitted, Z)[1][None, :]
    if name == "kpca":
        return baselines.kpca_score(baselines.kpca_fit(X, KernelSpec(sigma=sigma)),
                                    Z)[None, :]
    if name == "kmeans":
        return baselines.kmeans_novelty(X, Z, [min(k, n) for k in ks])
    return baselines.knndd_novelty(X, Z, [min(k, n - 1) for k in ks])


# ---------------------------------------------------------------------------
# repeated evaluation


def _check_repeats(repeats: int) -> int:
    """A repeat count as an int >= 1, or ValueError."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return repeats


def repeated_aucs(
    dataset: Dataset,
    scorer,
    repeats: int,
    base_seed: int,
) -> np.ndarray:
    """AUC table, one row per row of novelties and one column per seeded repeat.

    Repeat r draws one split with seed base_seed + r, training on
    ``TRAIN_FRACTION`` of the targets.  ``scorer(X_train, Z)`` is called
    once per split with the train targets and the test rows, and returns
    novelties of shape (p, len(Z)), say one row per k of a sweep; one
    pass ranks the table, each row giving one AUC.  Any split, scorer or
    AUC failure is re-raised with the repeat index attached.
    """
    columns = []
    for r in range(_check_repeats(repeats)):
        seed = base_seed + r
        try:
            train, test = random_split(dataset, TRAIN_FRACTION, seed)
            columns.append(_auc_rows(scorer(train.targets(), test.X), test.labels))
        except Exception as exc:
            raise RuntimeError(f"repeat {r} (seed {seed}) failed: {exc}") from exc
    # rows made contiguous, so each row's mean sums in one fixed order
    return np.array(columns).T.copy()


# ---------------------------------------------------------------------------
# rank aggregation


@dataclass(frozen=True, eq=False)
class FriedmanResult:
    ranks: np.ndarray  # (n_datasets, n_methods), rank 1 = highest AUC
    average_ranks: np.ndarray
    chi_square: float
    p_value: float


def friedman_test(auc_table) -> FriedmanResult:
    """Friedman ranks and chi-square over an (n_datasets, n_methods) AUC table.

    Each dataset's methods are ranked, 1 for the highest AUC and ties
    given their average rank.  The statistic has M - 1 degrees of
    freedom; its p-value is the upper tail of the chi-square
    distribution, evaluated through the regularized incomplete gamma
    function.
    """
    from scipy.special import gammaincc  # here, so importing ocksr skips it

    table = np.atleast_2d(np.asarray(auc_table, dtype=np.float64))
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 2:
        raise ValueError("need at least 1 dataset and 2 methods")
    ranks = _average_ranks(-table)
    avg = ranks.mean(axis=0)
    n, m = table.shape
    chi2 = float(12.0 * n / (m * (m + 1))
                 * ((avg**2).sum() - m * (m + 1) ** 2 / 4.0))
    return FriedmanResult(ranks, avg, chi2,
                          float(gammaincc((m - 1) / 2.0, chi2 / 2.0)))


# ---------------------------------------------------------------------------
# benchmark reports


@dataclass
class BenchCell:
    mean: float | None = None
    std: float | None = None
    param: int | None = None
    aucs: list[float] = field(default_factory=list)
    error: Exception | None = None


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
    sigma: float | str = "median",
    fixed_k: int | None = None,
) -> BenchReport:
    """Evaluate every method on every dataset and aggregate Friedman ranks.

    Each cell is one ``repeated_aucs`` call: ``novelties`` scores its
    method on ``repeats`` seeded splits, one call per split serving every
    k.  Neighborhood methods sweep k over [3, 10] unless ``fixed_k`` pins
    it.  The cell keeps the first row with the largest mean AUC, so ties
    go to the smallest k and a NaN mean never wins; kmeans and knndd
    record that row's k as ``param``.  A failing (dataset, method) cell is
    recorded as missing with the exception that failed it.  With two or
    more methods, datasets with missing cells are excluded from the rank
    aggregation with a warning.

    Raises:
        ValueError: before any cell runs, for a bad sigma, a fixed_k
            below 1, an unknown method, or a dataset name or method
            given twice.
    """
    # bad arguments raise here, before any cell runs
    KernelSpec(sigma=sigma)
    ks = NEIGHBORHOOD_RANGE if fixed_k is None else (int(_check_k(fixed_k)),)
    for name in methods:
        _check_method(name)
    for kind, names in (("dataset", [d.name for d in datasets]), ("method", methods)):
        repeated = [x for i, x in enumerate(names) if x in names[:i]]
        if repeated:
            raise ValueError(f"{kind} {repeated[0]!r} is given more than once")
    cells: dict[str, dict[str, BenchCell]] = {}
    for ds in datasets:
        row: dict[str, BenchCell] = {}
        for name in methods:
            cell = BenchCell()
            try:
                table = repeated_aucs(ds, partial(novelties, name, sigma=sigma, ks=ks),
                                      repeats, base_seed)
                best = int(np.nanargmax(table.mean(axis=1)))
                aucs = table[best]
                if name in ("kmeans", "knndd"):
                    cell.param = ks[best]
                cell.aucs = [float(a) for a in aucs]
                cell.mean = float(aucs.mean())
                cell.std = float(aucs.std(ddof=1)) if aucs.size > 1 else 0.0
            except Exception as exc:
                cell.error = exc
                warnings.warn(
                    f"cell ({ds.name}, {name}) failed and is recorded as missing: {exc}",
                    stacklevel=2,
                )
            row[name] = cell
        cells[ds.name] = row

    report = BenchReport([d.name for d in datasets], list(methods), repeats,
                         base_seed, cells)
    if len(methods) < 2:
        return report  # one method is never ranked
    complete = [d.name for d in datasets
                if all(cells[d.name][m].error is None for m in methods)]
    skipped = [name for name in report.datasets if name not in complete]
    if skipped:
        warnings.warn(f"datasets excluded from ranking: {skipped}", stacklevel=2)
    if complete:
        result = friedman_test([[cells[d][m].mean for m in methods] for d in complete])
        report.average_ranks = dict(zip(methods, result.average_ranks.tolist()))
        report.chi_square, report.p_value = result.chi_square, result.p_value
        report.ranked_datasets = complete
        for d, row_ranks in zip(complete, result.ranks):
            report.per_dataset_ranks[d] = dict(zip(methods, row_ranks.tolist()))
    return report


def write_bench_csv(report: BenchReport, path: str) -> None:
    """One row per (dataset, method): mean, std, parameter, per-dataset rank."""
    rows = [["dataset", "method", "mean_auc", "std_auc", "param", "rank"]]
    for ds in report.datasets:
        for m in report.methods:
            cell = report.cells[ds][m]
            if cell.error is not None:
                rows.append([ds, m, "", "", "", ""])
                continue
            rank = report.per_dataset_ranks.get(ds, {}).get(m)
            rows.append([ds, m, f"{cell.mean:.12g}", f"{cell.std:.12g}", cell.param,
                         "" if rank is None else format(rank, "g")])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_ranks_csv(report: BenchReport, path: str) -> None:
    """Average rank per method plus the Friedman statistic as comment lines."""
    lines = []
    if report.chi_square is not None:
        lines += [f"# friedman_chi_square,{report.chi_square:.12g}",
                  f"# p_value,{report.p_value:.12g}",
                  f"# datasets_ranked,{len(report.ranked_datasets)}"]
    lines.append("method,average_rank")
    if report.average_ranks:
        for m in report.methods:
            lines.append(f"{m},{report.average_ranks[m]:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bench_json(report: BenchReport, path: str) -> None:
    """Full structured report including every per-repeat AUC."""
    cells = {ds: {m: {"error": str(c.error)} if c.error is not None else
                  {"mean": c.mean, "std": c.std, "param": c.param, "aucs": c.aucs}
                  for m, c in row.items()}
             for ds, row in report.cells.items()}
    friedman = None if report.chi_square is None else {
        "chi_square": report.chi_square, "p_value": report.p_value,
        "datasets_ranked": report.ranked_datasets}
    payload = {"repeats": report.repeats, "base_seed": report.base_seed,
               "datasets": report.datasets, "methods": report.methods, "cells": cells,
               "average_ranks": report.average_ranks, "friedman": friedman}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

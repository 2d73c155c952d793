import json
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

import ocksr.evaluation as ev
import oracles
from ocksr.baselines import kpca_fit, kpca_score
from ocksr.dataset import make_synthetic, random_split, write_csv
from ocksr.evaluation import (
    NEIGHBORHOOD_RANGE,
    SCORER_NAMES,
    bench_run,
    friedman_test,
    novelties,
    repeated_aucs,
    roc_auc,
    write_bench_csv,
    write_bench_json,
    write_ranks_csv,
)
from ocksr.kernel import KernelSpec, median_pairwise_distance
from ocksr.model import fit, score_batch

ocksr_novelties = partial(novelties, "ocksr")


def _pair_auc(scores, labels):
    # quadratic oracle: P(outlier scores above target), ties counted half
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    out = scores[labels == 0]
    tar = scores[labels == 1]
    wins = ties = 0
    for o in out:
        for t in tar:
            if o > t:
                wins += 1
            elif o == t:
                ties += 1
    return (wins + 0.5 * ties) / (len(out) * len(tar))


def test_auc_perfect_separation():
    assert roc_auc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([0, 0, 1, 1])) == 1.0


def test_auc_all_ties():
    assert roc_auc(np.ones(6), np.array([0, 0, 0, 1, 1, 1])) == 0.5


def test_auc_four_point_case():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == _pair_auc(scores, labels) == 0.75


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


@given(st.integers(0, 10**6), st.integers(1, 60), st.integers(1, 60), st.booleans())
@settings(max_examples=60, deadline=None)
def test_auc_equals_pair_oracle(seed, n_out, n_tar, quantize):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.0, 1.0, n_out + n_tar)
    if quantize:
        scores = np.round(scores, 1)  # force plenty of ties
    labels = np.concatenate([np.zeros(n_out, np.int64), np.ones(n_tar, np.int64)])
    rng.shuffle(labels)
    assert roc_auc(scores, labels) == _pair_auc(scores, labels)


@given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                          st.floats(allow_nan=True, width=64)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_average_ranks_match_scipy_rankdata(values):
    # integer values force ties; the float draws add +-0, infinities and NaN
    np.testing.assert_array_equal(ev._average_ranks(values), rankdata(values))


@given(st.integers(0, 10**6), st.integers(0, 5), st.integers(0, 12), st.booleans())
@settings(max_examples=100, deadline=None)
def test_average_ranks_rank_each_row_like_rankdata(seed, p, m, nan_row):
    rng = np.random.default_rng(seed)
    pool = [-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf]
    table = np.where(rng.random((p, m)) < 0.5, rng.choice(pool, (p, m)),
                     rng.standard_normal((p, m)))
    if nan_row and p and m:
        table[rng.integers(p), rng.integers(m)] = np.nan
    ranks = ev._average_ranks(table)
    assert ranks.shape == (p, m)
    for row, want in zip(ranks, table):
        np.testing.assert_array_equal(row, rankdata(want))


@given(st.integers(0, 10**6), st.integers(1, 30), st.integers(1, 30), st.integers(1, 6),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_auc_table_rows_equal_pair_oracle(seed, n_out, n_tar, p, nan_row):
    rng = np.random.default_rng(seed)
    m = n_out + n_tar
    # a few repeated values force ties; the infinities sort at either end
    pool = [-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf]
    table = np.where(rng.random((p, m)) < 0.5, rng.choice(pool, (p, m)),
                     rng.standard_normal((p, m)))
    if nan_row:
        table[rng.integers(p), rng.integers(m)] = np.nan
    labels = np.concatenate([np.zeros(n_out, np.int64), np.ones(n_tar, np.int64)])
    rng.shuffle(labels)
    aucs = ev._auc_rows(table, labels)
    assert aucs.shape == (p,)
    for row, auc in zip(table, aucs):
        if np.isnan(row).any():
            assert np.isnan(auc)
        else:
            assert auc == _pair_auc(row, labels) == roc_auc(row, labels)


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = ("import sys, ocksr.cli; "
             "print([m for m in sys.modules if m.startswith('scipy.stats')])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_package_import_leaves_scipy_special_and_spatial_unloaded(tmp_path):
    # train and score never rank or run a baseline, so their children
    # must not pay for these imports; bench loads them where it calls them
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for module in ("ocksr.cli", "ocksr"):
        probe = (f"import sys, {module}; print([m for m in sys.modules "
                 "if m.startswith(('scipy.special', 'scipy.spatial'))])")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]", module
    paths = []
    for sep, seed in ((6.0, 12), (1.0, 13)):
        paths.append(str(tmp_path / f"d{seed}.csv"))
        write_csv(make_synthetic(30, 20, 5, sep, seed), paths[-1])
    out = str(tmp_path / "rep")
    argv = ["bench", "--label-col", "0", "--repeats", "2", "--seed", "5", "--k", "3",
            "--out", out, "--method", "ocksr", "--method", "knndd", "--method", "kmeans"]
    argv += [x for path in paths for x in ("--data", path)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from ocksr.cli import main; sys.exit(main())", *argv],
                   capture_output=True, text=True, check=True, env=env)
    with open(out + ".json") as fh:
        payload = json.load(fh)
    means = [[payload["cells"][path][m]["mean"] for m in payload["methods"]]
             for path in paths]
    result = ev.friedman_test(means)
    assert payload["friedman"]["chi_square"] == result.chi_square == 3.0
    # three methods: the chi-square upper tail with 2 degrees of freedom
    # is exp(-chi2 / 2)
    assert payload["friedman"]["p_value"] == result.p_value
    assert result.p_value == pytest.approx(np.exp(-1.5), rel=1e-15)


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0.0, 2.0, 50)
    labels = (rng.uniform(size=50) < 0.5).astype(np.int64)
    labels[:2] = [0, 1]
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == base
    assert roc_auc(3.0 * scores + 7.0, labels) == base


def test_auc_complement_symmetry():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(30)
    labels = np.array([0, 1] * 15)
    base = roc_auc(scores, labels)
    assert roc_auc(scores, 1 - labels) == pytest.approx(1.0 - base, abs=1e-12)
    assert roc_auc(-scores, labels) == pytest.approx(1.0 - base, abs=1e-12)


def test_roc_auc_validation():
    with pytest.raises(ValueError, match="equal length"):
        roc_auc(np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="lie in"):
        roc_auc(np.ones(2), np.array([1, 2]))
    # the values are checked as given, not after a cast to integers
    for labels in ([0.5, 1.0, 1.0], [0.0, 1.0, np.nan]):
        with pytest.raises(ValueError, match="lie in"):
            roc_auc([0.1, 0.9, 0.3], labels)
    assert roc_auc([0.1, 0.9, 0.3], [1.0, 0.0, 1.0]) == 1.0


def test_novelties_shapes_and_unknown_method():
    ds = make_synthetic(20, 20, 4, 3.0, seed=8)
    X, Z = ds.targets(), ds.X
    for name in SCORER_NAMES:
        for ks in (NEIGHBORHOOD_RANGE, (4,), (5, 3, 5)):
            rows = 1 if name in ("ocksr", "kpca") else len(ks)
            assert novelties(name, X, Z, ks=ks).shape == (rows, len(Z)), (name, ks)
    with pytest.raises(ValueError, match="unknown method"):
        novelties("svdd", X, Z)


def test_ocksr_novelties_resolve_median_sigma():
    ds = make_synthetic(20, 20, 4, 6.0, seed=8)
    X = ds.targets()
    spec = KernelSpec(sigma=median_pairwise_distance(X))
    np.testing.assert_array_equal(novelties("ocksr", X, ds.X),
                                  [score_batch(fit(X, spec), ds.X)[1]])


def test_kpca_novelties_default_components():
    ds = make_synthetic(30, 0, 4, 0.0, seed=9)
    X = ds.targets()
    explicit = kpca_fit(X, KernelSpec(sigma=median_pairwise_distance(X)))
    assert 1 <= explicit.coeffs.shape[1] <= 29
    Z = make_synthetic(10, 10, 4, 2.0, seed=10).X
    np.testing.assert_array_equal(novelties("kpca", X, Z), [kpca_score(explicit, Z)])


def test_scorers_separate_synthetic_clouds():
    ds = make_synthetic(60, 60, 6, 6.0, seed=10)
    aucs = repeated_aucs(ds, ocksr_novelties, repeats=3, base_seed=100)[0]
    assert aucs.shape == (3,)
    assert aucs.mean() > 0.9


def test_bench_run_single_repeat_zero_std():
    ds = make_synthetic(30, 30, 5, 4.0, seed=0)
    cell = bench_run([ds], ["ocksr"], repeats=1, base_seed=3).cells[ds.name]["ocksr"]
    assert cell.std == 0.0 and 0.0 <= cell.mean <= 1.0


def test_repeated_aucs_reproducible():
    ds = make_synthetic(25, 25, 4, 3.0, seed=1)
    a = repeated_aucs(ds, ocksr_novelties, repeats=4, base_seed=9)
    b = repeated_aucs(ds, ocksr_novelties, repeats=4, base_seed=9)
    np.testing.assert_array_equal(a, b)


def test_repeated_aucs_error_carries_repeat_index():
    ds = make_synthetic(10, 10, 3, 2.0, seed=2)

    def boom(X, Z):
        raise ValueError("kaput")

    with pytest.raises(RuntimeError, match=r"repeat 0 \(seed 11\) failed: kaput"):
        repeated_aucs(ds, boom, repeats=2, base_seed=11)


def test_repeats_must_be_positive():
    ds = make_synthetic(10, 10, 3, 2.0, seed=3)
    with pytest.raises(ValueError):
        repeated_aucs(ds, ocksr_novelties, repeats=0, base_seed=0)


def test_best_neighborhood_tie_breaks_to_smallest_k(monkeypatch):
    ds = make_synthetic(20, 20, 3, 5.0, seed=4)
    recorded = []

    def flat(dataset, scorer, repeats, base_seed):
        # the sweep's scorer gives one row of novelties per k
        recorded.append(scorer(ds.targets(), ds.X).shape)
        return np.full((len(NEIGHBORHOOD_RANGE), repeats), 0.75)

    monkeypatch.setattr(ev, "repeated_aucs", flat)
    cell = ev.bench_run([ds], ["knndd"], repeats=1, base_seed=0).cells[ds.name]["knndd"]
    assert cell.param == NEIGHBORHOOD_RANGE[0] == 3
    assert recorded == [(len(NEIGHBORHOOD_RANGE), len(ds.X))]
    assert cell.aucs == [0.75]


def test_best_neighborhood_real_sweep():
    ds = make_synthetic(40, 40, 4, 5.0, seed=5)
    cell = bench_run([ds], ["kmeans"], repeats=2, base_seed=7).cells[ds.name]["kmeans"]
    assert cell.param in NEIGHBORHOOD_RANGE and len(cell.aucs) == 2


def _per_k_sweep(dataset, name, repeats, base_seed, ks):
    # reference: a fresh split, fit and AUC for every k and every repeat,
    # keeping the first k whose mean beats every earlier one
    best_k, best_aucs, best_mean = None, None, -np.inf
    for k in ks:
        aucs = np.empty(repeats)
        for r in range(repeats):
            train, test = random_split(dataset, ev.TRAIN_FRACTION, base_seed + r)
            X = train.targets()
            if name == "kmeans":
                scores = oracles.kmeans_score(oracles.kmeans_fit(X, min(k, len(X)), seed=0),
                                              test.X)
            else:
                scores = oracles.knndd_score(X, test.X, min(k, len(X) - 1))
            aucs[r] = roc_auc(scores, test.labels)
        if aucs.mean() > best_mean:
            best_k, best_aucs, best_mean = k, aucs, float(aucs.mean())
    return best_k, best_aucs


@pytest.mark.parametrize("name", ["kmeans", "knndd"])
@pytest.mark.parametrize("ks", [NEIGHBORHOOD_RANGE, (4,)])
def test_best_neighborhood_matches_per_k_sweep(name, ks):
    ds = make_synthetic(30, 30, 4, 2.0, seed=22)
    fixed_k = None if ks == NEIGHBORHOOD_RANGE else ks[0]
    cell = bench_run([ds], [name], repeats=4, base_seed=3,
                     fixed_k=fixed_k).cells[ds.name][name]
    ref_k, ref_aucs = _per_k_sweep(ds, name, 4, 3, ks)
    assert cell.param == ref_k
    np.testing.assert_array_equal(cell.aucs, ref_aucs)


def test_best_neighborhood_first_maximal_mean_wins(monkeypatch):
    ds = make_synthetic(20, 20, 3, 5.0, seed=4)
    means = [np.nan, 0.6, 0.8, 0.7, 0.8, np.nan, 0.5, 0.8]

    def table(dataset, scorer, repeats, base_seed):
        return np.array(means)[:, None] * np.ones((len(means), repeats))

    monkeypatch.setattr(ev, "repeated_aucs", table)
    rep = ev.bench_run([ds], ["kmeans"], repeats=2, base_seed=0)
    cell = rep.cells[ds.name]["kmeans"]
    assert cell.param == NEIGHBORHOOD_RANGE[2] == 5
    assert cell.aucs == [0.8, 0.8]


def test_repeated_aucs_table_rows_follow_scorers():
    ds = make_synthetic(25, 25, 4, 3.0, seed=23)
    names = ["ocksr", "kmeans", "knndd"]

    def stacked(X, Z):
        return np.vstack([novelties(name, X, Z, ks=(3,)) for name in names])

    table = repeated_aucs(ds, stacked, repeats=3, base_seed=5)
    assert table.shape == (3, 3)
    for name, row in zip(names, table):
        np.testing.assert_array_equal(
            row, repeated_aucs(ds, partial(novelties, name, ks=(3,)), repeats=3,
                               base_seed=5)[0])


def test_a_sweep_scores_each_split_once(monkeypatch):
    ds = make_synthetic(24, 24, 3, 3.0, seed=24)
    knndd_calls, scorer_calls = [], []
    real_knndd = ev.baselines.knndd_novelty
    real_repeated = ev.repeated_aucs

    def counting_knndd(X, Z, ks):
        knndd_calls.append(list(ks))
        return real_knndd(X, Z, ks)

    def counting_repeated(dataset, scorer, repeats, base_seed):
        def counted(X, Z):
            scorer_calls.append(len(Z))
            return scorer(X, Z)
        return real_repeated(dataset, counted, repeats, base_seed)

    monkeypatch.setattr(ev.baselines, "knndd_novelty", counting_knndd)
    monkeypatch.setattr(ev, "repeated_aucs", counting_repeated)
    cell = ev.bench_run([ds], ["knndd"], 3, 0).cells[ds.name]["knndd"]
    assert knndd_calls == [list(NEIGHBORHOOD_RANGE)] * 3
    assert len(scorer_calls) == 3 and len(cell.aucs) == 3
    scorer_calls.clear()
    ev.bench_run([ds], ["ocksr", "kmeans"], 3, 0)
    assert len(scorer_calls) == 6


def test_a_kmeans_sweep_fits_and_ranks_each_split_once(monkeypatch):
    ds = make_synthetic(24, 24, 3, 3.0, seed=24)
    kmeans_calls, auc_tables = [], []
    real_kmeans, real_aucs = ev.baselines.kmeans_novelty, ev._auc_rows

    def counting_kmeans(X, Z, ks):
        kmeans_calls.append(list(ks))
        return real_kmeans(X, Z, ks)

    def counting_aucs(novelty, labels):
        auc_tables.append(np.shape(novelty))
        return real_aucs(novelty, labels)

    monkeypatch.setattr(ev.baselines, "kmeans_novelty", counting_kmeans)
    monkeypatch.setattr(ev, "_auc_rows", counting_aucs)
    cell = ev.bench_run([ds], ["kmeans"], 3, 0).cells[ds.name]["kmeans"]
    assert kmeans_calls == [list(NEIGHBORHOOD_RANGE)] * 3 and len(cell.aucs) == 3
    # the whole sweep's table is ranked in one pass per split
    assert [rows for rows, _ in auc_tables] == [len(NEIGHBORHOOD_RANGE)] * 3
    # the per-k fit is gone from the library, so nothing there can call it
    assert not hasattr(ev.baselines, "kmeans_fit")


def test_one_split_per_repeat(monkeypatch):
    ds = make_synthetic(24, 24, 3, 3.0, seed=24)
    seeds = []

    def counting(dataset, fraction, seed):
        seeds.append(seed)
        return random_split(dataset, fraction, seed)

    monkeypatch.setattr(ev, "random_split", counting)
    bench_run([ds], ["knndd"], 3, 0)
    assert seeds == [0, 1, 2]
    seeds.clear()
    bench_run([ds], ["ocksr", "kmeans", "knndd"], 3, 0)
    assert seeds == [0, 1, 2] * 3


def test_every_bench_cell_is_one_repeated_aucs_call(monkeypatch):
    a = make_synthetic(24, 24, 3, 3.0, seed=24)
    b = make_synthetic(24, 24, 3, 1.0, seed=25)
    calls = []
    real_repeated = ev.repeated_aucs

    def counting_repeated(dataset, scorer, repeats, base_seed):
        calls.append(0)

        def counted(X, Z):
            calls[-1] += 1
            return scorer(X, Z)
        return real_repeated(dataset, counted, repeats, base_seed)

    monkeypatch.setattr(ev, "repeated_aucs", counting_repeated)
    rep = bench_run([a, b], list(SCORER_NAMES), 3, 0)
    assert calls == [3] * 8
    assert all(cell.error is None for row in rep.cells.values() for cell in row.values())


def test_friedman_ranks_dominant_method():
    table = [[0.9, 0.8], [0.7, 0.6], [0.95, 0.5]]
    np.testing.assert_array_equal(friedman_test(table).average_ranks, [1.0, 2.0])


def test_friedman_ranks_tie_averaged():
    np.testing.assert_array_equal(friedman_test([[0.8, 0.8]]).average_ranks,
                                  [1.5, 1.5])


def test_friedman_ranks_hand_table():
    table = [
        [0.9, 0.8, 0.7],
        [0.6, 0.9, 0.6],
        [0.7, 0.7, 0.9],
    ]
    res = friedman_test(table)
    np.testing.assert_array_equal(res.ranks,
                                  [[1, 2, 3], [2.5, 1, 2.5], [2.5, 2.5, 1]])
    np.testing.assert_array_equal(res.average_ranks,
                                  [2.0, 11.0 / 6.0, 13.0 / 6.0])


def test_friedman_rank_sums_per_dataset():
    rng = np.random.default_rng(6)
    table = rng.uniform(size=(7, 5))
    for row in table:
        assert rankdata(-row).sum() == 15.0
    res = friedman_test(table)
    np.testing.assert_array_equal(res.ranks, [rankdata(-row) for row in table])
    assert res.average_ranks.sum() == pytest.approx(15.0, abs=1e-12)


def test_friedman_needs_two_methods():
    with pytest.raises(ValueError):
        friedman_test([[0.5]])


def test_chi_square_reference_case():
    # 10 datasets x 8 methods, no ties; rank 1 is the highest AUC
    ranks = np.array([
        [2, 4, 1, 3, 5, 8, 6, 7],
        [1, 5, 7, 4, 2, 8, 3, 6],
        [3, 2, 1, 8, 5, 7, 6, 4],
        [2, 1, 3, 5, 7, 8, 4, 6],
        [1, 8, 2, 5, 3, 7, 4, 6],
        [1, 5, 7, 2, 4, 8, 6, 3],
        [6, 3, 1, 4, 2, 8, 7, 5],
        [5, 2, 1, 3, 6, 8, 4, 7],
        [4, 3, 1, 2, 5, 8, 7, 6],
        [2, 6, 3, 1, 5, 8, 4, 7],
    ])
    res = friedman_test(1.0 - ranks / 10.0)
    np.testing.assert_allclose(res.average_ranks,
                               [2.7, 3.9, 2.7, 3.7, 4.4, 7.8, 5.1, 5.7], rtol=1e-15)
    assert res.chi_square == pytest.approx(33.63333333333335, rel=1e-13)
    assert res.p_value == pytest.approx(2.0170117345469877e-05, rel=1e-5)


def test_friedman_test_end_to_end():
    table = [[0.9, 0.5], [0.8, 0.4], [0.95, 0.3], [0.7, 0.2]]
    res = friedman_test(table)
    np.testing.assert_array_equal(res.average_ranks, [1.0, 2.0])
    # 12 * 4 / (2 * 3) * (1 + 4 - 2 * 9 / 4) = 8 * 0.5 = 4
    assert res.chi_square == pytest.approx(4.0, rel=1e-12)
    assert res.p_value == pytest.approx(0.04550026, rel=1e-6)
    np.testing.assert_array_equal(res.ranks, [[1.0, 2.0]] * 4)


def test_chi_square_p_value_validation():
    # one method leaves the chi-square with no degree of freedom
    with pytest.raises(ValueError):
        friedman_test([[0.5], [0.7]])


def test_bench_run_single_method_no_ranks():
    ds = make_synthetic(20, 20, 4, 4.0, seed=10)
    rep = bench_run([ds], ["ocksr"], repeats=2, base_seed=0)
    cell = rep.cells[ds.name]["ocksr"]
    assert cell.error is None and 0.0 <= cell.mean <= 1.0
    assert len(cell.aucs) == 2
    assert rep.average_ranks is None


def test_bench_run_rejects_unknown_method():
    ds = make_synthetic(10, 10, 3, 2.0, seed=11)
    with pytest.raises(ValueError, match="unknown method"):
        bench_run([ds], ["ocksr", "svdd"], repeats=1, base_seed=0)


def test_bench_run_rejects_a_bad_sigma_before_any_cell(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ev, "repeated_aucs", no_cells)
    ds = make_synthetic(10, 10, 3, 2.0, seed=11)
    for sigma in (-1.0, 0.0, np.nan, "mean"):
        with pytest.raises(ValueError, match="sigma"):
            bench_run([ds], ["ocksr", "kmeans"], 2, 0, sigma=sigma, fixed_k=3)
        with pytest.raises(ValueError, match="sigma"):
            novelties("ocksr", ds.targets(), ds.X, sigma=sigma)


def test_bench_run_rejects_a_bad_fixed_k_before_any_cell(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ev, "repeated_aucs", no_cells)
    ds = make_synthetic(10, 10, 3, 2.0, seed=11)
    for methods, fixed_k in ((["ocksr", "kmeans"], 0), (["ocksr", "knndd"], -3),
                             (["ocksr"], 0)):
        with pytest.raises(ValueError, match="k must be >= 1"):
            bench_run([ds], methods, 2, 0, fixed_k=fixed_k)


def test_bench_run_rejects_repeated_dataset_or_method(monkeypatch):
    # Friedman would count a repeated dataset twice and rank a repeated
    # method against itself; both are refused before any cell runs
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ev, "repeated_aucs", no_cells)
    a = make_synthetic(10, 10, 3, 2.0, seed=11)
    b = make_synthetic(10, 10, 3, 4.0, seed=12)
    for datasets, methods, match in (
            ([a, a, b], ["ocksr", "kmeans"], f"dataset '{a.name}'"),
            ([a, b], ["ocksr", "kmeans", "kmeans"], "method 'kmeans'"),
            ([a], ("knndd", "knndd"), "method 'knndd'")):
        with pytest.raises(ValueError, match=match):
            bench_run(datasets, methods, repeats=1, base_seed=0)


def test_bench_run_failed_cell_recorded(monkeypatch):
    ds = make_synthetic(16, 16, 3, 4.0, seed=12)
    real = ev.novelties

    def flaky(name, X, Z, **params):
        if name == "knndd":
            raise RuntimeError("synthetic failure")
        return real(name, X, Z, **params)

    monkeypatch.setattr(ev, "novelties", flaky)
    with pytest.warns(UserWarning) as record:
        rep = ev.bench_run([ds], ["ocksr", "knndd"], repeats=1, base_seed=0)
    messages = [str(w.message) for w in record]
    assert any("recorded as missing" in m for m in messages)
    assert any("excluded from ranking" in m for m in messages)
    assert rep.cells[ds.name]["knndd"].error is not None
    assert rep.cells[ds.name]["ocksr"].error is None
    assert rep.average_ranks is None  # the only dataset is incomplete
    assert rep.ranked_datasets == []


def test_bench_run_fixed_k_skips_sweep():
    ds = make_synthetic(24, 24, 4, 4.0, seed=13)
    rep = bench_run([ds], ["knndd"], repeats=1, base_seed=0, fixed_k=4)
    assert rep.cells[ds.name]["knndd"].param == 4


def test_bench_run_ranks_two_methods():
    ds1 = make_synthetic(30, 30, 5, 6.0, seed=14)
    ds2 = make_synthetic(30, 30, 5, 1.0, seed=15)
    rep = bench_run([ds1, ds2], ["ocksr", "kmeans"], repeats=2, base_seed=5,
                    fixed_k=3)
    assert set(rep.average_ranks) == {"ocksr", "kmeans"}
    total = sum(rep.average_ranks.values())
    assert total == pytest.approx(3.0, abs=1e-12)
    assert rep.ranked_datasets == [ds1.name, ds2.name]
    assert rep.chi_square is not None and 0.0 <= rep.p_value <= 1.0


def test_bench_reports_deterministic(tmp_path):
    ds1 = make_synthetic(20, 20, 4, 5.0, seed=16)
    ds2 = make_synthetic(20, 20, 4, 1.0, seed=17)
    blobs = {}
    for tag in ("a", "b"):
        rep = bench_run([ds1, ds2], ["ocksr", "kmeans"], repeats=2, base_seed=5,
                        fixed_k=4)
        paths = [tmp_path / f"{tag}.csv", tmp_path / f"{tag}_ranks.csv",
                 tmp_path / f"{tag}.json"]
        write_bench_csv(rep, str(paths[0]))
        write_ranks_csv(rep, str(paths[1]))
        write_bench_json(rep, str(paths[2]))
        blobs[tag] = [p.read_bytes() for p in paths]
    assert blobs["a"] == blobs["b"]


def test_bench_csv_shape(tmp_path):
    ds = make_synthetic(18, 18, 3, 4.0, seed=18)
    rep = bench_run([ds], ["ocksr", "kmeans"], repeats=2, base_seed=1, fixed_k=3)
    path = tmp_path / "r.csv"
    write_bench_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dataset,method,mean_auc,std_auc,param,rank"
    assert len(lines) == 3
    assert all(line.startswith(ds.name) for line in lines[1:])


def test_bench_json_structure(tmp_path):
    ds = make_synthetic(18, 18, 3, 4.0, seed=19)
    rep = bench_run([ds], ["ocksr", "kmeans"], repeats=2, base_seed=1, fixed_k=3)
    path = tmp_path / "r.json"
    write_bench_json(rep, str(path))
    payload = json.loads(path.read_text())
    assert payload["methods"] == ["ocksr", "kmeans"]
    cell = payload["cells"][ds.name]["ocksr"]
    assert len(cell["aucs"]) == 2
    assert set(payload["average_ranks"]) == {"ocksr", "kmeans"}


def test_ranks_csv_comment_header(tmp_path):
    ds1 = make_synthetic(16, 16, 3, 5.0, seed=20)
    ds2 = make_synthetic(16, 16, 3, 0.5, seed=21)
    rep = bench_run([ds1, ds2], ["ocksr", "knndd"], repeats=1, base_seed=2,
                    fixed_k=3)
    path = tmp_path / "ranks.csv"
    write_ranks_csv(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# friedman_chi_square,")
    assert lines[1].startswith("# p_value,")
    assert lines[2] == "# datasets_ranked,2"
    assert lines[3] == "method,average_rank"
    assert len(lines) == 6


def test_bench_run_one_method_failure_warns_once(monkeypatch):
    # one method is never ranked, so its failed cell excludes nothing
    ds = make_synthetic(16, 16, 3, 4.0, seed=12)

    def failing(dataset, scorer, repeats, base_seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(ev, "repeated_aucs", failing)
    with pytest.warns(UserWarning) as record:
        rep = ev.bench_run([ds], ["ocksr"], repeats=1, base_seed=0)
    assert [str(w.message) for w in record] == [
        f"cell ({ds.name}, ocksr) failed and is recorded as missing: synthetic failure"]
    assert rep.cells[ds.name]["ocksr"].error is not None
    assert rep.average_ranks is None and rep.ranked_datasets == []

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

import ocksr.evaluation as ev
from ocksr.dataset import make_synthetic, random_split
from ocksr.evaluation import (
    NEIGHBORHOOD_RANGE,
    SCORER_NAMES,
    KpcaScorer,
    OcksrScorer,
    ScoredSet,
    bench_run,
    best_neighborhood,
    chi_square_from_ranks,
    chi_square_p_value,
    friedman_ranks,
    friedman_test,
    make_scorer,
    repeated_aucs,
    repeated_eval,
    roc_auc,
    write_bench_csv,
    write_bench_json,
    write_ranks_csv,
)
from ocksr.kernel import median_pairwise_distance


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
    s = ScoredSet(np.array([0.9, 0.8, 0.1, 0.2]), np.array([0, 0, 1, 1]))
    assert roc_auc(s) == 1.0


def test_auc_all_ties():
    s = ScoredSet(np.ones(6), np.array([0, 0, 0, 1, 1, 1]))
    assert roc_auc(s) == 0.5


def test_auc_four_point_case():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(ScoredSet(scores, labels)) == _pair_auc(scores, labels) == 0.75


def test_auc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc(ScoredSet(np.array([0.1, 0.2]), np.array([1, 1])))


@given(st.integers(0, 10**6), st.integers(1, 60), st.integers(1, 60), st.booleans())
@settings(max_examples=60, deadline=None)
def test_auc_equals_pair_oracle(seed, n_out, n_tar, quantize):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.0, 1.0, n_out + n_tar)
    if quantize:
        scores = np.round(scores, 1)  # force plenty of ties
    labels = np.concatenate([np.zeros(n_out, np.int64), np.ones(n_tar, np.int64)])
    rng.shuffle(labels)
    assert roc_auc(ScoredSet(scores, labels)) == _pair_auc(scores, labels)


@given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                          st.floats(allow_nan=True, width=64)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_average_ranks_match_scipy_rankdata(values):
    # integer values force ties; the float draws add +-0, infinities and NaN
    np.testing.assert_array_equal(ev._average_ranks(values), rankdata(values))


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = ("import sys, ocksr.cli; "
             "print([m for m in sys.modules if m.startswith('scipy.stats')])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0.0, 2.0, 50)
    labels = (rng.uniform(size=50) < 0.5).astype(np.int64)
    labels[:2] = [0, 1]
    base = roc_auc(ScoredSet(scores, labels))
    assert roc_auc(ScoredSet(np.exp(scores), labels)) == base
    assert roc_auc(ScoredSet(3.0 * scores + 7.0, labels)) == base


def test_auc_complement_symmetry():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(30)
    labels = np.array([0, 1] * 15)
    base = roc_auc(ScoredSet(scores, labels))
    assert roc_auc(ScoredSet(scores, 1 - labels)) == pytest.approx(1.0 - base, abs=1e-12)
    assert roc_auc(ScoredSet(-scores, labels)) == pytest.approx(1.0 - base, abs=1e-12)


def test_scored_set_validation():
    with pytest.raises(ValueError):
        ScoredSet(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        ScoredSet(np.ones(2), np.array([1, 2]))


def test_make_scorer_names_and_unknown():
    for name in SCORER_NAMES:
        assert make_scorer(name).name == name
    with pytest.raises(ValueError, match="unknown method"):
        make_scorer("svdd")


def test_ocksr_scorer_resolves_median_sigma():
    ds = make_synthetic(20, 20, 4, 6.0, seed=8)
    scorer = OcksrScorer(sigma="median").fit(ds.targets())
    assert scorer._model.spec.sigma == median_pairwise_distance(ds.targets())


def test_kpca_scorer_default_components():
    ds = make_synthetic(30, 0, 4, 0.0, seed=9)
    scorer = KpcaScorer().fit(ds.targets())
    assert 1 <= scorer._model.coeffs.shape[1] <= 29


def test_scorers_separate_synthetic_clouds():
    ds = make_synthetic(60, 60, 6, 6.0, seed=10)
    aucs = repeated_aucs(ds, [OcksrScorer()], repeats=3, base_seed=100)[0]
    assert aucs.shape == (3,)
    assert aucs.mean() > 0.9


def test_repeated_eval_single_repeat_zero_std():
    ds = make_synthetic(30, 30, 5, 4.0, seed=0)
    mean, std = repeated_eval(ds, OcksrScorer(), repeats=1, base_seed=3)
    assert std == 0.0 and 0.0 <= mean <= 1.0


def test_repeated_eval_reproducible():
    ds = make_synthetic(25, 25, 4, 3.0, seed=1)
    a = repeated_eval(ds, OcksrScorer(), repeats=4, base_seed=9)
    b = repeated_eval(ds, OcksrScorer(), repeats=4, base_seed=9)
    assert a == b


def test_repeated_aucs_error_carries_repeat_index():
    ds = make_synthetic(10, 10, 3, 2.0, seed=2)

    class Boom:
        def fit(self, X):
            raise ValueError("kaput")

    with pytest.raises(RuntimeError, match=r"repeat 0 \(seed 11\) failed"):
        repeated_aucs(ds, [Boom()], repeats=2, base_seed=11)


def test_repeats_must_be_positive():
    ds = make_synthetic(10, 10, 3, 2.0, seed=3)
    with pytest.raises(ValueError):
        repeated_aucs(ds, [OcksrScorer()], repeats=0, base_seed=0)


def test_best_neighborhood_tie_breaks_to_smallest_k(monkeypatch):
    ds = make_synthetic(20, 20, 3, 5.0, seed=4)
    recorded = []

    def flat(dataset, scorers, repeats, base_seed, train_fraction=0.5):
        recorded.extend(scorer.k for scorer in scorers)
        return np.full((len(scorers), repeats), 0.75)

    monkeypatch.setattr(ev, "repeated_aucs", flat)
    k, aucs = ev.best_neighborhood(ds, "knndd", repeats=1, base_seed=0)
    assert k == NEIGHBORHOOD_RANGE[0] == 3
    assert recorded == list(NEIGHBORHOOD_RANGE)
    np.testing.assert_array_equal(aucs, [0.75])


def test_best_neighborhood_real_sweep():
    ds = make_synthetic(40, 40, 4, 5.0, seed=5)
    k, aucs = best_neighborhood(ds, "kmeans", repeats=2, base_seed=7)
    assert k in NEIGHBORHOOD_RANGE and aucs.shape == (2,)


def _per_k_sweep(dataset, name, repeats, base_seed, ks, train_fraction=0.5):
    # reference: a fresh split, fit and AUC for every k and every repeat,
    # keeping the first k whose mean beats every earlier one
    best_k, best_aucs, best_mean = None, None, -np.inf
    for k in ks:
        scorer = make_scorer(name, k=k)
        aucs = np.empty(repeats)
        for r in range(repeats):
            train, test = random_split(dataset, train_fraction, base_seed + r)
            scored = ScoredSet(scorer.fit(train.targets()).novelty(test.X),
                               test.labels)
            aucs[r] = roc_auc(scored)
        if aucs.mean() > best_mean:
            best_k, best_aucs, best_mean = k, aucs, float(aucs.mean())
    return best_k, best_aucs


@pytest.mark.parametrize("name", ["kmeans", "knndd"])
@pytest.mark.parametrize("ks", [NEIGHBORHOOD_RANGE, (4,)])
def test_best_neighborhood_matches_per_k_sweep(name, ks):
    ds = make_synthetic(30, 30, 4, 2.0, seed=22)
    k, aucs = best_neighborhood(ds, name, repeats=4, base_seed=3, ks=ks,
                                train_fraction=0.6)
    ref_k, ref_aucs = _per_k_sweep(ds, name, 4, 3, ks, train_fraction=0.6)
    assert k == ref_k
    np.testing.assert_array_equal(aucs, ref_aucs)


def test_best_neighborhood_first_maximal_mean_wins(monkeypatch):
    ds = make_synthetic(20, 20, 3, 5.0, seed=4)
    means = [np.nan, 0.6, 0.8, 0.7, 0.8, np.nan, 0.5, 0.8]

    def table(dataset, scorers, repeats, base_seed, train_fraction=0.5):
        return np.array(means)[:, None] * np.ones((len(scorers), repeats))

    monkeypatch.setattr(ev, "repeated_aucs", table)
    k, aucs = ev.best_neighborhood(ds, "kmeans", repeats=2, base_seed=0)
    assert k == NEIGHBORHOOD_RANGE[2] == 5
    np.testing.assert_array_equal(aucs, [0.8, 0.8])


def test_repeated_aucs_table_rows_follow_scorers():
    ds = make_synthetic(25, 25, 4, 3.0, seed=23)
    scorers = [OcksrScorer(), make_scorer("kmeans", k=3), make_scorer("knndd", k=3)]
    table = repeated_aucs(ds, scorers, repeats=3, base_seed=5)
    assert table.shape == (3, 3)
    for scorer, row in zip(scorers, table):
        np.testing.assert_array_equal(
            row, repeated_aucs(ds, [scorer], repeats=3, base_seed=5)[0])


def test_one_split_per_repeat(monkeypatch):
    ds = make_synthetic(24, 24, 3, 3.0, seed=24)
    seeds = []

    def counting(dataset, fraction, seed):
        seeds.append(seed)
        return random_split(dataset, fraction, seed)

    monkeypatch.setattr(ev, "random_split", counting)
    best_neighborhood(ds, "knndd", repeats=3, base_seed=0)
    assert seeds == [0, 1, 2]
    seeds.clear()
    bench_run([ds], ["ocksr", "kmeans", "knndd"], 3, 0)
    assert seeds == [0, 1, 2] * 3


def test_friedman_ranks_dominant_method():
    table = [[0.9, 0.8], [0.7, 0.6], [0.95, 0.5]]
    np.testing.assert_array_equal(friedman_ranks(table), [1.0, 2.0])


def test_friedman_ranks_tie_averaged():
    np.testing.assert_array_equal(friedman_ranks([[0.8, 0.8]]), [1.5, 1.5])


def test_friedman_ranks_hand_table():
    table = [
        [0.9, 0.8, 0.7],
        [0.6, 0.9, 0.6],
        [0.7, 0.7, 0.9],
    ]
    # per-dataset ranks: (1, 2, 3), (2.5, 1, 2.5), (2.5, 2.5, 1)
    np.testing.assert_array_equal(friedman_ranks(table),
                                  [2.0, 11.0 / 6.0, 13.0 / 6.0])


def test_friedman_rank_sums_per_dataset():
    rng = np.random.default_rng(6)
    table = rng.uniform(size=(7, 5))
    for row in table:
        assert rankdata(-row).sum() == 15.0
    assert friedman_ranks(table).sum() == pytest.approx(15.0, abs=1e-12)


def test_friedman_needs_two_methods():
    with pytest.raises(ValueError):
        friedman_ranks([[0.5]])


def test_chi_square_reference_case():
    ranks = np.array([2.7, 3.9, 2.7, 3.7, 4.4, 7.8, 5.1, 5.7])
    chi2 = chi_square_from_ranks(ranks, 10)
    assert chi2 == pytest.approx(33.63333333333335, rel=1e-13)
    assert chi_square_p_value(chi2, 7) == pytest.approx(2.0170117345469877e-05,
                                                        rel=1e-5)


def test_friedman_test_end_to_end():
    table = [[0.9, 0.5], [0.8, 0.4], [0.95, 0.3], [0.7, 0.2]]
    res = friedman_test(table)
    np.testing.assert_array_equal(res.average_ranks, [1.0, 2.0])
    # 12 * 4 / (2 * 3) * (1 + 4 - 2 * 9 / 4) = 8 * 0.5 = 4
    assert res.chi_square == pytest.approx(4.0, rel=1e-12)
    assert res.p_value == pytest.approx(0.04550026, rel=1e-6)
    assert res.n_datasets == 4 and res.n_methods == 2


def test_chi_square_p_value_validation():
    with pytest.raises(ValueError):
        chi_square_p_value(1.0, 0)


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


def test_bench_run_failed_cell_recorded(monkeypatch):
    ds = make_synthetic(16, 16, 3, 4.0, seed=12)
    real = ev.repeated_aucs

    def flaky(dataset, scorers, repeats, base_seed, train_fraction=0.5):
        if any(getattr(scorer, "name", "") == "knndd" for scorer in scorers):
            raise RuntimeError("synthetic failure")
        return real(dataset, scorers, repeats, base_seed, train_fraction)

    monkeypatch.setattr(ev, "repeated_aucs", flaky)
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

"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with its measured numbers, so the
whole gate can be read off a single run:

    pytest tests/test_acceptance.py -v -s

Checks with wall-clock budgets measure and report their runtime.
"""

import os
import time
from functools import partial

import numpy as np
import pytest
from scipy.stats import rankdata

from ocksr.cholesky import factor_batch, solve_upper
from ocksr.dataset import l2_normalize, load_csv, make_synthetic, random_split
from ocksr.evaluation import (
    bench_run,
    friedman_test,
    novelties,
    repeated_aucs,
    roc_auc,
)
from ocksr.kernel import KernelSpec, gram, kernel_cross, median_pairwise_distance
from ocksr.model import fit, fit_incremental, fit_supervised
from oracles import R_of, project_train


def solve_spd(K, b):
    """Solve K x = b: factor K with theta = R^-T b, then back substitute."""
    return solve_upper(factor_batch(K, b))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _pair_auc(scores, labels):
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


def _median_time(make_args, call, reps):
    times = []
    for _ in range(reps):
        args = make_args()
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_unsupervised_projections_hit_target():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst_var = worst_dev = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(4, 21))  # d >= 4 keeps the raw Gram numerically PD
        X = rng.standard_normal((n, d))
        model = fit(X, KernelSpec(sigma=median_pairwise_distance(X), delta=0.0))
        assert model.spec.delta == 0.0
        proj = project_train(model)
        worst_var = max(worst_var, float(np.var(proj)))
        worst_dev = max(worst_dev, abs(float(proj.mean()) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_var <= 1e-10 and worst_dev <= 1e-6 and elapsed < 30.0
    _report("unsupervised training projections", ok,
            f"50 sets: max variance {worst_var:.3g} (<=1e-10), "
            f"max |mean-1| {worst_dev:.3g} (<=1e-6), {elapsed:.1f}s (<30s)")


def test_supervised_projections_hit_blocks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    worst_pos = worst_neg = 0.0
    for _ in range(50):
        n_pos = int(rng.integers(15, 151))
        n_neg = int(rng.integers(5, 51))
        d = int(rng.integers(4, 21))
        pos = rng.standard_normal((n_pos, d))
        neg = rng.standard_normal((n_neg, d)) + 3.0
        spec = KernelSpec(sigma=median_pairwise_distance(pos), delta=0.0)
        model = fit_supervised(pos, neg, spec)
        assert model.spec.delta == 0.0
        proj = project_train(model)
        worst_pos = max(worst_pos, float(np.abs(proj[:n_pos] - 1.0).max()))
        worst_neg = max(worst_neg, float(np.abs(proj[n_pos:]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_pos <= 1e-6 and worst_neg <= 1e-6 and elapsed < 30.0
    _report("supervised training projections", ok,
            f"50 sets: max |pos-1| {worst_pos:.3g}, max |neg| {worst_neg:.3g} "
            f"(both <=1e-6), {elapsed:.1f}s (<30s)")


def test_incremental_equals_batch():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_alpha = worst_factor = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 301))
        A = rng.standard_normal((n, n + 5))
        K = A @ A.T / n + 0.5 * np.eye(n)
        nu = np.ones(n)
        start = int(rng.integers(1, n))
        f = factor_batch(K[:start, :start].copy(), nu[:start])
        m = start
        while m < n:  # arbitrary append schedule: one block per random chunk
            step = int(rng.integers(1, min(16, n - m) + 1))
            f = factor_batch(K[m: m + step, : m + step], nu[m: m + step], f)
            m += step
        g = factor_batch(K, nu)
        worst_factor = max(worst_factor, float(np.abs(R_of(f) - R_of(g)).max()))
        worst_alpha = max(worst_alpha, float(np.abs(solve_upper(f) - solve_upper(g)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_alpha <= 1e-9 and worst_factor <= 1e-9 and elapsed < 60.0
    _report("incremental vs batch", ok,
            f"20 systems: max |alpha diff| {worst_alpha:.3g}, "
            f"max |factor diff| {worst_factor:.3g} (both <=1e-9), "
            f"{elapsed:.1f}s (<60s)")


def test_cholesky_reconstruction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 201))
        A = rng.standard_normal((n, n + 3))
        K = A @ A.T + 0.1 * np.eye(n)
        R = R_of(factor_batch(K.copy(), np.ones(n)))
        worst = max(worst, float(np.linalg.norm(R.T @ R - K) / np.linalg.norm(K)))
    ok = worst <= 1e-10
    _report("cholesky reconstruction", ok,
            f"100 matrices: max relative Frobenius error {worst:.3g} (<=1e-10)")


def test_response_scale_invariance():
    ds = make_synthetic(80, 80, 6, 3.0, seed=21)
    train, test = random_split(ds, 0.5, seed=77)
    X = train.targets()
    spec = KernelSpec(sigma=median_pairwise_distance(X), delta=0.0)
    K = gram(X, spec)[0]  # solve_spd reads its lower triangle
    Kz = kernel_cross(X, test.X, spec)
    aucs = {}
    for c in (1.0, 0.5, 3.0, -2.0):
        alpha_c = solve_spd(K.copy(), np.full(X.shape[0], c))
        novelty = np.abs(Kz @ alpha_c - c)
        aucs[c] = roc_auc(novelty, test.labels)
    ok = all(aucs[c] == aucs[1.0] for c in (0.5, 3.0, -2.0))
    _report("response scale invariance", ok,
            f"AUC {aucs[1.0]:.6f} bit-identical across c in {{0.5, 3, -2}}"
            if ok else f"AUCs diverge: {aucs}")


def test_auc_agrees_with_pair_oracle():
    rng = np.random.default_rng(31)
    mismatch = None
    for i in range(200):
        m = int(rng.integers(2, 200))
        n_out = int(rng.integers(1, m))
        labels = np.concatenate([np.zeros(n_out, np.int64),
                                 np.ones(m - n_out, np.int64)])
        rng.shuffle(labels)
        scores = rng.uniform(size=m)
        if i % 2:
            scores = np.round(scores, 1)  # heavy ties on half the sets
        if roc_auc(scores, labels) != _pair_auc(scores, labels):
            mismatch = i
            break
    ok = mismatch is None
    _report("auc vs quadratic oracle", ok,
            "200 scored sets incl. ties: exact equality" if ok
            else f"mismatch at set {mismatch}")


def test_detection_quality_on_synthetic():
    t0 = time.perf_counter()
    sep6 = make_synthetic(100, 100, 10, 6.0, seed=42)
    aucs6 = repeated_aucs(sep6, partial(novelties, "ocksr"), repeats=100,
                          base_seed=500)[0]
    sep0 = make_synthetic(100, 100, 10, 0.0, seed=42)
    aucs0 = repeated_aucs(sep0, partial(novelties, "ocksr"), repeats=100,
                          base_seed=500)[0]
    elapsed = time.perf_counter() - t0
    mean6, mean0 = float(aucs6.mean()), float(aucs0.mean())
    ok = mean6 >= 0.99 and 0.45 <= mean0 <= 0.55 and elapsed < 120.0
    _report("detection quality", ok,
            f"separation-6 mean AUC {mean6:.5f} (>=0.99), "
            f"separation-0 mean AUC {mean0:.5f} (in [0.45, 0.55]), "
            f"{elapsed:.1f}s (<2min)")


def test_cost_scaling():
    rng = np.random.default_rng(3)
    d = 1024
    Xa = rng.standard_normal((800, d))
    Xb = rng.standard_normal((1600, d))
    spec = KernelSpec(sigma=float(np.sqrt(d)), delta=1e-8)
    # alpha is solved when first read: every timed fit and the gated
    # append read it, so each reading includes the back substitution
    t_small = _median_time(lambda: (), lambda: fit(Xa, spec).alpha, 5)
    t_big = _median_time(lambda: (), lambda: fit(Xb, spec).alpha, 5)
    ratio = t_big / t_small

    n, d2 = 1000, 2048
    X = rng.standard_normal((n, d2))
    row = rng.standard_normal((1, d2))
    spec2 = KernelSpec(sigma=float(np.sqrt(d2)), delta=1e-8)
    stacked = np.vstack([X, row])
    t_refit = _median_time(lambda: (), lambda: fit(stacked, spec2).alpha, 5)

    def time_appends(call):
        base_iter = iter([fit(X, spec2) for _ in range(5)])
        return _median_time(lambda: (next(base_iter),), call, 5)

    t_append = time_appends(lambda m: fit_incremental(m, row).alpha)
    t_bare = time_appends(lambda m: fit_incremental(m, row))
    frac = t_append / t_refit

    ok = 3.0 <= ratio <= 6.0 and frac < 0.05
    _report("cost scaling", ok,
            f"fit(1600)/fit(800) = {ratio:.2f} (in [3, 6]); "
            f"one-row append with its alpha read = {100.0 * frac:.2f}% of refit "
            f"at n=1000 (<5%); without the read {100.0 * t_bare / t_refit:.2f}%")


def test_friedman_hand_table():
    table = np.array([
        [0.90, 0.80, 0.70],
        [0.60, 0.90, 0.60],
        [0.70, 0.70, 0.90],
        [0.95, 0.50, 0.60],
    ])
    # per-dataset ranks: (1,2,3), (2.5,1,2.5), (2.5,2.5,1), (1,3,2)
    manual = np.array([1.75, 2.125, 2.125])
    res = friedman_test(table)
    avg = res.average_ranks
    sums_ok = all(rankdata(-row).sum() == 6.0 for row in table)
    rows_ok = np.array_equal(res.ranks, [[1, 2, 3], [2.5, 1, 2.5],
                                         [2.5, 2.5, 1], [1, 3, 2]])
    ok = bool(np.array_equal(avg, manual) and rows_ok) and sums_ok
    _report("friedman rank aggregation", ok,
            f"average ranks {avg.tolist()} == manual {manual.tolist()}, "
            f"per-dataset ranks match the hand table, rank sums all 6.0")


SONAR_ENV = "OCKSR_SONAR_CSV"


@pytest.mark.skipif(SONAR_ENV not in os.environ,
                    reason=f"set {SONAR_ENV} to a CSV with the label in column 0 "
                           f"(1 = target class) to run this check")
def test_sonar_outranks_kmeans():
    ds = l2_normalize(load_csv(os.environ[SONAR_ENV], label_column=0))
    cells = bench_run([ds], ["ocksr", "kmeans"], 100, 0).cells[ds.name]
    ours, theirs = cells["ocksr"], cells["kmeans"]
    ok = ours.mean > theirs.mean
    _report("sonar vs k-means", ok,
            f"kernel regression mean AUC {ours.mean:.4f} vs "
            f"k-means (k={theirs.param}) {theirs.mean:.4f} over 100 splits")

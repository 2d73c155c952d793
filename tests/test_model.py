import logging
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg.blas import dtpsv

import ocksr.kernel as kernel_module
import ocksr.model as model_module
from ocksr.baselines import kmeans_fit, kpca_fit, kpca_score
from ocksr.cholesky import (
    BLOCK_BORDER_ROWS,
    CholeskyFactor,
    NotPositiveDefinite,
    factor_batch,
    solve_upper,
)
from ocksr.dataset import Dataset
from ocksr.evaluation import friedman_test
from ocksr.kernel import (
    KernelSpec,
    _sq_dists,
    gram,
    kernel_cross,
    median_pairwise_distance,
)
from ocksr.model import (
    DELTA_LADDER,
    Model,
    ModelFormatError,
    calibrate_threshold,
    classify,
    fit,
    fit_incremental,
    fit_supervised,
    load_model,
    save_model,
    score_batch,
)
import oracles
from oracles import R_of, packed_of, project_train, theta_of

# distance at which the unit-bandwidth kernel equals exactly 1/2
HALF_DIST = float(np.sqrt(2.0 * np.log(2.0)))


def test_single_sample_weight_is_one():
    m = fit(np.array([[1.0, 2.0]]), KernelSpec(sigma=1.0))
    np.testing.assert_array_equal(m.alpha, [1.0])
    (p,), (nov,) = score_batch(m, np.array([[1.0, 2.0]]))
    assert p == 1.0 and nov == 0.0


def test_two_point_hand_system():
    # kappa(x1, x2) = 1/2, so [[1, .5], [.5, 1]] alpha = (1, 1)
    # has the closed-form solution alpha = (2/3, 2/3)
    X = np.array([[0.0], [HALF_DIST]])
    m = fit(X, KernelSpec(sigma=1.0))
    np.testing.assert_allclose(m.alpha, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    (p,), (nov,) = score_batch(m, X[:1])
    assert p == pytest.approx(1.0, abs=1e-12)
    assert nov == pytest.approx(0.0, abs=1e-12)


def test_far_probe_has_novelty_one():
    rng = np.random.default_rng(0)
    m = fit(rng.standard_normal((10, 4)), KernelSpec(sigma=1.0))
    (p,), (nov,) = score_batch(m, np.full((1, 4), 1e3))
    assert abs(p) < 1e-12
    assert nov == pytest.approx(1.0, abs=1e-12)


def test_projection_constant_on_training_rows():
    rng = np.random.default_rng(1)
    m = fit(rng.standard_normal((40, 5)), KernelSpec(sigma=2.0))
    proj = project_train(m)
    np.testing.assert_allclose(proj, np.ones(40), atol=1e-6)
    assert float(np.var(proj)) <= 1e-10


def test_supervised_response_blocks():
    rng = np.random.default_rng(2)
    pos = rng.standard_normal((12, 4))
    neg = rng.standard_normal((5, 4)) + 4.0
    m = fit_supervised(pos, neg, KernelSpec(sigma=1.5))
    np.testing.assert_array_equal(m.nu, [1.0] * 12 + [0.0] * 5)
    assert m.n_neg == 5
    proj = project_train(m)
    np.testing.assert_allclose(proj[:12], np.ones(12), atol=1e-6)
    assert np.abs(proj[12:]).max() <= 1e-6


def test_supervised_empty_negatives_reduces_to_fit():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 3))
    spec = KernelSpec(sigma=1.0)
    a = fit_supervised(X, None, spec)
    b = fit(X, spec)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    assert a.n_neg == 0


@given(st.integers(0, 10**6), st.integers(2, 50), st.integers(1, 49), st.booleans())
@settings(max_examples=25, deadline=None)
def test_incremental_matches_batch(seed, n, cut, per_row):
    cut = min(cut, n - 1)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 5))
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    inc = fit(X[:cut], spec)
    if per_row:
        for i in range(cut, n):
            inc = fit_incremental(inc, X[i: i + 1])
    else:
        inc = fit_incremental(inc, X[cut:])
    ref = fit(X, spec)
    assert np.abs(inc.alpha - ref.alpha).max() <= 1e-9
    np.testing.assert_array_equal(inc.X_train, ref.X_train)
    np.testing.assert_array_equal(inc.nu, ref.nu)


def test_incremental_on_supervised_base():
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((20, 4))
    neg = rng.standard_normal((6, 4)) + 3.0
    extra = rng.standard_normal((9, 4))
    spec = KernelSpec(sigma=1.2, delta=1e-8)
    inc = fit_incremental(fit_supervised(pos, neg, spec), extra)
    K = oracles.gram(np.vstack([pos, neg, extra]), spec)
    nu = np.concatenate([np.ones(20), np.zeros(6), np.ones(9)])
    np.testing.assert_allclose(inc.alpha, np.linalg.solve(K, nu), atol=1e-9)
    np.testing.assert_array_equal(inc.nu, nu)
    assert inc.n_neg == 6


def test_incremental_branches_share_base():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((15, 4))
    spec = KernelSpec(sigma=1.0, delta=1e-8)
    base = fit(X[:10], spec)
    a = fit_incremental(base, X[10:12])
    b = fit_incremental(base, X[12:])  # second branch off the same base
    np.testing.assert_allclose(a.alpha, fit(X[:12], spec).alpha, atol=1e-9)
    ref_b = fit(np.vstack([X[:10], X[12:]]), spec)
    np.testing.assert_allclose(b.alpha, ref_b.alpha, atol=1e-9)


@given(st.integers(0, 10**6), st.integers(1, 30),
       st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=25, deadline=None)
def test_interleaved_branches_match_their_batch_fits(seed, n, branches):
    # every branch grows from one parent in chunks, the branches taking
    # turns, so each append finds the shared buffers' tip somewhere else
    rng = np.random.default_rng(seed)
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    X = rng.standard_normal((n, 5))
    base = fit(X, spec)
    base_alpha = base.alpha.copy()
    rows = [[rng.standard_normal((k, 5)) for k in chunks] for chunks in branches]
    models = [base] * len(branches)
    for step in range(max(len(chunks) for chunks in branches)):
        for b, chunks in enumerate(rows):
            if step < len(chunks):
                models[b] = fit_incremental(models[b], chunks[step])
    Z = rng.standard_normal((4, 5))
    for model, chunks in zip(models, rows):
        X_all = np.vstack([X] + chunks)
        np.testing.assert_array_equal(model.X_train, X_all)
        ref = fit(X_all, spec)
        assert np.abs(model.alpha - ref.alpha).max() <= 1e-9
        # a branch scores against the shifted rows its appends wrote into
        # the shared tails, the batch fit against its own: the same rows,
        # and kernel values are at most 1, so the projections differ by at
        # most the alphas' l1 gap plus each side's rounding of the sum
        gap = (np.abs(model.alpha - ref.alpha).sum()
               + 2 * len(X_all) * np.finfo(float).eps * np.abs(ref.alpha).sum())
        assert np.abs(score_batch(model, Z)[0] - score_batch(ref, Z)[0]).max() <= gap
    np.testing.assert_array_equal(base.X_train, X)
    np.testing.assert_array_equal(base.alpha, base_alpha)


def _race(make_base, append, n_threads):
    """Call ``append(base, i)`` on n_threads threads released at once."""
    base = make_base()
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(i):
        barrier.wait(timeout=60)
        try:
            results[i] = append(base, i)
        except Exception as exc:  # surfaced by the caller's comparison
            results[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return results


def test_concurrent_appends_from_one_base_match_batch():
    # appends from one base on several threads must each claim their own
    # slots; a frequent GIL switch lets the threads interleave finely
    rng = np.random.default_rng(20)
    n, d, n_threads, trials = 400, 16, 4, 40
    spec = KernelSpec(sigma=float(np.sqrt(d)), delta=1e-8)
    X = rng.standard_normal((n, d))
    new = rng.standard_normal((n_threads, d))
    refs = [fit(np.vstack([X, new[i]]), spec) for i in range(n_threads)]
    K = gram(np.vstack([X, new]), spec)[0]  # factor_batch reads the lower triangle
    ones = np.ones(n + 1)
    ref_factors = [
        R_of(factor_batch(K[np.r_[:n, n + i]][:, np.r_[:n, n + i]], ones))
        for i in range(n_threads)]

    def extend_model(base, i):
        return fit_incremental(base, new[i: i + 1])

    def extend_factor(base, i):
        row = np.append(K[n + i, :n], K[n + i, n + i])[None, :]
        return factor_batch(row, ones[:1], base)

    bad_models = bad_factors = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            for i, got in enumerate(_race(lambda: fit(X, spec), extend_model,
                                          n_threads)):
                bad_models += not (
                    isinstance(got, Model)
                    and np.array_equal(got.X_train[n], new[i])
                    and np.abs(got.alpha - refs[i].alpha).max() <= 1e-9)
            for i, got in enumerate(_race(
                    lambda: factor_batch(K[:n, :n], ones[:n]),
                    extend_factor, n_threads)):
                bad_factors += not (
                    isinstance(got, CholeskyFactor)
                    and np.abs(R_of(got) - ref_factors[i]).max() <= 1e-9)
    finally:
        sys.setswitchinterval(interval)
    assert (bad_models, bad_factors) == (0, 0)


def test_concurrent_failed_borders_overwrite_no_factor():
    # half the threads border a base by three rows whose last repeats a base
    # row, so their chains claim the tails' tips, fail and give the tips
    # back; the others border it by two good rows.  Every factor must keep
    # its entries through one more extension of the base by another row
    rng = np.random.default_rng(21)
    n, d, n_threads, trials = 200, 8, 4, 40
    X = rng.standard_normal((n + 4, d))
    X[n + 2] = X[5]
    K = gram(X, KernelSpec(sigma=float(np.sqrt(d))))[0]  # read below the diagonal
    ones = np.ones(n + 4)
    late = np.append(K[n + 3, :n], K[n + 3, n + 3])[None, :]
    bases = []

    def make_base():
        bases.append(factor_batch(K[:n, :n].copy(), ones[:n]))
        return bases[-1]

    def border(base, i):
        if i % 2:
            return factor_batch(K[n: n + 3, : n + 3].copy(), ones[n: n + 3], base)
        return factor_batch(K[n: n + 2, : n + 2].copy(), ones[n: n + 2], base)

    ref = border(make_base(), 0)
    ref_packed, ref_theta = packed_of(ref).copy(), theta_of(ref).copy()
    bad = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            results = _race(make_base, border, n_threads)
            factor_batch(late.copy(), ones[:1], bases[-1])
            for i, got in enumerate(results):
                if i % 2:
                    bad += not isinstance(got, NotPositiveDefinite)
                else:
                    bad += not (isinstance(got, CholeskyFactor)
                                and np.array_equal(packed_of(got), ref_packed)
                                and np.array_equal(theta_of(got), ref_theta))
    finally:
        sys.setswitchinterval(interval)
    assert bad == 0


def test_incremental_empty_append_returns_model():
    m = fit(np.random.default_rng(6).standard_normal((8, 4)), KernelSpec(sigma=1.0))
    assert fit_incremental(m, np.empty((0, 4))) is m


def test_incremental_dimension_mismatch():
    m = fit(np.random.default_rng(7).standard_normal((8, 4)), KernelSpec(sigma=1.0))
    with pytest.raises(ValueError):
        fit_incremental(m, np.ones((2, 3)))


def test_incremental_duplicate_row_rejected():
    X = np.random.default_rng(8).standard_normal((10, 4))
    m = fit(X, KernelSpec(sigma=1.0))  # delta stays 0: appends have no ladder
    with pytest.raises(NotPositiveDefinite):
        fit_incremental(m, X[3:4])


def test_classify_threshold_inclusive():
    m = fit(np.array([[0.0], [HALF_DIST]]), KernelSpec(sigma=1.0))
    Z = np.array([[10.0], [0.0]])  # a far probe, then the first training row
    _, nov = score_batch(m, Z)
    assert classify(nov, nov[0])[0]  # boundary counts as target
    assert not classify(nov, nov[0] * 0.999)[0]
    assert classify(nov, 0.5)[1]


def test_classify_tau_validation():
    m = fit(np.array([[0.0]]), KernelSpec())
    _, nov = score_batch(m, np.array([[0.0]]))
    with pytest.raises(ValueError):
        classify(nov, -0.1)
    with pytest.raises(ValueError):
        classify(nov, float("nan"))


def test_score_batch_matches_scalar_score():
    rng = np.random.default_rng(9)
    m = fit(rng.standard_normal((15, 4)), KernelSpec(sigma=1.3, delta=1e-8))
    Z = rng.standard_normal((6, 4))
    proj, nov = score_batch(m, Z)
    for i, z in enumerate(Z):
        (p,), (v,) = score_batch(m, z[None, :])
        assert p == pytest.approx(proj[i], rel=1e-12, abs=1e-15)
        assert v == pytest.approx(nov[i], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("probes", [1, 127, 128, 129, 300])
@given(st.integers(0, 10**6), st.integers(1, 12))
@settings(max_examples=5, deadline=None)
def test_chunked_scoring_matches_the_whole_cross_kernel(tmp_path_factory, probes,
                                                        seed, d):
    # score_batch takes 128 probes at a time against the row norms the
    # model holds, the oracle the whole cross kernel at once; the BLAS
    # products round differently, so each projection may move, by at
    # most 8 eps sum_i |k(z, x_i) alpha_i|
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((150, d))
    spec = KernelSpec(sigma=median_pairwise_distance(X), delta=1e-8)
    fitted = fit(X, spec)
    appended = fit_incremental(fitted, rng.standard_normal((30, d)))  # norms grew
    path = str(tmp_path_factory.mktemp("model") / "m.bin")
    save_model(appended, path)
    loaded = load_model(path)  # no tails: its norms are computed
    assert loaded.tails is None
    Z = rng.standard_normal((probes, d))
    eps = np.finfo(np.float64).eps
    for model in (fitted, appended, loaded):
        proj, nov = score_batch(model, Z)
        scale = np.abs(kernel_cross(model.X_train, Z, spec)) @ np.abs(model.alpha)
        assert (np.abs(proj - oracles.project(model, Z)) <= 8 * eps * scale).all()
        np.testing.assert_array_equal(nov, np.abs(proj - 1.0))


def _traced_peak(call):
    """call's result and the most memory tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_fit_gram_is_the_only_n_by_n_array():
    # a fit holds K and the packed factor it writes (half of K, with
    # spare capacity for appends); scoring takes 128 probes at a time and
    # a block append reads the packed factor by panels, so neither holds
    # an n x n array.  Peaks are above the inputs, made before tracing.
    rng = np.random.default_rng(45)
    n, d = 800, 64
    X, Z, X_new = (rng.standard_normal((k, d)) for k in (n, n, 64))
    spec = KernelSpec(sigma=float(np.sqrt(2.0 * d)), delta=1e-8)
    nn = 8 * n * n  # the bytes of one n x n float64 array
    # a "median" fit takes its bandwidth from K's own triangle: the pair
    # vector it partitions is freed before the factor is written
    _, peak = _traced_peak(lambda: fit(X, replace(spec, sigma="median")))
    assert peak < 1.75 * nn
    model, peak = _traced_peak(lambda: fit(X, spec))
    assert peak < 1.75 * nn
    _, peak = _traced_peak(lambda: score_batch(model, Z))
    assert peak < nn / 4
    _, peak = _traced_peak(lambda: fit_incremental(model, X_new))
    assert peak < nn / 4


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_permuting_training_rows_permutes_weights(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((20, 5))
    perm = rng.permutation(20)
    spec = KernelSpec(sigma=1.4, delta=1e-8)
    a, b = fit(X, spec), fit(X[perm], spec)
    assert np.abs(b.alpha - a.alpha[perm]).max() <= 1e-10
    z = rng.standard_normal((1, 5))
    assert abs(score_batch(a, z)[1][0] - score_batch(b, z)[1][0]) <= 1e-10


def test_projection_lipschitz_bound():
    rng = np.random.default_rng(10)
    m = fit(rng.standard_normal((25, 4)), KernelSpec(sigma=1.1, delta=1e-8))
    # the kernel's slope along any ray peaks at exp(-1/2) / sigma
    L = float(np.abs(m.alpha).sum()) * np.exp(-0.5) / m.spec.sigma
    for _ in range(3):
        z = rng.standard_normal((1, 4))
        eta = rng.standard_normal((1, 4))
        eta *= 1e-4 / np.linalg.norm(eta)
        dp = abs(score_batch(m, z + eta)[0][0] - score_batch(m, z)[0][0])
        assert dp <= L * float(np.linalg.norm(eta)) + 1e-4


def test_calibrate_rejection_zero_takes_max():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((12, 4))
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    tau = calibrate_threshold(X, spec, 0.0)
    held_out = []
    for i in range(12):
        keep = np.delete(np.arange(12), i)
        held_out.append(score_batch(fit(X[keep], spec), X[i: i + 1])[1][0])
    assert tau == pytest.approx(max(held_out), rel=1e-12)


def test_calibrate_hits_requested_rejection_rate():
    rng = np.random.default_rng(12)
    X = 0.3 * rng.standard_normal((60, 4))
    spec = KernelSpec(sigma=1.0, delta=1e-8)
    tau = calibrate_threshold(X, spec, 0.1)
    held_out = np.array([
        score_batch(fit(np.delete(X, i, axis=0), spec), X[i: i + 1])[1][0]
        for i in range(60)
    ])
    frac = float((held_out > tau).mean())
    assert abs(frac - 0.1) <= 0.02


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate_threshold(np.zeros((2, 2)), KernelSpec(), 0.1)
    X = np.random.default_rng(13).standard_normal((5, 2))
    with pytest.raises(ValueError):
        calibrate_threshold(X, KernelSpec(), 1.0)
    with pytest.raises(ValueError):
        calibrate_threshold(X, KernelSpec(), -0.1)


def _pinned_refit_tau(X, spec, target_rejection):
    """Leave-one-out tau by brute force: one refit per held-out row.

    Every held-out fit is pinned at the effective delta of the fit on
    all rows, the rule the closed form follows.
    """
    pinned = replace(spec, delta=fit(X, spec).spec.delta)
    novelties = []
    for i in range(X.shape[0]):
        held_out = fit(np.delete(X, i, axis=0), pinned)
        assert held_out.spec.delta == pinned.delta
        novelties.append(score_batch(held_out, X[i: i + 1])[1][0])
    return float(np.quantile(novelties, 1.0 - target_rejection))


@given(st.integers(0, 10**6), st.integers(3, 40), st.integers(1, 6),
       st.floats(0.5, 2.0), st.sampled_from([1e-6, 1e-4]), st.floats(0.0, 0.5))
@settings(max_examples=100, deadline=None)
def test_calibrate_matches_pinned_refit_oracle(seed, n, d, sigma_scale, delta,
                                               rejection):
    X = np.random.default_rng(seed).standard_normal((n, d))
    spec = KernelSpec(sigma=sigma_scale * median_pairwise_distance(X), delta=delta)
    # both paths lose about eps * cond digits; keep to well-conditioned
    # sets (gram already adds delta to the diagonal: K + delta I)
    K = oracles.gram(X, spec)
    assume(np.linalg.cond(K) <= 1e6)
    tau = calibrate_threshold(X, spec, rejection)
    assert tau == pytest.approx(_pinned_refit_tau(X, spec, rejection), rel=1e-9)


@pytest.mark.parametrize("rejection", [0.0, 0.25])
def test_calibrate_duplicate_rows_use_escalated_delta(rejection):
    X = np.random.default_rng(14).standard_normal((12, 3))
    X[7] = X[2]
    spec = KernelSpec(sigma=median_pairwise_distance(X), delta=0.0)
    assert fit(X, spec).spec.delta == DELTA_LADDER[0]
    tau = calibrate_threshold(X, spec, rejection)
    # cond(K + 1e-8 I) is 7.8e8, but the ill-conditioned direction only
    # touches the duplicate pair, whose held-out novelties are tiny and
    # sit below both quantiles; the paths agreed to 7e-14 on 12 seeds
    assert tau == pytest.approx(_pinned_refit_tau(X, spec, rejection), rel=1e-9)


def test_calibrate_factors_once(monkeypatch):
    calls = []

    def counting(K, *args):
        calls.append(K.shape)
        return factor_batch(K, *args)

    monkeypatch.setattr(model_module, "factor_batch", counting)
    X = np.random.default_rng(15).standard_normal((30, 3))
    calibrate_threshold(X, KernelSpec(sigma=1.0, delta=1e-6), 0.1)
    assert calls == [(30, 30)]


def test_calibrate_raises_when_every_rung_fails(monkeypatch):
    calls = []

    def singular(K, *args):
        calls.append(K.shape)
        raise NotPositiveDefinite(1)

    monkeypatch.setattr(model_module, "factor_batch", singular)
    X = np.random.default_rng(16).standard_normal((10, 2))
    with pytest.raises(NotPositiveDefinite):
        calibrate_threshold(X, KernelSpec(sigma=1.0), 0.1)
    assert len(calls) == 1 + len(DELTA_LADDER)


def test_delta_ladder_escalates_on_duplicates(caplog):
    X = np.zeros((4, 3))
    X[2:] = 1.0  # two duplicate pairs make the raw system singular
    with caplog.at_level(logging.WARNING, logger="ocksr.model"):
        m = fit(X, KernelSpec(sigma=1.0, delta=0.0))
    assert m.spec.delta in DELTA_LADDER
    assert any("escalated" in rec.getMessage() for rec in caplog.records)
    np.testing.assert_allclose(project_train(m), np.ones(4), atol=1e-4)


def test_escalated_fit_matches_direct_fit_at_that_delta():
    # a failed rung consumed its Gram matrix and the next one builds its
    # own, so a failed rung must leave nothing behind in the next one
    X = np.random.default_rng(21).standard_normal((12, 3))
    X[5] = X[2]
    X[9] = X[2]
    esc = fit(X, KernelSpec(sigma=1.0, delta=0.0))
    assert esc.spec.delta in DELTA_LADDER
    direct = fit(X, esc.spec)
    assert direct.spec == esc.spec
    np.testing.assert_array_equal(esc.alpha, direct.alpha)
    np.testing.assert_array_equal(packed_of(esc.factor), packed_of(direct.factor))


def test_featureless_rows_fit_append_and_score():
    # zero features: every row coincides, and the BLAS products are skipped
    spec = KernelSpec(delta=0.5)
    inc = fit_incremental(fit(np.zeros((3, 0)), spec), np.zeros((1, 0)))
    ref = fit(np.zeros((4, 0)), spec)
    np.testing.assert_allclose(inc.alpha, ref.alpha, rtol=1e-12)
    np.testing.assert_allclose(inc.alpha, np.full(4, 1.0 / 4.5), rtol=1e-12)
    proj, _ = score_batch(inc, np.zeros((2, 0)))
    np.testing.assert_allclose(proj, np.full(2, 4.0 / 4.5), rtol=1e-12)


def test_requested_delta_retained():
    X = np.random.default_rng(14).standard_normal((10, 4))
    m = fit(X, KernelSpec(sigma=1.0, delta=1e-6))
    assert m.spec.delta == 1e-6


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    m = fit(rng.standard_normal((9, 3)), KernelSpec(sigma=1.7, delta=1e-8))
    path = str(tmp_path / "m.bin")
    save_model(m, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.X_train, m.X_train)
    np.testing.assert_array_equal(back.alpha, m.alpha)
    np.testing.assert_array_equal(back.nu, m.nu)
    assert back.spec == m.spec and back.tau is None and back.n_neg == 0
    Z = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(score_batch(back, Z)[1], score_batch(m, Z)[1])


def test_save_load_with_tau_and_negatives(tmp_path):
    rng = np.random.default_rng(16)
    m = fit_supervised(rng.standard_normal((6, 3)),
                       rng.standard_normal((3, 3)) + 2.0,
                       KernelSpec(sigma=1.0, delta=1e-8))
    m = Model(m.X_train, m.alpha, m.nu, m.spec, tau=0.25)
    path = str(tmp_path / "m.bin")
    save_model(m, path)
    back = load_model(path)
    assert back.tau == 0.25 and back.n_neg == 3
    np.testing.assert_array_equal(back.nu, m.nu)


def test_save_reorders_rows_positives_first(tmp_path):
    rng = np.random.default_rng(17)
    base = fit_supervised(rng.standard_normal((5, 3)),
                          rng.standard_normal((2, 3)) + 2.0,
                          KernelSpec(sigma=1.0, delta=1e-8))
    m = fit_incremental(base, rng.standard_normal((4, 3)))
    assert not np.all(m.nu[:-1] >= m.nu[1:])  # interleaved before saving
    path = str(tmp_path / "m.bin")
    save_model(m, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.nu, [1.0] * 9 + [0.0] * 2)
    Z = rng.standard_normal((6, 3))
    np.testing.assert_allclose(score_batch(back, Z)[1], score_batch(m, Z)[1],
                               rtol=0, atol=1e-12)


def test_n_neg_is_the_zero_count_of_nu(tmp_path):
    rng = np.random.default_rng(18)
    spec = KernelSpec(sigma=1.0, delta=1e-8)
    pos, neg = rng.standard_normal((7, 3)), rng.standard_normal((3, 3)) + 2.0
    supervised = fit_supervised(pos, neg, spec)
    grown = fit_incremental(supervised, rng.standard_normal((2, 3)))
    path = str(tmp_path / "m.bin")
    save_model(grown, path)
    for model, count in ((fit(pos, spec), 0), (supervised, 3), (grown, 3),
                         (load_model(path), 3)):
        assert model.n_neg == count == np.count_nonzero(model.nu == 0.0)


def test_save_refuses_a_response_other_than_zeros_and_ones(tmp_path):
    # OCKSR1 stores the response as a count of negative rows
    m = fit(np.random.default_rng(19).standard_normal((4, 2)), KernelSpec(sigma=1.0))
    path = tmp_path / "m.bin"
    with pytest.raises(ValueError, match="0s and 1s"):
        save_model(Model(m.X_train, m.alpha, [1.0, 0.5, 1.0, 0.0], m.spec), str(path))
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_append_to_loaded_non_finite_model_rejected(tmp_path, bad):
    # a model file is outside input: its rows are checked before factoring
    X = np.random.default_rng(22).standard_normal((6, 2))
    m = fit(X, KernelSpec(sigma=1.0, delta=1e-6))
    X_bad = X.copy()
    X_bad[3, 1] = bad
    path = str(tmp_path / "nan.bin")
    save_model(Model(X_bad, m.alpha, m.nu, m.spec), path)
    with pytest.raises(ValueError, match="non-finite"):
        fit_incremental(load_model(path), np.zeros((1, 2)))


@pytest.mark.parametrize("where,bad", [("rows", np.nan), ("rows", -np.inf),
                                       ("alpha", np.inf), ("tau", np.nan)])
def test_load_rejects_non_finite_values(tmp_path, where, bad):
    X = np.random.default_rng(23).standard_normal((5, 2))
    m = fit(X, KernelSpec(sigma=1.0, delta=1e-8))
    X, alpha, tau = X.copy(), m.alpha.copy(), 0.5
    if where == "rows":
        X[2, 1] = bad
    elif where == "alpha":
        alpha[3] = bad
    else:
        tau = bad
    path = str(tmp_path / "bad.bin")
    save_model(Model(X, alpha, m.nu, m.spec, tau=tau), path)
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(path)


@pytest.mark.parametrize("field,value,message", [
    ("sigma", np.nan, "sigma"), ("sigma", 0.0, "sigma"), ("sigma", -1.0, "sigma"),
    ("delta", -1e-8, "delta"), ("n_neg", 6, "6 of them negative"),
    ("n", 0, "0 rows"), ("family", 2, "unknown kernel family code 2"),
    ("tau", -0.5, "negative or non-finite threshold -0.5"),
    ("tau", -np.inf, "negative or non-finite threshold"),
    # OCKSR1 defines flag bit 0 (tau present) only
    ("flags", 6, "unknown header flags 6"), ("flags", 7, "unknown header flags 7"),
])
def test_load_rejects_bad_header_fields(tmp_path, field, value, message):
    m = fit(np.random.default_rng(25).standard_normal((5, 2)),
            KernelSpec(sigma=1.0, delta=1e-8))
    path = tmp_path / "bad.bin"
    save_model(replace(m, tau=0.5), str(path))
    blob = bytearray(path.read_bytes())
    if field == "n":  # a header with no rows, and so no payload
        del blob[48:]
    fmt, offset = {"sigma": ("<d", 8), "delta": ("<d", 16), "n": ("<Q", 24),
                   "n_neg": ("<Q", 32), "family": ("<B", 6), "flags": ("<B", 7),
                   "tau": ("<d", 48)}[field]
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match=message) as exc:
        load_model(str(path))
    assert str(exc.value).startswith(f"{path}: ")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAG" + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_load_rejects_truncation(tmp_path):
    rng = np.random.default_rng(18)
    m = fit(rng.standard_normal((5, 2)), KernelSpec(sigma=1.0))
    path = tmp_path / "m.bin"
    save_model(m, str(path))
    blob = path.read_bytes()
    body_cut = tmp_path / "t.bin"
    body_cut.write_bytes(blob[:-8])
    with pytest.raises(ModelFormatError):
        load_model(str(body_cut))
    head_cut = tmp_path / "s.bin"
    head_cut.write_bytes(blob[:10])
    with pytest.raises(ModelFormatError):
        load_model(str(head_cut))


def test_load_then_append_matches_batch(tmp_path):
    rng = np.random.default_rng(19)
    X = rng.standard_normal((30, 4))
    spec = KernelSpec(sigma=1.2, delta=1e-8)
    path = str(tmp_path / "m.bin")
    save_model(fit(X[:20], spec), path)
    inc = fit_incremental(load_model(path), X[20:])
    ref = fit(X, spec)
    assert np.abs(inc.alpha - ref.alpha).max() <= 1e-9


def test_append_without_caches_solves_once_at_stored_delta(tmp_path, monkeypatch):
    # loaded or built directly, a model has no factor: the stored rows
    # (positives, negatives) and the new ones are solved together once
    rng = np.random.default_rng(24)
    pos, neg, extra = (rng.standard_normal((12, 3)), rng.standard_normal((4, 3)) + 2.0,
                       rng.standard_normal((5, 3)))
    spec = KernelSpec(sigma=1.1, delta=1e-8)
    base = fit_supervised(pos, neg, spec)
    path = str(tmp_path / "m.bin")
    save_model(replace(base, tau=0.3), path)
    calls = []

    def counting(K_rows, *args):
        calls.append(K_rows.shape)
        return factor_batch(K_rows, *args)

    monkeypatch.setattr(model_module, "factor_batch", counting)
    direct = Model(base.X_train, base.alpha, base.nu, base.spec)
    for source in (load_model(path), direct):
        inc = fit_incremental(source, extra)
        nu = np.concatenate([np.ones(12), np.zeros(4), np.ones(5)])
        np.testing.assert_array_equal(inc.nu, nu)
        np.testing.assert_array_equal(inc.X_train, np.vstack([pos, neg, extra]))
        K = oracles.gram(inc.X_train, spec)
        np.testing.assert_allclose(inc.alpha, np.linalg.solve(K, nu), atol=1e-9)
        assert inc.n_neg == 4 and inc.spec == spec and inc.tau == source.tau
        # the result carries caches: the next append borders its factor
        again = fit_incremental(inc, extra[:2] + 0.5)
        K = oracles.gram(again.X_train, spec)
        np.testing.assert_allclose(again.alpha, np.linalg.solve(K, again.nu),
                                   atol=1e-9)
    # one factorization of all 21 rows, then one border by 2 rows onto it
    assert calls == [(21, 21), (2, 23)] * 2


def test_model_validation():
    with pytest.raises(ValueError):
        Model(np.zeros((2, 2)), np.zeros(3), np.ones(2), KernelSpec())
    with pytest.raises(TypeError):  # the count is read from nu
        Model(np.zeros((2, 2)), np.zeros(2), np.ones(2), KernelSpec(), n_neg=1)
    with pytest.raises(ValueError, match="median"):  # a fit resolves it first
        Model(np.zeros((2, 2)), np.zeros(2), np.ones(2), KernelSpec(sigma="median"))


def test_model_and_dataset_leave_caller_arrays_writable():
    X = np.random.default_rng(20).standard_normal((4, 3))
    alpha, nu, labels = np.zeros(4), np.ones(4), np.array([1, 1, 0, 0])
    model = Model(X, alpha, nu, KernelSpec())
    ds = Dataset(X, labels)
    for caller in (X, alpha, nu, labels):
        assert caller.flags.writeable
    for frozen in (model.X_train, model.alpha, model.nu, ds.X, ds.labels):
        assert not frozen.flags.writeable
    with pytest.raises(ValueError):
        model.X_train[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.X[0, 0] = 1.0
    # no copy: a direct Model and Dataset share the caller's memory
    assert np.shares_memory(model.X_train, X) and np.shares_memory(ds.X, X)


def test_array_records_compare_and_hash_by_identity():
    # field-wise == on array fields would raise; these records compare by
    # identity, so == never raises and every one of them hashes
    rng = np.random.default_rng(21)
    X, spec = rng.standard_normal((12, 3)), KernelSpec(sigma=1.5, delta=1e-8)
    labels = np.r_[np.ones(6, dtype=int), np.zeros(6, dtype=int)]
    builders = [
        lambda: fit(X, spec),
        lambda: Dataset(X, labels),
        lambda: kmeans_fit(X, 3, 0),
        lambda: kpca_fit(X, spec),
        lambda: friedman_test([[0.9, 0.8], [0.7, 0.6]]),
    ]
    for build in builders:
        a, b = build(), build()
        assert (a == b) is False and a != b
        assert a == a
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_fit_is_translation_invariant(tmp_path):
    # rows on a 2^-20 grid stay exact under every offset up to 1e9, and so
    # do the rows and probes shifted by the first row: alpha, scores,
    # appends (scalar and block borders), a loaded model's scores and
    # kpca's are bit-identical.  Unshifted, the expansion of the distances
    # lost them at 1e7, where every rung of the ladder failed.
    rng = np.random.default_rng(60)

    def grid(*shape):
        return np.round(rng.standard_normal(shape) * 2.0**20) / 2.0**20

    def outputs(X, Z, new, block, c):
        m = fit(X + c, spec)
        assert m.spec == spec
        path = tmp_path / "m.bin"
        save_model(m, str(path))
        a, b = fit_incremental(m, new + c), fit_incremental(m, block + c)
        return [m.alpha, score_batch(m, Z + c)[0], a.alpha, score_batch(a, Z + c)[0],
                b.alpha, score_batch(b, Z + c)[0],
                score_batch(load_model(str(path)), Z + c)[0],
                kpca_score(kpca_fit(X + c, spec, q=5), Z + c)]

    X, Y = grid(60, 4), rng.standard_normal((60, 4))
    Z, new, block = grid(40, 4), grid(3, 4), grid(BLOCK_BORDER_ROWS, 4)
    spec = KernelSpec(sigma=1.0)
    ref = outputs(X, Z, new, block, 0.0)
    for c in (1e3, 1e5, 1e7, 1e9):
        for got, want in zip(outputs(X, Z, new, block, c), ref):
            np.testing.assert_array_equal(got, want)
        assert median_pairwise_distance(X + c) == median_pairwise_distance(X)
    # off the grid the offset rounds the rows themselves.  Against the
    # model of (X + c) - c, that rounding cancels: for |x| <= c / 2 both
    # sides' shifted rows are exact (Sterbenz, and differences of
    # multiples of ulp(c) far below 2^53 ulp(c)), so the bound that
    # eps and these rows give is 0
    P, new, block = (rng.standard_normal(shape)
                     for shape in ((40, 4), (3, 4), (BLOCK_BORDER_ROWS, 4)))
    for c in (1e3, 1e5, 1e7, 1e9):
        back = [(A + c) - c for A in (Y, P, new, block)]
        for got, want in zip(outputs(Y, P, new, block, c), outputs(*back, 0.0)):
            np.testing.assert_array_equal(got, want)
    # and the fit against the explicit-difference oracle on the same
    # rounded rows
    for c in (0.0, 1e3, 1e5, 1e7, 1e9):
        m = fit(Y + c, spec)
        ref = oracles.fit_alpha(Y + c, m.spec)
        cond = np.linalg.cond(oracles.gram(Y + c, m.spec))
        assert np.abs(m.alpha - ref).max() <= 1e-12 * cond * np.abs(ref).max()


@given(st.integers(0, 10**6), st.integers(1, 80), st.integers(1, 8),
       st.floats(0.3, 2.0), st.sampled_from([0.0, 1e-8, 1e-4]))
@settings(max_examples=60, deadline=None)
def test_fit_matches_copying_oracle(seed, n, d, sigma_scale, delta):
    # the fit factors its one Gram array in place; the oracle builds K from
    # explicit differences and factors a copy.  Both lose about eps * cond
    # of alpha: the bound is 1e-12 cond(K + delta I) max |alpha|
    X = np.random.default_rng(seed).standard_normal((n, d))
    m = fit(X, KernelSpec(sigma=sigma_scale * median_pairwise_distance(X), delta=delta))
    ref = oracles.fit_alpha(X, m.spec)
    cond = np.linalg.cond(oracles.gram(X, m.spec))
    assert np.abs(m.alpha - ref).max() <= 1e-12 * cond * np.abs(ref).max()


@given(st.integers(0, 10**6), st.integers(3, 40), st.integers(1, 6),
       st.sampled_from([0.0, 1e-8, 1e-4]), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_median_fits_equal_the_resolved_sigma_bit_for_bit(seed, n, d, delta, twins):
    # "median" is resolved from the distances the fit turns into K; a
    # fit given that value instead builds the same K and the same factor
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[rng.integers(n, size=twins)] = X[0]
    sigma = median_pairwise_distance(X)
    median, real = KernelSpec(sigma="median", delta=delta), KernelSpec(sigma, delta)
    a, b = fit(X, median), fit(X, real)
    assert a.spec == b.spec and a.spec.sigma == sigma
    np.testing.assert_array_equal(packed_of(a.factor), packed_of(b.factor))
    np.testing.assert_array_equal(a.alpha, b.alpha)
    assert calibrate_threshold(X, median, 0.1) == calibrate_threshold(X, real, 0.1)
    if n > 3:
        p, q = kpca_fit(X, median, q=2), kpca_fit(X, real, q=2)
        assert p.spec == q.spec == replace(real, delta=0.0)
        Z = rng.standard_normal((5, d))
        np.testing.assert_array_equal(kpca_score(p, Z), kpca_score(q, Z))


def test_a_median_fit_makes_one_distance_pass(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return _sq_dists(*args, **kwargs)

    monkeypatch.setattr(kernel_module, "_sq_dists", counting)
    X = np.random.default_rng(46).standard_normal((30, 4))
    m = fit(X, KernelSpec(sigma="median", delta=1e-8))
    assert calls == [(30, 4)]
    assert m.spec.sigma == median_pairwise_distance(X)


def test_escalating_ladder_resolves_the_median_once(monkeypatch, caplog):
    # the data of test_failed_rung_rebuilds_consumed_gram: the first rung
    # fails at delta = 0, so two K are built, and the second reuses the
    # first one's sigma
    X = np.random.default_rng(14).standard_normal((12, 3))
    X[7] = X[2]
    sigma = median_pairwise_distance(X)
    grams, medians = [], []
    real_median = kernel_module._lower_median

    def counting_gram(X, spec, **kwargs):
        grams.append(spec)
        return gram(X, spec, **kwargs)

    def counting_median(*args):
        medians.append(real_median(*args))
        return medians[-1]

    monkeypatch.setattr(model_module, "gram", counting_gram)
    monkeypatch.setattr(kernel_module, "_lower_median", counting_median)
    with caplog.at_level(logging.WARNING, logger="ocksr.model"):
        m = fit(X, KernelSpec(sigma="median"))
    assert len(caplog.records) == 2  # one failed rung, one escalation
    assert medians == [sigma]
    assert grams == [KernelSpec("median", 0.0), KernelSpec(sigma, DELTA_LADDER[0])]
    assert m.spec == KernelSpec(sigma, DELTA_LADDER[0])


def test_supervised_median_is_the_targets_median():
    rng = np.random.default_rng(47)
    pos, neg = rng.standard_normal((15, 3)), rng.standard_normal((5, 3)) + 4.0
    m = fit_supervised(pos, neg, KernelSpec(sigma="median", delta=1e-8))
    sigma = median_pairwise_distance(pos)
    assert sigma != median_pairwise_distance(np.vstack([pos, neg]))
    ref = fit_supervised(pos, neg, KernelSpec(sigma=sigma, delta=1e-8))
    assert m.spec == ref.spec
    np.testing.assert_array_equal(m.alpha, ref.alpha)


def test_failed_rung_rebuilds_consumed_gram(monkeypatch, caplog):
    # the first rung's factorization consumed its Gram matrix, so the next
    # rung builds a new one; the log reads as when one K served every rung
    grams = []

    def counting(X, spec, **kwargs):
        grams.append(spec.delta)
        return gram(X, spec, **kwargs)

    monkeypatch.setattr(model_module, "gram", counting)
    X = np.random.default_rng(14).standard_normal((12, 3))
    X[7] = X[2]
    spec = KernelSpec(sigma=median_pairwise_distance(X), delta=0.0)
    with caplog.at_level(logging.WARNING, logger="ocksr.model"):
        m = fit(X, spec)
    assert grams == [0.0, DELTA_LADDER[0]]
    assert [rec.getMessage() for rec in caplog.records] == [
        "Gram matrix not positive definite at delta=0 (pivot 7)",
        "regularizer escalated from delta=0 to delta=1e-08",
    ]
    assert m.spec.delta == DELTA_LADDER[0]
    ref = oracles.fit_alpha(X, m.spec)
    cond = np.linalg.cond(oracles.gram(X, m.spec))
    assert np.abs(m.alpha - ref).max() <= 1e-12 * cond * np.abs(ref).max()


def test_alpha_is_solved_on_first_read_only(monkeypatch):
    # fit and appends leave the back substitution to the first read of
    # alpha, which solves once and keeps the result
    calls = []

    def counting(factor):
        calls.append(factor.m)
        return solve_upper(factor)

    monkeypatch.setattr(model_module, "solve_upper", counting)
    rng = np.random.default_rng(40)
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    m = fit(rng.standard_normal((20, 3)), spec)
    for _ in range(5):
        m = fit_incremental(m, rng.standard_normal((1, 3)))
    m = fit_incremental(m, rng.standard_normal((4, 3)))
    assert calls == []
    first = m.alpha
    assert m.alpha is first and calls == [29]
    assert not first.flags.writeable
    score_batch(m, rng.standard_normal((2, 3)))
    assert calls == [29]


@given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_lazy_alpha_is_solve_upper_bit_for_bit(seed, n, m):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    base = fit(rng.standard_normal((n, 4)), spec)
    grown = fit_incremental(base, rng.standard_normal((m, 4)))
    for model in (base, grown):
        # back substitution on the factor's own packed R and theta
        ref = dtpsv(model.n, packed_of(model.factor), theta_of(model.factor),
                    lower=0, trans=0)
        np.testing.assert_array_equal(model.alpha, ref)


def test_chain_read_late_matches_each_batch_fit():
    # the middle models are read only after the chain has grown past them
    # and a branch has been appended to one of them: each still solves
    # from its own factor's prefix of theta
    rng = np.random.default_rng(41)
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    X = rng.standard_normal((60, 4))
    chain = [fit(X[:20], spec)]
    for lo, hi in ((20, 21), (21, 30), (30, 31), (31, 50)):
        chain.append(fit_incremental(chain[-1], X[lo:hi]))
    branch_rows = rng.standard_normal((3, 4))
    branch = fit_incremental(chain[2], branch_rows)  # chain[2] is not the tip
    tip = fit_incremental(chain[-1], X[50:])
    for model in chain + [branch, tip]:
        ref = fit(model.X_train, spec)
        assert np.abs(model.alpha - ref.alpha).max() <= 1e-9
    np.testing.assert_array_equal(branch.X_train, np.vstack([X[:30], branch_rows]))


def test_two_threads_read_one_pending_alpha():
    rng = np.random.default_rng(42)
    spec = KernelSpec(sigma=4.0, delta=1e-8)
    X = rng.standard_normal((300, 16))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = _race(lambda: fit_incremental(fit(X[:-1], spec), X[-1:]),
                        lambda model, i: model.alpha, 2)
            assert all(isinstance(a, np.ndarray) for a in got)
            np.testing.assert_array_equal(got[0], got[1])
    finally:
        sys.setswitchinterval(interval)
    ref = fit(X, spec)
    assert np.abs(got[0] - ref.alpha).max() <= 1e-9


def test_pending_model_replace_save_and_compare(tmp_path):
    rng = np.random.default_rng(43)
    spec = KernelSpec(sigma=1.2, delta=1e-8)
    X = rng.standard_normal((12, 3))
    pending = fit_incremental(fit(X[:10], spec), X[10:])
    with_tau = replace(pending, tau=0.4)
    assert with_tau.tau == 0.4 and with_tau.factor is pending.factor
    np.testing.assert_array_equal(with_tau.alpha, pending.alpha)

    pending = fit_incremental(fit(X[:10], spec), X[10:])
    path = str(tmp_path / "m.bin")
    save_model(pending, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.alpha, pending.alpha)
    np.testing.assert_array_equal(back.X_train, X)

    pending = fit_incremental(fit(X[:10], spec), X[10:])
    assert pending == pending
    assert np.abs(pending.alpha - fit(X, spec).alpha).max() <= 1e-9


def test_given_alpha_is_kept():
    rng = np.random.default_rng(44)
    m = fit(rng.standard_normal((6, 2)), KernelSpec(sigma=1.0, delta=1e-8))
    own = np.arange(6.0)
    for direct in (Model(m.X_train, own, m.nu, m.spec),
                   Model(m.X_train, own, m.nu, m.spec, factor=m.factor, tails=m.tails)):
        np.testing.assert_array_equal(direct.alpha, own)
        assert not direct.alpha.flags.writeable
    with pytest.raises(ValueError):
        Model(m.X_train, None, m.nu, m.spec)
    short = fit(m.X_train[:5], m.spec)
    with pytest.raises(ValueError):
        Model(m.X_train, None, m.nu, m.spec, factor=short.factor, tails=short.tails)

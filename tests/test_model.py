import logging
import struct
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ocksr.model as model_module
from ocksr.cholesky import (
    CholeskyFactor,
    NotPositiveDefinite,
    factor_batch,
    solve_upper,
)
from ocksr.dataset import Dataset
from ocksr.kernel import KernelSpec, gram, median_pairwise_distance
from ocksr.model import (
    DELTA_LADDER,
    Decision,
    Model,
    ModelFormatError,
    calibrate_threshold,
    classify,
    fit,
    fit_incremental,
    fit_supervised,
    load_model,
    save_model,
    score,
    score_batch,
)
import oracles
from oracles import R_of, packed_of, project_train

# distance at which the unit-bandwidth kernel equals exactly 1/2
HALF_DIST = float(np.sqrt(2.0 * np.log(2.0)))


def test_single_sample_weight_is_one():
    m = fit(np.array([[1.0, 2.0]]), KernelSpec(sigma=1.0))
    np.testing.assert_array_equal(m.alpha, [1.0])
    p, nov = score(m, np.array([1.0, 2.0]))
    assert p == 1.0 and nov == 0.0


def test_two_point_hand_system():
    # kappa(x1, x2) = 1/2, so [[1, .5], [.5, 1]] alpha = (1, 1)
    # has the closed-form solution alpha = (2/3, 2/3)
    X = np.array([[0.0], [HALF_DIST]])
    m = fit(X, KernelSpec(sigma=1.0))
    np.testing.assert_allclose(m.alpha, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    p, nov = score(m, X[0])
    assert p == pytest.approx(1.0, abs=1e-12)
    assert nov == pytest.approx(0.0, abs=1e-12)


def test_far_probe_has_novelty_one():
    rng = np.random.default_rng(0)
    m = fit(rng.standard_normal((10, 4)), KernelSpec(sigma=1.0))
    p, nov = score(m, np.full(4, 1e3))
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
    K = gram(np.vstack([pos, neg, extra]), spec)
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
    for model, chunks in zip(models, rows):
        X_all = np.vstack([X] + chunks)
        np.testing.assert_array_equal(model.X_train, X_all)
        assert np.abs(model.alpha - fit(X_all, spec).alpha).max() <= 1e-9
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
    K = gram(np.vstack([X, new]), spec)
    ones = np.ones(n + 1)
    ref_factors = [
        R_of(factor_batch(K[np.r_[:n, n + i]][:, np.r_[:n, n + i]], ones)[0])
        for i in range(n_threads)]
    theta = factor_batch(K[:n, :n], ones[:n])[1]

    def extend_model(base, i):
        return fit_incremental(base, new[i: i + 1])

    def extend_factor(base, i):
        row = np.append(K[n + i, :n], K[n + i, n + i])[None, :]
        return factor_batch(row, ones[:1], base, theta)[0]

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
                    lambda: factor_batch(K[:n, :n], ones[:n])[0],
                    extend_factor, n_threads)):
                bad_factors += not (
                    isinstance(got, CholeskyFactor)
                    and np.abs(R_of(got) - ref_factors[i]).max() <= 1e-9)
    finally:
        sys.setswitchinterval(interval)
    assert (bad_models, bad_factors) == (0, 0)


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
    z = np.array([10.0])
    _, nov = score(m, z)
    assert classify(m, z, nov) is Decision.TARGET  # boundary counts as target
    assert classify(m, z, nov * 0.999) is Decision.OUTLIER
    assert classify(m, m.X_train[0], 0.5) is Decision.TARGET


def test_classify_tau_validation():
    m = fit(np.array([[0.0]]), KernelSpec())
    with pytest.raises(ValueError):
        classify(m, np.array([0.0]), -0.1)
    with pytest.raises(ValueError):
        classify(m, np.array([0.0]), float("nan"))


def test_score_batch_matches_scalar_score():
    rng = np.random.default_rng(9)
    m = fit(rng.standard_normal((15, 4)), KernelSpec(sigma=1.3, delta=1e-8))
    Z = rng.standard_normal((6, 4))
    proj, nov = score_batch(m, Z)
    for i, z in enumerate(Z):
        p, v = score(m, z)
        assert p == pytest.approx(proj[i], rel=1e-12, abs=1e-15)
        assert v == pytest.approx(nov[i], rel=1e-12, abs=1e-15)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_permuting_training_rows_permutes_weights(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((20, 5))
    perm = rng.permutation(20)
    spec = KernelSpec(sigma=1.4, delta=1e-8)
    a, b = fit(X, spec), fit(X[perm], spec)
    assert np.abs(b.alpha - a.alpha[perm]).max() <= 1e-10
    z = rng.standard_normal(5)
    assert abs(score(a, z)[1] - score(b, z)[1]) <= 1e-10


def test_projection_lipschitz_bound():
    rng = np.random.default_rng(10)
    m = fit(rng.standard_normal((25, 4)), KernelSpec(sigma=1.1, delta=1e-8))
    # the kernel's slope along any ray peaks at exp(-1/2) / sigma
    L = float(np.abs(m.alpha).sum()) * np.exp(-0.5) / m.spec.sigma
    for _ in range(3):
        z = rng.standard_normal(4)
        eta = rng.standard_normal(4)
        eta *= 1e-4 / np.linalg.norm(eta)
        dp = abs(score(m, z + eta)[0] - score(m, z)[0])
        assert dp <= L * float(np.linalg.norm(eta)) + 1e-4


def test_calibrate_rejection_zero_takes_max():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((12, 4))
    spec = KernelSpec(sigma=1.5, delta=1e-8)
    tau = calibrate_threshold(X, spec, 0.0)
    held_out = []
    for i in range(12):
        keep = np.delete(np.arange(12), i)
        held_out.append(score(fit(X[keep], spec), X[i])[1])
    assert tau == pytest.approx(max(held_out), rel=1e-12)


def test_calibrate_hits_requested_rejection_rate():
    rng = np.random.default_rng(12)
    X = 0.3 * rng.standard_normal((60, 4))
    spec = KernelSpec(sigma=1.0, delta=1e-8)
    tau = calibrate_threshold(X, spec, 0.1)
    held_out = np.array([
        score(fit(np.delete(X, i, axis=0), spec), X[i])[1] for i in range(60)
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
        novelties.append(score(held_out, X[i])[1])
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
    K = gram(X, spec)
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
    m = Model(m.X_train, m.alpha, m.nu, m.spec, n_neg=m.n_neg, tau=0.25)
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
                   "n_neg": ("<Q", 32), "family": ("<B", 6), "tau": ("<d", 48)}[field]
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
    direct = Model(base.X_train, base.alpha, base.nu, base.spec, n_neg=4)
    for source in (load_model(path), direct):
        inc = fit_incremental(source, extra)
        nu = np.concatenate([np.ones(12), np.zeros(4), np.ones(5)])
        np.testing.assert_array_equal(inc.nu, nu)
        np.testing.assert_array_equal(inc.X_train, np.vstack([pos, neg, extra]))
        K = gram(inc.X_train, spec)
        np.testing.assert_allclose(inc.alpha, np.linalg.solve(K, nu), atol=1e-9)
        assert inc.n_neg == 4 and inc.spec == spec and inc.tau == source.tau
        # the result carries caches: the next append borders its factor
        again = fit_incremental(inc, extra[:2] + 0.5)
        K = gram(again.X_train, spec)
        np.testing.assert_allclose(again.alpha, np.linalg.solve(K, again.nu),
                                   atol=1e-9)
    # one factorization of all 21 rows, then one border by 2 rows onto it
    assert calls == [(21, 21), (2, 23)] * 2


def test_model_validation():
    with pytest.raises(ValueError):
        Model(np.zeros((2, 2)), np.zeros(3), np.ones(2), KernelSpec())
    with pytest.raises(ValueError):
        Model(np.zeros((2, 2)), np.zeros(2), np.ones(2), KernelSpec(), n_neg=5)


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


def test_fit_is_translation_invariant():
    # rows on a 2^-20 grid stay exact under every offset up to 1e9, and so
    # do the rows shifted by the first one: alpha is bit-identical.  On
    # unshifted rows, the expansion of the distances lost them at 1e7,
    # where every rung of the ladder failed.
    rng = np.random.default_rng(60)
    X = np.round(rng.standard_normal((60, 4)) * 2.0**20) / 2.0**20
    spec = KernelSpec(sigma=1.0)
    ref = fit(X, spec)
    assert ref.spec == spec
    for c in (1e3, 1e5, 1e7, 1e9):
        m = fit(X + c, spec)
        assert m.spec == spec
        np.testing.assert_array_equal(m.alpha, ref.alpha)
        assert median_pairwise_distance(X + c) == median_pairwise_distance(X)
    # off the grid the offset rounds the rows themselves: against the
    # explicit-difference oracle on the same rounded rows
    Y = rng.standard_normal((60, 4))
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


def test_failed_rung_rebuilds_consumed_gram(monkeypatch, caplog):
    # the first rung's factorization consumed its Gram matrix, so the next
    # rung builds a new one; the log reads as when one K served every rung
    grams = []

    def counting(X, spec):
        grams.append(spec.delta)
        return gram(X, spec)

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


def _theta(model):
    return model.tails[2].buf[: model.n]


def test_alpha_is_solved_on_first_read_only(monkeypatch):
    # fit and appends leave the back substitution to the first read of
    # alpha, which solves once and keeps the result
    calls = []

    def counting(factor, theta):
        calls.append(factor.m)
        return solve_upper(factor, theta)

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
        ref = solve_upper(model.factor, _theta(model).copy())
        np.testing.assert_array_equal(model.alpha, ref)


def test_chain_read_late_matches_each_batch_fit():
    # the middle models are read only after the chain has grown past them
    # and a branch has been appended to one of them: each still solves
    # from its own prefix of theta
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

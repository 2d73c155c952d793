import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocksr.baselines import (
    EigenSolverDidNotConverge,
    _centered_gram,
    kmeans_fit,
    kmeans_score,
    knndd_fit,
    knndd_score,
    kpca_fit,
    kpca_score,
)
from ocksr.kernel import KernelSpec, kernel_cross, kernel_eval, median_pairwise_distance


# Per-probe reference scorers: the straightforward one-probe-at-a-time
# definitions, kept as oracles for the batch scorers.

def _kmeans_score_ref(model, z):
    return float(np.sqrt(((model.centers - z) ** 2).sum(axis=1)).min())


def _knndd_score_ref(model, z):
    dists = np.sqrt(((model.X - z) ** 2).sum(axis=1))
    j = np.argsort(dists, kind="stable")[model.k - 1]
    num = float(dists[j])
    den = float(model.self_kth[j])
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def _kpca_score_ref(model, z):
    kz = kernel_cross(model.X, z[None, :], model.spec)[0]
    kz_mean = float(kz.mean())
    kz_centered = kz - kz_mean - model.row_mean + model.total_mean
    self_centered = kernel_eval(z, z, model.spec) - 2.0 * kz_mean + model.total_mean
    f = model.coeffs.T @ kz_centered
    return max(float(self_centered - f @ f), 0.0)


def _one(score, model, z):
    """Score a single probe through the batch scorer."""
    out = score(model, np.asarray(z, dtype=np.float64)[None, :])
    assert out.shape == (1,)
    return float(out[0])


def test_kmeans_k_equals_n_scores_training_rows_zero():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3))
    m = kmeans_fit(X, k=7, seed=1)
    assert kmeans_score(m, X).max() <= 1e-12


def test_kmeans_single_center_is_mean():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 4))
    m = kmeans_fit(X, k=1, seed=0)
    np.testing.assert_allclose(m.centers[0], X.mean(axis=0), atol=1e-12)


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(2)
    a = 0.05 * rng.standard_normal((40, 2))
    b = np.array([5.0, 5.0]) + 0.05 * rng.standard_normal((40, 2))
    m = kmeans_fit(np.vstack([a, b]), k=2, seed=3)
    centers = m.centers[np.argsort(m.centers[:, 0])]
    assert np.linalg.norm(centers[0] - a.mean(axis=0)) < 0.1
    assert np.linalg.norm(centers[1] - b.mean(axis=0)) < 0.1


def test_kmeans_score_is_distance_to_nearest_center():
    m = kmeans_fit(np.array([[0.0, 0.0], [10.0, 0.0]]), k=2, seed=0)
    assert _one(kmeans_score, m, [0.0, 0.0]) == 0.0
    assert _one(kmeans_score, m, [13.0, 4.0]) == pytest.approx(5.0, rel=1e-12)


def test_kmeans_radial_monotonicity():
    rng = np.random.default_rng(3)
    m = kmeans_fit(rng.standard_normal((15, 3)), k=4, seed=5)
    direction = np.ones(3) / np.sqrt(3.0)
    start = m.centers.mean(axis=0)
    Z = start + np.linspace(5.0, 50.0, 8)[:, None] * direction
    scores = kmeans_score(m, Z)
    assert all(s1 <= s2 + 1e-12 for s1, s2 in zip(scores, scores[1:]))


def test_kmeans_invalid_k():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans_fit(X, k=0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(X, k=4, seed=0)


def test_kmeans_permutation_invariant():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    perm = rng.permutation(25)
    a = kmeans_fit(X, k=5, seed=7)
    b = kmeans_fit(X[perm], k=5, seed=7)
    np.testing.assert_array_equal(a.centers, b.centers)


def test_knndd_zero_on_training_row():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((10, 3))
    assert _one(knndd_score, knndd_fit(X, k=1), X[4]) == 0.0


def test_knndd_lattice_ratio_one():
    # unit grid: every point's nearest neighbor is one lattice step away
    g = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    z = np.array([-1.0, 0.0])
    assert _one(knndd_score, knndd_fit(g, k=1), z) == pytest.approx(1.0, rel=1e-12)


def test_knndd_far_probe_large():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 2))
    assert _one(knndd_score, knndd_fit(X, k=3), [500.0, 500.0]) > 50.0


def test_knndd_k_bounds():
    X = np.random.default_rng(7).standard_normal((5, 2))
    with pytest.raises(ValueError):
        knndd_fit(X, k=5)  # needs a kth neighbor distinct from the row itself
    with pytest.raises(ValueError):
        knndd_fit(X, k=0)


def test_knndd_duplicate_rows():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    m = knndd_fit(X, k=1)
    # probe sits on the duplicated point: 0 / 0 counts as no novelty
    assert _one(knndd_score, m, [0.0, 0.0]) == 0.0
    # probe near the duplicated point: positive / 0 blows up
    assert _one(knndd_score, m, [0.3, 0.3]) == np.inf


def test_knndd_permutation_invariant():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((18, 4))
    perm = rng.permutation(18)
    z = rng.standard_normal(4)
    assert (_one(knndd_score, knndd_fit(X, k=4), z)
            == _one(knndd_score, knndd_fit(X[perm], k=4), z))


def test_kpca_full_rank_training_residuals_zero():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 3))
    m = kpca_fit(X, KernelSpec(sigma=1.5), q=11)
    assert kpca_score(m, X).max() <= 1e-8


def test_kpca_eigenvalues_descending():
    X = np.random.default_rng(10).standard_normal((15, 3))
    m = kpca_fit(X, KernelSpec(sigma=1.0), q=6)
    assert np.all(np.diff(m.eigenvalues) <= 1e-12)


def test_kpca_eigenvalues_match_dense_oracle():
    X = np.random.default_rng(11).standard_normal((20, 4))
    spec = KernelSpec(sigma=1.3)
    m = kpca_fit(X, spec, q=5)
    Kc = _centered_gram(X, spec)[0]
    dense = np.linalg.eigvalsh(Kc)[::-1][:5]
    np.testing.assert_allclose(m.eigenvalues, dense, rtol=1e-8)


def test_kpca_coefficients_orthonormal_in_kernel_metric():
    X = np.random.default_rng(12).standard_normal((18, 3))
    spec = KernelSpec(sigma=1.2)
    m = kpca_fit(X, spec, q=6)
    Kc = _centered_gram(X, spec)[0]
    G = m.coeffs.T @ Kc @ m.coeffs
    np.testing.assert_allclose(G, np.eye(6), atol=1e-8)


def test_kpca_line_manifold_low_rank():
    # a curved 1-d manifold in feature space sits in ~2 components
    rng = np.random.default_rng(13)
    t = rng.uniform(-2.0, 2.0, 30)
    X = np.stack([t, 2.0 * t], axis=1)
    m = kpca_fit(X, KernelSpec(sigma=40.0), q=2)
    on, off = kpca_score(m, np.array([[1.3, 2.6], [2.6, 1.3]]))
    assert on <= 1e-6
    assert on <= 1e-3 * off


def test_kpca_residual_nonnegative_and_monotone_in_q():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((16, 3))
    spec = KernelSpec(sigma=1.4)
    z = rng.standard_normal(3)
    residuals = [_one(kpca_score, kpca_fit(X, spec, q=q), z) for q in (1, 3, 6, 10, 15)]
    assert min(residuals) >= 0.0
    assert all(r1 >= r2 - 1e-10 for r1, r2 in zip(residuals, residuals[1:]))


def test_kpca_q_bounds():
    X = np.random.default_rng(15).standard_normal((6, 2))
    with pytest.raises(ValueError):
        kpca_fit(X, KernelSpec(), q=0)
    with pytest.raises(ValueError):
        kpca_fit(X, KernelSpec(), q=6)


def test_kpca_score_batch_matches_scalar():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((14, 3))
    m = kpca_fit(X, KernelSpec(sigma=1.1), q=4)
    Z = rng.standard_normal((5, 3))
    batch = kpca_score(m, Z)
    each = np.array([_kpca_score_ref(m, z) for z in Z])
    np.testing.assert_allclose(batch, each, rtol=1e-10, atol=1e-12)


def test_kpca_permutation_invariant_scores():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 3))
    perm = rng.permutation(20)
    spec = KernelSpec(sigma=1.5)
    z = rng.standard_normal(3)
    a = _one(kpca_score, kpca_fit(X, spec, q=4), z)
    b = _one(kpca_score, kpca_fit(X[perm], spec, q=4), z)
    # exact in exact arithmetic; the eigensolver's rounding depends on
    # row order and stays well below this
    assert a == pytest.approx(b, rel=1e-4, abs=1e-8)


def test_default_component_count_matches_mass_rule():
    X = np.random.default_rng(18).standard_normal((25, 4))
    spec = KernelSpec(sigma=1.0)
    q = kpca_fit(X, spec).coeffs.shape[1]
    eig = np.clip(np.linalg.eigvalsh(_centered_gram(X, spec)[0])[::-1], 0.0, None)
    cum = np.cumsum(eig) / eig.sum()
    expect = int(np.searchsorted(cum, 0.95) + 1)
    assert q == min(max(expect, 1), 24)


def test_default_component_count_rank_one_structure():
    X = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])
    assert kpca_fit(X, KernelSpec(sigma=1.0)).coeffs.shape[1] == 1


def test_eigensolver_failure_raises_typed_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    X = np.random.default_rng(19).standard_normal((12, 3))
    with pytest.raises(EigenSolverDidNotConverge, match="did not converge"):
        kpca_fit(X, KernelSpec(sigma=1.0), q=3)


@pytest.mark.parametrize("seed, q", [(637, 24), (705, 26), (707, 25)])
def test_kpca_default_fit_matches_dense_spectrum(seed, q):
    # these draws stalled an earlier iterative eigensolver
    X = np.random.default_rng(seed).standard_normal((50, 10))
    spec = KernelSpec(sigma=median_pairwise_distance(X))
    m = kpca_fit(X, spec)
    assert m.coeffs.shape[1] == q
    dense = np.linalg.eigvalsh(_centered_gram(X, spec)[0])[::-1][:q]
    np.testing.assert_allclose(m.eigenvalues, dense, rtol=1e-8)


@given(st.integers(0, 10**6), st.integers(2, 14), st.integers(1, 4),
       st.integers(1, 8), st.integers(0, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_batch_scorers_match_per_probe_references(seed, n, d, m, n_dup, on_grid):
    rng = np.random.default_rng(seed)
    # integer grid coordinates make exact distance ties common
    X = (rng.integers(-2, 3, (n, d)) if on_grid else rng.standard_normal((n, d))).astype(float)
    X[rng.integers(0, n, n_dup)] = X[rng.integers(0, n, n_dup)]  # duplicate rows
    fresh = rng.integers(-3, 4, (m, d)) if on_grid else 3.0 * rng.standard_normal((m, d))
    Z = np.vstack([fresh, X[rng.integers(0, n, 3)]])  # probes on training rows too
    k = int(rng.integers(1, n))

    models = [(kmeans_score, _kmeans_score_ref, kmeans_fit(X, int(rng.integers(1, n + 1)), seed)),
              (knndd_score, _knndd_score_ref, knndd_fit(X, k))]
    for batch_score, ref, model in models:
        got = batch_score(model, Z)
        want = np.array([ref(model, z) for z in Z])
        assert got.shape == (Z.shape[0],)
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)

    spec = KernelSpec(sigma=float(rng.uniform(0.5, 3.0)))
    # components past the numerical rank carry coefficients near
    # 1/sqrt(eps), which amplify rounding in either path alike
    lam = np.linalg.eigvalsh(_centered_gram(X, spec)[0])[::-1]
    kpca = kpca_fit(X, spec, q=max(1, min(k, int((lam > 1e-6 * lam[0]).sum()))))
    want = np.array([_kpca_score_ref(kpca, z) for z in Z])
    np.testing.assert_allclose(kpca_score(kpca, Z), want, rtol=1e-10, atol=1e-12)

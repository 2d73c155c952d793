import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ocksr.baselines as baselines_module
from ocksr.baselines import (
    EigenSolverDidNotConverge,
    _centered_gram,
    kmeans_novelty,
    knndd_novelty,
    kpca_fit,
    kpca_score,
)
from ocksr.kernel import KernelSpec, kernel_cross, median_pairwise_distance
import oracles


# Per-probe reference scorers: the straightforward one-probe-at-a-time
# definitions, kept as oracles for the batch scorers.

def _kmeans_score_ref(model, z):
    return float(np.sqrt(((model.centers - z) ** 2).sum(axis=1)).min())


def _knndd_score_ref(X, k, z):
    dists = np.sqrt(((X - z) ** 2).sum(axis=1))
    j = np.argsort(dists, kind="stable")[k - 1]
    num = float(dists[j])
    den = float(oracles.knndd_self_kth(X, k)[j])
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def _kpca_score_ref(model, z):
    kz = kernel_cross(model.X, z[None, :], model.spec)[0]
    kz_mean = float(kz.mean())
    kz_centered = kz - kz_mean - model.row_mean + model.total_mean
    # the rbf self-kernel k(z, z) is exactly 1
    self_centered = 1.0 - 2.0 * kz_mean + model.total_mean
    f = model.coeffs.T @ kz_centered
    return max(float(self_centered - f @ f), 0.0)


def _one(score, model, z):
    """Score a single probe through the batch scorer."""
    out = score(model, np.asarray(z, dtype=np.float64)[None, :])
    assert out.shape == (1,)
    return float(out[0])


def _knndd_one(X, k, z):
    """A single probe's k-NN novelty at one k, through the sweep."""
    out = knndd_novelty(X, np.asarray(z, dtype=np.float64)[None, :], [k])
    assert out.shape == (1, 1)
    return float(out[0, 0])


def _kmeans_one(X, k, Z):
    """Novelties of the probe rows Z at one k, through the sweep."""
    out = kmeans_novelty(X, np.asarray(Z, dtype=np.float64), [k])
    assert out.shape == (1, len(Z))
    return out[0]


def test_kmeans_k_equals_n_scores_training_rows_zero():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3))
    assert _kmeans_one(X, 7, X).max() <= 1e-12


def test_kmeans_single_center_is_mean():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 4))
    Z = rng.standard_normal((6, 4))
    np.testing.assert_allclose(_kmeans_one(X, 1, Z),
                               np.linalg.norm(Z - X.mean(axis=0), axis=1), atol=1e-12)


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(2)
    a = 0.05 * rng.standard_normal((40, 2))
    b = np.array([5.0, 5.0]) + 0.05 * rng.standard_normal((40, 2))
    # each blob's mean lies within 0.1 of a center
    assert _kmeans_one(np.vstack([a, b]), 2, [a.mean(axis=0), b.mean(axis=0)]).max() < 0.1


def test_kmeans_score_is_distance_to_nearest_center():
    scores = _kmeans_one(np.array([[0.0, 0.0], [10.0, 0.0]]), 2, [[0.0, 0.0], [13.0, 4.0]])
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx(5.0, rel=1e-12)


def test_kmeans_radial_monotonicity():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 3))
    direction = np.ones(3) / np.sqrt(3.0)
    Z = X.mean(axis=0) + np.linspace(5.0, 50.0, 8)[:, None] * direction
    scores = _kmeans_one(X, 4, Z)
    assert all(s1 <= s2 + 1e-12 for s1, s2 in zip(scores, scores[1:]))


def test_kmeans_invalid_k():
    X = np.zeros((3, 2))
    for ks, bad in (([0], 0), ([4], 4), ([1, 3, 4], 4), ([2, -1, 5], -1)):
        with pytest.raises(ValueError, match=rf"k must lie in \[1, 3\], got {bad}$"):
            kmeans_novelty(X, X, ks)
    assert kmeans_novelty(X, X, [1, 3]).shape == (2, 3)


def test_kmeans_permutation_invariant():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    Z = rng.standard_normal((10, 3))
    perm = rng.permutation(25)
    ks = [5, 2, 9]
    np.testing.assert_array_equal(kmeans_novelty(X, Z, ks), kmeans_novelty(X[perm], Z, ks))


def test_kmeans_empty_cluster_keeps_its_center():
    # at k = 4 three of the drawn rows coincide: the first of their
    # centers takes every row at distance 0, the other two empty at once
    X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0]])
    Z = np.array([[0.0, 0.0], [4.0, 4.0], [1.0, 2.0]])
    got = kmeans_novelty(X, Z, [1, 2, 3, 4])
    want = np.stack([oracles.kmeans_score(oracles.kmeans_fit(X, k, 0), Z) for k in (1, 2, 3, 4)])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[3], [0.0, 0.0, np.sqrt(5.0)])


def test_knndd_zero_on_training_row():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((10, 3))
    assert _knndd_one(X, 1, X[4]) == 0.0


def test_knndd_lattice_ratio_one():
    # unit grid: every point's nearest neighbor is one lattice step away
    g = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    z = np.array([-1.0, 0.0])
    assert _knndd_one(g, 1, z) == pytest.approx(1.0, rel=1e-12)


def test_knndd_far_probe_large():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 2))
    assert _knndd_one(X, 3, [500.0, 500.0]) > 50.0


def test_knndd_k_bounds():
    X = np.random.default_rng(7).standard_normal((5, 2))
    # each k needs a kth neighbor distinct from the row itself
    for ks, bad in (([5], 5), ([0], 0), ([1, 4, 5], 5), ([3, -1, 7], -1)):
        with pytest.raises(ValueError, match=rf"k must lie in \[1, 4\], got {bad}$"):
            knndd_novelty(X, X, ks)
    assert knndd_novelty(X, X, [1, 4]).shape == (2, 5)


def test_knndd_duplicate_rows():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    # probe sits on the duplicated point: 0 / 0 counts as no novelty
    assert _knndd_one(X, 1, [0.0, 0.0]) == 0.0
    # probe near the duplicated point: positive / 0 blows up
    assert _knndd_one(X, 1, [0.3, 0.3]) == np.inf


def test_knndd_permutation_invariant():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((18, 4))
    perm = rng.permutation(18)
    z = rng.standard_normal(4)
    assert _knndd_one(X, 4, z) == _knndd_one(X[perm], 4, z)


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

    k_centers = int(rng.integers(1, n + 1))
    kmeans = oracles.kmeans_fit(X, k_centers, 0)
    for got, ref in ((kmeans_novelty(X, Z, [k_centers])[0],
                      lambda z: _kmeans_score_ref(kmeans, z)),
                     (knndd_novelty(X, Z, [k])[0], lambda z: _knndd_score_ref(X, k, z))):
        want = np.array([ref(z) for z in Z])
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


@given(st.integers(0, 10**6), st.integers(2, 14), st.integers(1, 4),
       st.integers(0, 8), st.integers(0, 4), st.booleans(),
       st.lists(st.integers(0, 20), min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_knndd_sweep_equals_per_k_oracle_bit_for_bit(seed, n, d, m, n_dup, on_grid,
                                                     draws):
    rng = np.random.default_rng(seed)
    # integer grid coordinates make exact distance ties common
    X = (rng.integers(-2, 3, (n, d)) if on_grid else rng.standard_normal((n, d))).astype(float)
    X[rng.integers(0, n, n_dup)] = X[rng.integers(0, n, n_dup)]  # duplicate rows
    fresh = rng.integers(-3, 4, (m, d)) if on_grid else 3.0 * rng.standard_normal((m, d))
    Z = np.vstack([fresh, X[rng.integers(0, n, 3)]])  # probes on training rows too
    # k = 1 and k = n - 1 always, then draws in [1, n - 1], unsorted and repeated
    ks = [1, n - 1] + [1 + draw % (n - 1) for draw in draws]
    got = knndd_novelty(X, Z, ks)
    want = np.stack([oracles.knndd_score(X, Z, k) for k in ks])
    assert got.shape == (len(ks), Z.shape[0])
    np.testing.assert_array_equal(got, want)


def _count_center_passes(monkeypatch, module) -> list[int]:
    """The center count of each ``_sq_dists`` call that module makes from now on."""
    calls, real = [], module._sq_dists

    def counting(A, B=None, *args, **kwargs):
        calls.append(B.shape[0])
        return real(A, B, *args, **kwargs)

    monkeypatch.setattr(module, "_sq_dists", counting)
    return calls


def test_each_k_of_a_sweep_stops_when_its_lone_run_does(monkeypatch):
    # three blobs: the ks converge after different numbers of iterations,
    # and each should stop then, not run on with the slowest k
    rng = np.random.default_rng(8)
    X = np.vstack([rng.standard_normal((30, 3)) + c for c in (0.0, 6.0, 12.0)])
    ks = list(range(1, 13))
    swept = _count_center_passes(monkeypatch, baselines_module)
    kmeans_novelty(X, X[:2], ks)
    lone = _count_center_passes(monkeypatch, oracles)
    for k in ks:
        oracles.kmeans_fit(X, k, 0)
    iterations = [lone.count(k) for k in ks]
    assert [swept.count(k) for k in ks] == iterations
    assert len(set(iterations)) > 2 and max(iterations) < 100


def test_a_sweeps_memory_does_not_grow_with_its_ks():
    # each k's update makes O(n d) temporaries of its own, so eight ks
    # peak about where the largest alone does: no copy of X per k
    X = np.random.default_rng(4).standard_normal((4000, 16))
    kmeans_novelty(X[:20], X[:5], [1])  # imports cdist before any peak is read

    def peak(ks):
        tracemalloc.start()
        try:
            kmeans_novelty(X, X[:5], ks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(list(range(3, 11))) < 1.25 * peak([10])


@given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 12),
       st.integers(0, 8), st.integers(0, 6), st.booleans(), st.integers(-3, 3),
       st.lists(st.integers(0, 50), min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_kmeans_sweep_equals_per_k_oracle_bit_for_bit(seed, n, d, m, n_dup, on_grid,
                                                      scale, draws):
    rng = np.random.default_rng(seed)
    # integer grid coordinates make exact distance ties and coinciding
    # initial centers, so clusters that empty, common
    X = (rng.integers(-2, 3, (n, d)) if on_grid else rng.standard_normal((n, d))).astype(float)
    X[rng.integers(0, n, n_dup)] = X[rng.integers(0, n, n_dup)]  # duplicate rows
    X *= 10.0**scale
    fresh = 10.0**scale * rng.standard_normal((m, d))
    Z = np.vstack([fresh, X[rng.integers(0, n, 3)]])  # probes on training rows too
    # k = 1 and k = n always, then draws in [1, n], unsorted and repeated
    ks = [1, n] + [1 + draw % n for draw in draws]
    got = kmeans_novelty(X, Z, ks)
    want = np.stack([oracles.kmeans_score(oracles.kmeans_fit(X, k, 0), Z) for k in ks])
    assert got.shape == (len(ks), Z.shape[0])
    np.testing.assert_array_equal(got, want)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.spatial.distance import pdist

import oracles
from ocksr.cholesky import factor_batch
from ocksr.kernel import (
    KernelSpec,
    _sq_dists,
    gram,
    kernel_cross,
    median_pairwise_distance,
)


def kernel_eval(x, y, spec: KernelSpec) -> float:
    """Scalar oracle: k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    diff = x - y
    return float(np.exp(-float(diff @ diff) / (2.0 * spec.sigma**2)))


def test_spec_validation():
    for bad in (0.0, -1.0, np.nan, np.inf, "mean", "1.0", ""):
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec(sigma=bad)
    with pytest.raises(ValueError):
        KernelSpec(delta=-1e-9)
    # "median" is a valid sigma that only a Gram matrix can resolve
    median = KernelSpec(sigma="median")
    with pytest.raises(ValueError, match="median"):
        kernel_cross(np.zeros((3, 2)), np.ones((2, 2)), median)


def test_eval_zero_distance_is_one():
    x = np.array([1.0, -2.0, 3.0])
    assert kernel_eval(x, x, KernelSpec(sigma=0.7)) == 1.0


def test_eval_exponent_minus_one():
    # ||x - y||^2 = 2 sigma^2 puts the exponent at exactly -1
    sigma = 1.7
    x = np.zeros(4)
    y = np.zeros(4)
    y[0] = sigma * np.sqrt(2.0)
    val = kernel_eval(x, y, KernelSpec(sigma=sigma))
    assert val == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_eval_scalar_oracle():
    val = kernel_eval(np.array([0.0]), np.array([1.0]), KernelSpec(sigma=1.0))
    assert val == pytest.approx(np.exp(-0.5), rel=1e-15)


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval(np.array([0.0]), np.array([1.0, 2.0]), KernelSpec())


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_eval_symmetric_exactly(seed, d):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    spec = KernelSpec(sigma=float(rng.uniform(0.3, 3.0)))
    assert kernel_eval(x, y, spec) == kernel_eval(y, x, spec)


def test_eval_monotone_in_distance():
    spec = KernelSpec(sigma=1.3)
    x = np.zeros(3)
    vals = [kernel_eval(x, np.array([r, 0.0, 0.0]), spec) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@given(st.integers(0, 10**6), st.integers(1, 30), st.integers(1, 6),
       st.sampled_from([0.0, 0.125]))
@settings(max_examples=40, deadline=None)
def test_gram_resolves_the_median_from_its_own_distances(seed, n, d, delta):
    X = np.random.default_rng(seed).standard_normal((n, d))
    K, used = gram(X, KernelSpec(sigma="median", delta=delta))
    assert used == KernelSpec(sigma=median_pairwise_distance(X), delta=delta)
    np.testing.assert_array_equal(np.tril(K), np.tril(gram(X, used)[0]))


def test_gram_single_point():
    K, _ = gram(np.array([[1.0, 2.0]]), KernelSpec(delta=0.25))
    np.testing.assert_array_equal(K, [[1.25]])


def test_gram_duplicate_points():
    # gram fills the lower triangle and the diagonal; eigvalsh reads them
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_array_equal(np.tril(gram(X, KernelSpec())[0]), [[1.0, 0.0], [1.0, 1.0]])
    K = gram(X, KernelSpec(delta=0.1))[0]
    np.testing.assert_allclose(np.tril(K), [[1.1, 0.0], [1.0, 1.1]], rtol=0, atol=1e-15)
    assert np.linalg.eigvalsh(K).min() == pytest.approx(0.1, rel=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 25), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_gram_structure(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    spec = KernelSpec(sigma=float(rng.uniform(0.5, 2.5)),
                      delta=float(rng.choice([0.0, 1e-6, 0.2])))
    K, used = gram(X, spec)
    assert used == spec
    assert np.all(np.diag(K) == 1.0 + spec.delta)
    off = K[np.tril_indices(n, -1)]
    assert np.all((off >= 0.0) & (off <= 1.0))


@given(st.integers(0, 10**6), st.integers(2, 30), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_gram_positive_semidefinite(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    K = gram(X, KernelSpec(sigma=float(rng.uniform(0.5, 2.0))))[0]
    assert np.linalg.eigvalsh(K).min() >= -1e-10  # eigvalsh reads the lower triangle


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_gram_factors_after_tiny_ridge(seed):
    # well-spread data: the unregularized gram stays numerically PD,
    # so a 1e-12 ridge is enough for a clean factorization
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(4, 8))
    X = rng.standard_normal((n, d))
    K = gram(X, KernelSpec(sigma=1.0))[0]
    factor_batch(K + 1e-12 * np.eye(n), np.ones(n))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_gram_ridge_floors_spectrum(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 3))
    delta = float(rng.uniform(0.01, 0.5))
    K = gram(X, KernelSpec(sigma=1.0, delta=delta))[0]
    assert np.linalg.eigvalsh(K).min() >= delta - 1e-12


@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_gram_and_cross_match_scalar_oracle(seed, n, d):
    rng = np.random.default_rng(seed)
    X, Z = rng.standard_normal((n, d)), rng.standard_normal((3, d))
    spec = KernelSpec(sigma=float(rng.uniform(0.5, 2.5)), delta=0.125)
    K, C = gram(X, spec)[0], kernel_cross(X, Z, spec)
    for i in range(n):
        for j in range(i + 1):  # the lower triangle and the diagonal
            ref = kernel_eval(X[i], X[j], spec) + spec.delta * (i == j)
            assert K[i, j] == pytest.approx(ref, rel=0, abs=1e-14)
        for p in range(3):
            assert C[p, i] == pytest.approx(kernel_eval(Z[p], X[i], spec),
                                            rel=0, abs=1e-14)


def test_kernel_cross_one_row_matches_gram_column():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 3))
    spec = KernelSpec(sigma=1.1)
    K = gram(X, spec)[0]
    for j in (0, 3, 7):
        # column j of the symmetric kernel, read from the lower triangle
        column = np.concatenate([K[j, :j], K[j:, j]])
        np.testing.assert_allclose(kernel_cross(X, X[j:j + 1], spec)[0], column,
                                   rtol=0, atol=1e-14)


def test_one_row_distances_are_the_same_either_side():
    # a one-row append puts its row second, a one-probe score first: both
    # take the same matrix-vector product, so the distances agree bit for bit
    rng = np.random.default_rng(6)
    A, b = rng.standard_normal((50, 7)), rng.standard_normal((1, 7))
    np.testing.assert_array_equal(_sq_dists(A, b), _sq_dists(b, A).T)


def test_kernel_cross_one_row_scalar_oracle():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    z = np.array([[1.0, 0.0]])
    expect = [[np.exp(-0.125), np.exp(-0.125)]]
    np.testing.assert_allclose(kernel_cross(X, z, KernelSpec(sigma=2.0)), expect,
                               rtol=1e-14)


def test_kernel_cross_one_row_carries_no_ridge():
    X = np.array([[0.0], [2.0]])
    v = kernel_cross(X, np.array([[0.0]]), KernelSpec(sigma=1.0, delta=0.5))
    assert v[0, 0] == 1.0


def test_kernel_cross_shape_and_decay():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 2))
    Z = rng.standard_normal((4, 2)) + 100.0
    C = kernel_cross(X, Z, KernelSpec(sigma=1.0))
    assert C.shape == (4, 6)
    assert np.all(C < 1e-12)
    assert np.all(C >= 0.0)


def test_kernel_cross_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_cross(np.zeros((3, 2)), np.zeros((2, 3)), KernelSpec())


def test_median_distance_hand_case():
    # pairwise distances 1, 3, 2 -> median 2
    X = np.array([[0.0], [1.0], [3.0]])
    assert median_pairwise_distance(X) == 2.0


def test_median_distance_degenerate():
    assert median_pairwise_distance(np.array([[1.0, 2.0]])) == 1.0
    assert median_pairwise_distance(np.zeros((4, 2))) == 1.0


def _pdist_median(X) -> float:
    """Oracle: the median of the explicit-difference distances, 1.0 if it is 0."""
    med = float(np.median(pdist(X)))
    return med if med > 0.0 else 1.0


# an offset shared by every row: the expansion ||a||^2 + ||b||^2 - 2 a.b
# on unshifted rows lost every digit of the distances at 1e7
OFFSETS = [0.0, 1e3, 1e5, 1e7, 1e9]


def _offset_rows(seed, n, d, offset, scale, twins):
    """Standard-normal rows times scale plus a shared offset; ``twins``
    rows repeat earlier ones (every row repeats row 0 when twins >= n)."""
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal((n, d)) + offset * rng.standard_normal(d)
    if twins >= n:
        X[:] = X[0]
    for i in rng.choice(n, size=min(twins, n - 1), replace=False):
        X[i] = X[rng.integers(n)]
    return X


@given(st.integers(0, 10**6), st.integers(2, 40), st.integers(1, 8),
       st.sampled_from(OFFSETS), st.sampled_from([1e-3, 1.0, 1e2]),
       st.integers(0, 45))
@settings(max_examples=150, deadline=None)
def test_median_matches_pdist_under_offsets(seed, n, d, offset, scale, twins):
    # duplicate rows, all rows coinciding, odd and even pair counts
    X = _offset_rows(seed, n, d, offset, scale, twins)
    assert median_pairwise_distance(X) == pytest.approx(_pdist_median(X), rel=1e-14)


def test_median_pair_count_parity():
    # n = 2..9 gives 1, 3, 6, 10, 15, 21, 28, 36 pairs: both middles, and one
    rng = np.random.default_rng(12)
    for n in range(2, 10):
        X = rng.standard_normal((n, 3)) + 1e6
        assert median_pairwise_distance(X) == pytest.approx(_pdist_median(X), rel=1e-14)
    # an even count takes the mean of the two middle distances, not the
    # root of the mean of their squares (3.5355... below)
    X = np.array([[0.0], [1.0], [3.0], [6.0]])  # distances 1 2 3 3 5 6
    assert median_pairwise_distance(X) == 3.0
    X = np.array([[0.0], [1.0], [3.0], [7.0]])  # distances 1 2 3 4 6 7
    assert median_pairwise_distance(X) == 3.5


def test_median_spans_several_row_blocks():
    # 1100 rows make 604,450 pairs, 21 of the rows coinciding
    X = np.random.default_rng(13).standard_normal((1100, 3)) + 1e4
    X[500:520] = X[3]
    assert median_pairwise_distance(X) == pytest.approx(_pdist_median(X), rel=1e-14)


@given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 8),
       st.sampled_from(OFFSETS), st.integers(0, 45))
@settings(max_examples=100, deadline=None)
def test_gram_matches_explicit_differences_under_offsets(seed, n, d, offset, twins):
    X = _offset_rows(seed, n, d, offset, 1.0, twins)
    spec = KernelSpec(sigma=median_pairwise_distance(X), delta=0.125)
    np.testing.assert_allclose(np.tril(gram(X, spec)[0]), np.tril(oracles.gram(X, spec)),
                               rtol=0, atol=1e-14)

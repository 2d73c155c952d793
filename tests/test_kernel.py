import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocksr.cholesky import factor_batch
from ocksr.kernel import (
    KernelSpec,
    gram,
    kernel_cross,
    kernel_eval,
    median_pairwise_distance,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="poly")
    with pytest.raises(ValueError):
        KernelSpec(sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(delta=-1e-9)


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


def test_gram_single_point():
    g = gram(np.array([[1.0, 2.0]]), KernelSpec(delta=0.25))
    np.testing.assert_array_equal(g.K, [[1.25]])


def test_gram_duplicate_points():
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_array_equal(gram(X, KernelSpec()).K, [[1.0, 1.0], [1.0, 1.0]])
    K = gram(X, KernelSpec(delta=0.1)).K
    np.testing.assert_allclose(K, [[1.1, 1.0], [1.0, 1.1]], rtol=0, atol=1e-15)
    assert np.linalg.eigvalsh(K).min() == pytest.approx(0.1, rel=1e-12)


@given(st.integers(0, 10**6), st.integers(1, 25), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_gram_structure(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    spec = KernelSpec(sigma=float(rng.uniform(0.5, 2.5)),
                      delta=float(rng.choice([0.0, 1e-6, 0.2])))
    K = gram(X, spec).K
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0 + spec.delta)
    off = K[~np.eye(n, dtype=bool)]
    assert np.all((off >= 0.0) & (off <= 1.0))


@given(st.integers(0, 10**6), st.integers(2, 30), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_gram_positive_semidefinite(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    K = gram(X, KernelSpec(sigma=float(rng.uniform(0.5, 2.0)))).K
    assert np.linalg.eigvalsh(K).min() >= -1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_gram_factors_after_tiny_ridge(seed):
    # well-spread data: the unregularized gram stays numerically PD,
    # so a 1e-12 ridge is enough for a clean factorization
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(4, 8))
    X = rng.standard_normal((n, d))
    K = gram(X, KernelSpec(sigma=1.0)).K
    factor_batch(K + 1e-12 * np.eye(n))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_gram_ridge_floors_spectrum(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 3))
    delta = float(rng.uniform(0.01, 0.5))
    K = gram(X, KernelSpec(sigma=1.0, delta=delta)).K
    assert np.linalg.eigvalsh(K).min() >= delta - 1e-12


def test_gram_records_spec():
    spec = KernelSpec(sigma=2.0, delta=0.5)
    g = gram(np.zeros((3, 2)), spec)
    assert g.spec == spec and g.K.shape == (3, 3)


def test_kernel_cross_one_row_matches_gram_column():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 3))
    spec = KernelSpec(sigma=1.1)
    K = gram(X, spec).K
    for j in (0, 3, 7):
        np.testing.assert_allclose(kernel_cross(X, X[j:j + 1], spec)[0], K[:, j],
                                   rtol=0, atol=1e-14)


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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocksr.cholesky import (
    PIVOT_EPS,
    CholeskyFactor,
    NotPositiveDefinite,
    factor_batch,
    factor_extend,
    solve_lower_transposed,
    solve_spd,
    solve_upper,
)


def _random_spd(rng, n, ridge=0.5):
    A = rng.standard_normal((n, n + 2))
    return A @ A.T + ridge * np.eye(n)


def test_identity_factors_to_itself():
    f = factor_batch(np.eye(3))
    np.testing.assert_array_equal(f.R, np.eye(3))
    assert f.m == 3


def test_two_by_two_hand_factor():
    f = factor_batch(np.array([[1.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_allclose(f.R, [[1.0, 0.5], [0.0, np.sqrt(0.75)]], rtol=1e-15)


def test_indefinite_matrix_rejected():
    # eigenvalues 3 and -1; the second pivot is the offender
    with pytest.raises(NotPositiveDefinite) as exc:
        factor_batch(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1


def test_non_symmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        factor_batch(np.array([[1.0, 0.2], [0.4, 1.0]]))


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        factor_batch(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        factor_batch(np.ones((2, 3)))


@given(st.integers(0, 10**6), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_factor_reproduces_matrix(seed, n):
    K = _random_spd(np.random.default_rng(seed), n)
    R = factor_batch(K).R
    assert np.array_equal(np.tril(R, -1), np.zeros_like(R))
    assert np.diag(R).min() > 0
    assert np.linalg.norm(R.T @ R - K) / np.linalg.norm(K) <= 1e-10


@given(st.integers(0, 10**6), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_factor_leaves_input_intact(seed, n):
    # the fit ladder rewrites one Gram diagonal between factorizations, so
    # factoring must not write into K
    K = _random_spd(np.random.default_rng(seed), n)
    before = K.copy()
    R = factor_batch(K).R
    np.testing.assert_array_equal(K, before)
    assert np.linalg.norm(R.T @ R - K) / np.linalg.norm(K) <= 1e-10


def _order_one(k11):
    return factor_batch(np.array([[k11]]))


def test_order_one_factor_cases():
    np.testing.assert_array_equal(_order_one(1.0).R, [[1.0]])
    np.testing.assert_array_equal(_order_one(4.0).R, [[2.0]])
    with pytest.raises(NotPositiveDefinite) as exc:
        _order_one(0.0)
    assert exc.value.pivot_index == 0
    with pytest.raises(NotPositiveDefinite) as exc:
        _order_one(-1.0)
    assert exc.value.pivot_index == 0


def test_extend_matches_batch_two_by_two():
    f = factor_extend(_order_one(1.0), np.array([0.5]), 1.0)
    g = factor_batch(np.array([[1.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_allclose(f.R, g.R, rtol=1e-15)


def test_extend_orthogonal_point_appends_unit_pivot():
    f = factor_batch(np.array([[2.0]]))
    g = factor_extend(f, np.array([0.0]), 1.0)
    np.testing.assert_allclose(g.R, [[np.sqrt(2.0), 0.0], [0.0, 1.0]], rtol=1e-15)


def test_extend_duplicate_row_rejected():
    with pytest.raises(NotPositiveDefinite) as exc:
        factor_extend(_order_one(1.0), np.array([1.0]), 1.0)
    assert exc.value.pivot_index == 1


def test_extend_length_mismatch():
    f = factor_batch(np.eye(3))
    with pytest.raises(ValueError):
        factor_extend(f, np.ones(2), 1.0)


def test_extend_non_finite_rejected():
    f = factor_batch(np.eye(2))
    with pytest.raises(ValueError):
        factor_extend(f, np.array([0.1, np.nan]), 1.0)


@given(st.integers(0, 10**6), st.integers(2, 50), st.integers(1, 49))
@settings(max_examples=30, deadline=None)
def test_incremental_chain_matches_batch(seed, n, start):
    start = min(start, n - 1)
    rng = np.random.default_rng(seed)
    K = _random_spd(rng, n)
    f = factor_batch(K[:start, :start])
    for m in range(start, n):
        f = factor_extend(f, K[:m, m], K[m, m])
    g = factor_batch(K)
    scale = max(1.0, float(np.abs(g.R).max()))
    assert np.abs(f.R - g.R).max() <= 1e-9 * scale


def test_solve_identity_factor():
    f = factor_batch(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(solve_lower_transposed(f, b), b)
    np.testing.assert_array_equal(solve_upper(f, b), b)


def test_solve_hand_two_by_two():
    f = factor_batch(np.array([[1.0, 0.5], [0.5, 1.0]]))
    theta = solve_lower_transposed(f, np.array([1.0, 1.0]))
    np.testing.assert_allclose(theta, [1.0, 0.5 / np.sqrt(0.75)], rtol=1e-14)
    alpha = solve_upper(f, theta)
    np.testing.assert_allclose(alpha, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-12)


def test_solve_zero_rhs():
    f = factor_batch(_random_spd(np.random.default_rng(1), 6))
    np.testing.assert_array_equal(solve_lower_transposed(f, np.zeros(6)), np.zeros(6))
    np.testing.assert_array_equal(solve_upper(f, np.zeros(6)), np.zeros(6))


def test_solve_does_not_mutate_rhs():
    f = factor_batch(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    solve_spd(f, b)
    np.testing.assert_array_equal(b, [1.0, 2.0])


@given(st.integers(0, 10**6), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_solve_spd_matches_dense_solver(seed, n):
    rng = np.random.default_rng(seed)
    K = _random_spd(rng, n)
    b = rng.standard_normal(n)
    x = solve_spd(factor_batch(K), b)
    np.testing.assert_allclose(x, np.linalg.solve(K, b), rtol=1e-8, atol=1e-10)


def test_solve_length_mismatch():
    f = factor_batch(np.eye(3))
    with pytest.raises(ValueError):
        solve_upper(f, np.ones(4))
    with pytest.raises(ValueError):
        solve_lower_transposed(f, np.ones(2))


def test_extending_old_factor_leaves_it_intact():
    rng = np.random.default_rng(3)
    K = _random_spd(rng, 52)
    f0 = factor_batch(K[:50, :50])
    before = f0.R.copy()
    f1 = factor_extend(f0, K[:50, 50], K[50, 50])
    f2 = factor_extend(f0, K[:50, 51], K[51, 51])  # f0 is no longer the storage tip
    np.testing.assert_array_equal(f0.R, before)
    np.testing.assert_array_equal(f1.R[:50, :50], before)
    np.testing.assert_array_equal(f2.R[:50, :50], before)
    assert f1.m == f2.m == 51
    assert not np.array_equal(f1.R[:, 50], f2.R[:, 50])


def test_long_extension_chain_regrows_storage():
    rng = np.random.default_rng(4)
    n = 170  # forces several capacity growths past the initial slack
    K = _random_spd(rng, n)
    f = _order_one(K[0, 0])
    for m in range(1, n):
        f = factor_extend(f, K[:m, m], K[m, m])
    assert f.m == n
    assert np.linalg.norm(f.R.T @ f.R - K) / np.linalg.norm(K) <= 1e-10


def test_column_view_matches_dense():
    f = factor_batch(_random_spd(np.random.default_rng(5), 7))
    for j in range(7):
        np.testing.assert_array_equal(f.column(j), f.R[: j + 1, j])
    with pytest.raises(IndexError):
        f.column(7)
    with pytest.raises(IndexError):
        f.column(-1)


def test_views_read_only():
    f = factor_batch(np.eye(2))
    with pytest.raises(ValueError):
        f.R[0, 0] = 2.0
    with pytest.raises(ValueError):
        f.packed[0] = 2.0
    with pytest.raises(ValueError):
        f.column(0)[0] = 2.0


def test_factor_from_dense_matrix():
    R = np.array([[2.0, 1.0], [0.0, 3.0]])
    f = CholeskyFactor(R)
    np.testing.assert_array_equal(f.R, R)
    assert f.m == 2


def test_batch_pivot_tolerance_is_relative():
    scale = 1e6
    below = np.diag([scale, scale, scale * PIVOT_EPS * 0.5])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor_batch(below)
    assert exc.value.pivot_index == 2
    factor_batch(np.diag([scale, scale, scale * PIVOT_EPS * 4.0]))


def test_extend_pivot_tolerance_is_relative():
    f = _order_one(4.0)
    with pytest.raises(NotPositiveDefinite):
        factor_extend(f, np.array([0.0]), 4.0 * PIVOT_EPS * 0.5)
    factor_extend(f, np.array([0.0]), 4.0 * PIVOT_EPS * 40.0)

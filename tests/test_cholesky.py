import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.blas import dtpsv

from ocksr.cholesky import (
    BLOCK_BORDER_ROWS,
    PIVOT_EPS,
    NotPositiveDefinite,
    factor_batch,
    solve_upper,
)
from ocksr.kernel import KernelSpec, gram, median_pairwise_distance
from oracles import R_of, packed_of


def _random_spd(rng, n, ridge=0.5):
    A = rng.standard_normal((n, n + 2))
    return A @ A.T + ridge * np.eye(n)


def factor(K):
    """The factor of K, bordering no base."""
    return factor_batch(K, np.zeros(len(K)))[0]


def solve_spd(K, b):
    """Solve K x = b: factor K with theta = R^-T b, then back substitute."""
    return solve_upper(*factor_batch(K, b))


def border_rows_one_by_one(K, b, start):
    """Reference: factor K's leading block, then add one bordered column per row.

    This is the one-row extension that bordering by a block replaced:
    r = R^-T k by one packed triangular solve, the Schur complement
    k_jj - r.r against PIVOT_EPS times the running max diagonal, pivot
    sqrt(k_jj - r.r) and theta's new entry (b_j - r.theta) / pivot.
    Returns the packed factor and theta = R^-T b.
    """
    f, theta = factor_batch(K[:start, :start].copy(), b[:start])
    packed, max_diag = packed_of(f).copy(), float(K.diagonal()[:start].max())
    for j in range(start, K.shape[0]):
        r = dtpsv(j, packed, K[j, :j], lower=0, trans=1)
        max_diag = max(max_diag, K[j, j])
        schur = K[j, j] - r @ r
        if not schur > PIVOT_EPS * max_diag:
            raise NotPositiveDefinite(j)
        pivot = np.sqrt(schur)
        packed = np.concatenate((packed, r, [pivot]))
        theta = np.append(theta, (b[j] - r @ theta) / pivot)
    return packed, theta


def test_identity_factors_to_itself():
    f = factor(np.eye(3))
    np.testing.assert_array_equal(R_of(f), np.eye(3))
    assert f.m == 3


def test_two_by_two_hand_factor():
    f = factor(np.array([[1.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_allclose(R_of(f), [[1.0, 0.5], [0.0, np.sqrt(0.75)]], rtol=1e-15)


def test_indefinite_matrix_rejected():
    # eigenvalues 3 and -1; the second pivot is the offender
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1
    # the second pivot squared, 1e-14, is below the floor though positive,
    # and LAPACK only breaks down on the third: the second is reported, as
    # a one-row-at-a-time chain reports it
    K = np.array([[1.0, 0.0, 0.0], [0.0, 1e-14, 1e-3], [0.0, 1e-3, 1.0]])
    b = np.ones(3)
    f, theta = factor_batch(K[:1, :1].copy(), b[:1])
    for call in (lambda: factor(K.copy()), lambda: factor_batch(K[1:], b[1:], f, theta),
                 lambda: border_rows_one_by_one(K, b, 1)):
        with pytest.raises(NotPositiveDefinite) as exc:
            call()
        assert exc.value.pivot_index == 1


def test_unread_triangle_is_ignored():
    # only the lower triangle (i >= j) is read: whatever the strict upper
    # triangle holds, asymmetric or non-finite, the factor is the same
    rng = np.random.default_rng(2)
    for n in (2, 9, 300):
        K = _random_spd(rng, n)
        ref = factor(K.copy())
        upper = np.triu_indices(n, 1)
        for junk in (np.nan, np.inf, -np.inf,
                     1e6 * rng.standard_normal(upper[0].size)):
            bad = K.copy()
            bad[upper] = junk
            np.testing.assert_array_equal(packed_of(factor(bad)), packed_of(ref))


def test_non_finite_rejected():
    with pytest.raises(NotPositiveDefinite):
        factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@given(st.integers(1, 400), st.integers(0, 10**6),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0),
                          st.sampled_from([np.nan, np.inf, -np.inf])),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_non_finite_in_read_triangle_never_factors(n, seed, entries):
    # LAPACK may finish with info = 0 and NaN pivots; the pivot test must
    # reject those, whatever the size and so the blocking of dpotrf
    K = _random_spd(np.random.default_rng(seed), n)
    for u, v, bad in entries:
        i = int(u * n)
        K[i, int(v * i)] = bad  # j <= i: the lower triangle
    with pytest.raises(NotPositiveDefinite):
        factor(K)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        factor(np.ones((2, 3)))


@given(st.integers(0, 10**6), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_factor_reproduces_matrix(seed, n):
    K = _random_spd(np.random.default_rng(seed), n)
    R = R_of(factor(K.copy()))
    assert np.array_equal(np.tril(R, -1), np.zeros_like(R))
    assert np.diag(R).min() > 0
    assert np.linalg.norm(R.T @ R - K) / np.linalg.norm(K) <= 1e-10


@given(st.integers(0, 10**6), st.integers(1, 60), st.integers(0, 59))
@settings(max_examples=40, deadline=None)
def test_factor_writes_only_into_K(seed, n, cut):
    # factoring, from scratch or onto a base, consumes K_rows and nothing
    # else: b, the base factor and the base's theta stay as they were
    cut = min(cut, n - 1)
    rng = np.random.default_rng(seed)
    K, b = _random_spd(rng, n), rng.standard_normal(n)
    b_before = b.copy()
    f, theta = factor_batch(K[:cut, :cut].copy(), b[:cut]) if cut else (None, None)
    base = (packed_of(f).copy(), theta.copy()) if cut else None
    g, _ = factor_batch(K[cut:].copy(), b[cut:], f, theta)
    np.testing.assert_array_equal(b, b_before)
    if cut:
        np.testing.assert_array_equal(packed_of(f), base[0])
        np.testing.assert_array_equal(theta, base[1])
    R = R_of(g)
    assert np.linalg.norm(R.T @ R - K) / np.linalg.norm(K) <= 1e-10


def test_batch_factors_K_in_place():
    # a C-ordered K is factored where it lies: no second n x n array, and
    # its lower triangle ends up holding R^T
    K = _random_spd(np.random.default_rng(4), 300)
    consumed = K.copy()
    f = factor(consumed)
    np.testing.assert_array_equal(np.tril(consumed), R_of(f).T)
    assert np.linalg.norm(R_of(f).T @ R_of(f) - K) / np.linalg.norm(K) <= 1e-10


def _order_one(k11):
    return factor(np.array([[k11]]))


def test_order_one_factor_cases():
    np.testing.assert_array_equal(R_of(_order_one(1.0)), [[1.0]])
    np.testing.assert_array_equal(R_of(_order_one(4.0)), [[2.0]])
    with pytest.raises(NotPositiveDefinite) as exc:
        _order_one(0.0)
    assert exc.value.pivot_index == 0
    with pytest.raises(NotPositiveDefinite) as exc:
        _order_one(-1.0)
    assert exc.value.pivot_index == 0


def _extend_one(f, k_new, k_diag):
    """Border f by one row: its kernel values k_new, then k_diag."""
    return factor_batch(np.append(k_new, k_diag)[None, :], [1.0], f,
                        np.ones(f.m))[0]


def test_extend_matches_batch_two_by_two():
    f = _extend_one(_order_one(1.0), [0.5], 1.0)
    g = factor(np.array([[1.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_allclose(R_of(f), R_of(g), rtol=1e-15)


def test_extend_orthogonal_point_appends_unit_pivot():
    g = _extend_one(factor(np.array([[2.0]])), [0.0], 1.0)
    np.testing.assert_allclose(R_of(g), [[np.sqrt(2.0), 0.0], [0.0, 1.0]], rtol=1e-15)


def test_extend_duplicate_row_rejected():
    with pytest.raises(NotPositiveDefinite) as exc:
        _extend_one(_order_one(1.0), [1.0], 1.0)
    assert exc.value.pivot_index == 1


def test_extend_length_mismatch():
    f = factor(np.eye(3))
    with pytest.raises(ValueError):
        _extend_one(f, np.ones(2), 1.0)  # one row of width 3, not 4
    with pytest.raises(ValueError):
        factor_batch(np.eye(4)[3:], [1.0], f, np.ones(2))  # theta too short
    with pytest.raises(ValueError):
        factor_batch(np.eye(4)[3:], [1.0], f)  # no theta for the base
    with pytest.raises(ValueError):
        factor_batch(np.eye(4)[2:], [1.0], f, np.ones(3))  # rows vs columns


def test_extend_non_finite_rejected():
    # as in a batch factorization: a non-finite entry in the read
    # triangle, against the base or within the block, leaves a NaN or
    # nonpositive pivot behind
    f = factor(np.eye(2))
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((0, 1), (1, 0), (1, 2), (1, 3)):
            rows = np.array([[0.1, 0.0, 1.0, 0.0], [0.0, 0.2, 0.3, 1.0]])
            rows[where] = bad
            with pytest.raises(NotPositiveDefinite):
                factor_batch(rows, [1.0, 1.0], f, np.ones(2))


@given(st.integers(0, 10**6), st.integers(2, 50), st.integers(1, 49))
@settings(max_examples=30, deadline=None)
def test_incremental_chain_matches_batch(seed, n, start):
    start = min(start, n - 1)
    rng = np.random.default_rng(seed)
    K = _random_spd(rng, n)
    b = np.ones(n)
    f, theta = factor_batch(K[:start, :start].copy(), b[:start])
    for m in range(start, n):
        f, theta_new = factor_batch(K[m: m + 1, : m + 1], b[m: m + 1], f, theta)
        theta = np.append(theta, theta_new)
    g = factor(K)
    scale = max(1.0, float(np.abs(R_of(g)).max()))
    assert np.abs(R_of(f) - R_of(g)).max() <= 1e-9 * scale


@given(st.integers(0, 10**6), st.integers(2, 90), st.data(),
       st.sampled_from([0.0, 1e-8]))
@settings(max_examples=40, deadline=None)
def test_block_append_matches_row_chain_and_batch(seed, n, data, delta):
    # K is a kernel Gram matrix; a narrow bandwidth keeps it well
    # conditioned at delta = 0, so the three paths may agree to 1e-9
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 6))
    spec = KernelSpec(sigma=0.5 * median_pairwise_distance(X), delta=delta)
    K, b = gram(X, spec), np.ones(n)
    start = data.draw(st.integers(1, n - 1), label="start")
    f, theta = factor_batch(K[:start, :start].copy(), b[:start])
    lo = start
    while lo < n:  # a random chunk schedule
        hi = lo + data.draw(st.integers(1, n - lo), label="chunk")
        rows = K[lo:hi, :hi].copy()
        rows[np.triu_indices(hi - lo, lo + 1, hi)] = np.nan  # never read
        f, theta_new = factor_batch(rows, b[lo:hi], f, theta)
        theta = np.concatenate((theta, theta_new))
        lo = hi
    g, theta_batch = factor_batch(K.copy(), b)
    row_packed, row_theta = border_rows_one_by_one(K, b, start)
    alpha = solve_upper(f, theta)
    alpha_batch = solve_upper(g, theta_batch)
    scale = max(1.0, float(np.abs(alpha_batch).max()))
    assert np.abs(packed_of(f) - packed_of(g)).max() <= 1e-9
    assert np.abs(row_packed - packed_of(g)).max() <= 1e-9
    assert np.abs(alpha - alpha_batch).max() <= 1e-9 * scale
    alpha_row = dtpsv(n, row_packed, row_theta, lower=0, trans=0)
    assert np.abs(alpha_row - alpha_batch).max() <= 1e-9 * scale


@pytest.mark.parametrize("j,twin", [(0, 5), (3, 5), (6, 19), (3, 22), (6, 25)])
def test_duplicate_row_in_block_reports_its_global_index(j, twin):
    # at delta = 0 block row j repeating row twin (of the base or of the
    # block) makes K singular: that row's pivot fails, wherever in the
    # block it sits, and the index counts from K's first row
    rng = np.random.default_rng(31)
    n, m = 20, 7
    X = rng.standard_normal((n + m, 4))
    X[n + j] = X[twin]
    K, b = gram(X, KernelSpec(sigma=median_pairwise_distance(X))), np.ones(n + m)
    f, theta = factor_batch(K[:n, :n], b[:n])
    with pytest.raises(NotPositiveDefinite) as block:
        factor_batch(K[n:], b[n:], f, theta)
    with pytest.raises(NotPositiveDefinite) as whole:
        factor(K.copy())
    with pytest.raises(NotPositiveDefinite) as one_by_one:
        border_rows_one_by_one(K, b, n)
    assert (block.value.pivot_index == whole.value.pivot_index
            == one_by_one.value.pivot_index == n + j)


# chunk sizes on both sides of the switch from per-row solves to one dtrsm
CHUNKS = (1, 2, BLOCK_BORDER_ROWS - 1, BLOCK_BORDER_ROWS, BLOCK_BORDER_ROWS + 1, 64)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("delta", [0.0, 1e-8])
def test_fixed_chunks_match_row_chain_and_batch(chunk, delta):
    rng = np.random.default_rng(chunk)
    start, n = 37, 37 + 2 * 64 + 5
    X = rng.standard_normal((n, 6))
    spec = KernelSpec(sigma=0.5 * median_pairwise_distance(X), delta=delta)
    K, b = gram(X, spec), np.ones(n)
    f, theta = factor_batch(K[:start, :start].copy(), b[:start])
    for lo in range(start, n, chunk):
        hi = min(lo + chunk, n)
        rows = K[lo:hi, :hi].copy()
        rows[np.triu_indices(hi - lo, lo + 1, hi)] = np.nan  # never read
        f, theta_new = factor_batch(rows, b[lo:hi], f, theta)
        theta = np.concatenate((theta, theta_new))
    g, theta_batch = factor_batch(K.copy(), b)
    row_packed, row_theta = border_rows_one_by_one(K, b, start)
    alpha_batch = solve_upper(g, theta_batch)
    scale = max(1.0, float(np.abs(alpha_batch).max()))
    assert np.abs(packed_of(f) - packed_of(g)).max() <= 1e-9
    assert np.abs(row_packed - packed_of(g)).max() <= 1e-9
    assert np.abs(theta - row_theta).max() <= 1e-9 * scale
    assert np.abs(solve_upper(f, theta) - alpha_batch).max() <= 1e-9 * scale


@pytest.mark.parametrize("m", CHUNKS)
def test_duplicate_row_reports_its_global_index_at_every_block_size(m):
    # a repeated row inside a block of any size fails at its own pivot,
    # counted from K's first row, on the per-row and the dtrsm path alike
    rng = np.random.default_rng(32)
    n = 20
    cases = [(m - 1, 3)]  # the last block row repeats a base row
    if m > 1:
        cases.append((m // 2, n + m // 4))  # a block row repeats an earlier one
    for j, twin in cases:
        X = rng.standard_normal((n + m, 4))
        X[n + j] = X[twin]
        K, b = gram(X, KernelSpec(sigma=median_pairwise_distance(X))), np.ones(n + m)
        f, theta = factor_batch(K[:n, :n].copy(), b[:n])
        with pytest.raises(NotPositiveDefinite) as block:
            factor_batch(K[n:].copy(), b[n:], f, theta)
        with pytest.raises(NotPositiveDefinite) as one_by_one:
            border_rows_one_by_one(K, b, n)
        assert block.value.pivot_index == one_by_one.value.pivot_index == n + j


@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 10**6),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0),
                          st.sampled_from([np.nan, np.inf, -np.inf])),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_non_finite_in_read_block_never_factors(n, m, seed, entries):
    rng = np.random.default_rng(seed)
    K, b = _random_spd(rng, n + m), np.ones(n + m)
    f, theta = factor_batch(K[:n, :n], b[:n])
    rows = K[n:].copy()
    for u, v, bad in entries:
        i = int(u * m)
        rows[i, int(v * (n + i))] = bad  # j <= n + i: the read triangle
    with pytest.raises(NotPositiveDefinite):
        factor_batch(rows, b[n:], f, theta)


def test_solve_identity_factor():
    b = np.array([1.0, -2.0, 3.0, 0.5])
    f, theta = factor_batch(np.eye(4), b)
    np.testing.assert_array_equal(theta, b)
    np.testing.assert_array_equal(solve_upper(f, b), b)


def test_solve_hand_two_by_two():
    f, theta = factor_batch(np.array([[1.0, 0.5], [0.5, 1.0]]), [1.0, 1.0])
    np.testing.assert_allclose(theta, [1.0, 0.5 / np.sqrt(0.75)], rtol=1e-14)
    alpha = solve_upper(f, theta)
    np.testing.assert_allclose(alpha, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-12)


def test_solve_zero_rhs():
    f, theta = factor_batch(_random_spd(np.random.default_rng(1), 6), np.zeros(6))
    np.testing.assert_array_equal(theta, np.zeros(6))
    np.testing.assert_array_equal(solve_upper(f, np.zeros(6)), np.zeros(6))


def test_solve_does_not_mutate_rhs():
    b = np.array([1.0, 2.0])
    solve_spd(np.array([[4.0, 1.0], [1.0, 3.0]]), b)
    np.testing.assert_array_equal(b, [1.0, 2.0])


@given(st.integers(0, 10**6), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_solve_spd_matches_dense_solver(seed, n):
    rng = np.random.default_rng(seed)
    K = _random_spd(rng, n)
    b = rng.standard_normal(n)
    x = solve_spd(K.copy(), b)
    np.testing.assert_allclose(x, np.linalg.solve(K, b), rtol=1e-8, atol=1e-10)


def test_solve_length_mismatch():
    f = factor(np.eye(3))
    with pytest.raises(ValueError):
        solve_upper(f, np.ones(4))
    with pytest.raises(ValueError):
        factor_batch(np.eye(3), np.ones(2))


def test_extending_old_factor_leaves_it_intact():
    rng = np.random.default_rng(3)
    K = _random_spd(rng, 52)
    f0 = factor(K[:50, :50])
    before = R_of(f0).copy()
    f1 = _extend_one(f0, K[50, :50], K[50, 50])
    f2 = _extend_one(f0, K[51, :50], K[51, 51])  # f0 is no longer the storage tip
    np.testing.assert_array_equal(R_of(f0), before)
    np.testing.assert_array_equal(R_of(f1)[:50, :50], before)
    np.testing.assert_array_equal(R_of(f2)[:50, :50], before)
    assert f1.m == f2.m == 51
    assert not np.array_equal(R_of(f1)[:, 50], R_of(f2)[:, 50])


def test_long_extension_chain_regrows_storage():
    rng = np.random.default_rng(4)
    n = 170  # forces several capacity growths past the initial slack
    K = _random_spd(rng, n)
    f = _order_one(K[0, 0])
    for m in range(1, n):
        f = _extend_one(f, K[m, :m], K[m, m])
    assert f.m == n
    assert np.linalg.norm(R_of(f).T @ R_of(f) - K) / np.linalg.norm(K) <= 1e-10


def test_packed_columns_match_dense():
    # column j of R is stored contiguously, its j + 1 entries from j(j+1)/2
    f = factor(_random_spd(np.random.default_rng(5), 7))
    for j in range(7):
        lo = j * (j + 1) // 2
        np.testing.assert_array_equal(packed_of(f)[lo: lo + j + 1], R_of(f)[: j + 1, j])
    assert packed_of(f).shape == (28,)


def test_views_read_only():
    f = factor(np.eye(2))
    with pytest.raises(ValueError):
        R_of(f)[0, 0] = 2.0
    with pytest.raises(ValueError):
        packed_of(f)[0] = 2.0


def test_batch_pivot_tolerance_is_relative():
    scale = 1e6
    below = np.diag([scale, scale, scale * PIVOT_EPS * 0.5])
    with pytest.raises(NotPositiveDefinite) as exc:
        factor(below)
    assert exc.value.pivot_index == 2
    factor(np.diag([scale, scale, scale * PIVOT_EPS * 4.0]))


def test_batch_and_extension_share_the_pivot_floor():
    # the second pivot squared, 1 - c^2 ~ 1.5e-12, clears PIVOT_EPS times
    # the max diagonal (1) though not times the largest row sum (~2)
    c = 1.0 - 0.75e-12
    batch = factor(np.array([[1.0, c], [c, 1.0]]))
    extended = _extend_one(_order_one(1.0), [c], 1.0)
    assert batch.m == extended.m == 2
    assert R_of(batch)[1, 1] > 0.0 and R_of(extended)[1, 1] > 0.0


def test_extend_pivot_tolerance_is_relative():
    f = _order_one(4.0)
    with pytest.raises(NotPositiveDefinite):
        _extend_one(f, [0.0], 4.0 * PIVOT_EPS * 0.5)
    _extend_one(f, [0.0], 4.0 * PIVOT_EPS * 40.0)


def test_block_pivot_floor_is_the_running_max_diagonal():
    # each pivot faces PIVOT_EPS times the largest diagonal entry up to
    # its own row, from the base or the block, as in a one-row chain
    f = _order_one(4.0)
    tiny = 4.0 * PIVOT_EPS * 0.5
    for rows, index in (([[0.0, tiny, 0.0], [0.0, 0.0, 1.0]], 1),
                        ([[0.0, 1e6, 0.0], [0.0, 0.0, 1e6 * PIVOT_EPS * 0.5]], 2)):
        with pytest.raises(NotPositiveDefinite) as exc:
            factor_batch(np.array(rows), [1.0, 1.0], f, [1.0])
        assert exc.value.pivot_index == index
    # a small pivot clears its floor even when a later row's diagonal
    # would raise the floor above it
    assert factor(np.diag([1.0, 100.0 * PIVOT_EPS, 1e6])).m == 3

"""Cholesky factorization by row bordering.

Convention: K = R^T R with R upper triangular, no pivoting.  The fixed
elimination order is what makes appending training rows cheap: bordering
K by m new rows and columns appends m columns to R, and the existing
factor is untouched.  The new columns are R12 = R11^-T K12 over
R22 = chol(K22 - R12^T R12).  A few new rows solve for R12 one packed
triangular solve (Level-2 ``dtpsv``) each; a block of rows unpacks R11
once and solves for all of R12 in one Level-3 ``dtrsm``.  A single row
is a scalar pivot, with no m x m factorization.  A batch factorization
is the bordering of an empty factor, so one routine, ``factor_batch``,
does both.

R is held column-packed (BLAS upper packed layout), so appended columns
are a contiguous write at the tail of the buffer and the per-row
triangular solves run on the packed storage without copying.  The
buffer is a ``_Tail`` with spare capacity, shared between a factor and
its extensions: extending the newest factor appends in place, extending
an older one copies first.  Factors are immutable values, and extending one
factor from several threads at once is safe: one extension claims the
buffer's tip, the others copy.

Matrices reach ``factor_batch`` from ``kernel.gram`` and the model's
appends, which only build them from rows checked where they entered the
library, so it follows LAPACK's contract: it reads one triangle and
makes no checking pass over K.  Its pivot test rejects NaN pivots, so a
non-finite entry in the triangle it reads still raises
``NotPositiveDefinite``.  Like LAPACK's in-place routines it consumes
its input: a batch factors K where it lies (``dpotrf`` with
``overwrite_a``) and packs the result, so going from K to the packed
factor takes no second n x n array.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.linalg.blas import ddot, dgemv, dsyrk, dtpsv, dtrsm
from scipy.linalg.lapack import dpotrf, dtpttr, dtrtri, dtrttp

# A pivot whose square is at or below PIVOT_EPS times the max diagonal of
# the factored matrix up to its row is treated as numerically zero.
PIVOT_EPS = 1e-12

# From this many new rows on, a border solves for R12 with one dtrsm
# against R11 unpacked to dense (an n x n copy) instead of one packed
# dtpsv per row.  Timed at n = 1000, 2000 and 3200, the two cross
# between 8 and 12 rows (at n = 500, between 16 and 24).
BLOCK_BORDER_ROWS = 12


class NotPositiveDefinite(Exception):
    """The matrix has a numerically nonpositive pivot at ``pivot_index``."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = int(pivot_index)
        super().__init__(message or f"nonpositive pivot at index {pivot_index}")


class _Tail:
    """Growable 1-D float64 buffer shared by a chain of values.

    Each value in the chain owns a prefix ``buf[:used]``; ``tip`` is the
    longest prefix any value owns.  Written entries never change, so a
    value extends in place only while its prefix reaches the tip, and
    claims the tip under the lock first: of several values extending the
    same prefix, one writes in place and the others copy.
    """

    __slots__ = ("buf", "tip", "_lock")

    def __init__(self, capacity: int = 0):
        self.buf = np.empty(capacity)
        self.tip = 0
        self._lock = threading.Lock()

    def extend(self, used: int, values) -> "_Tail":
        """The tail holding ``buf[:used]`` followed by ``values``."""
        n = used + len(values)
        with self._lock:
            claimed = self.tip == used and self.buf.shape[0] >= n
            if claimed:
                self.tip = n
        tail = self
        if not claimed:
            tail = _Tail(n + max(64, n // 4))
            tail.buf[:used] = self.buf[:used]
            tail.tip = n
        tail.buf[used:n] = values
        return tail


class CholeskyFactor:
    """Upper-triangular factor R of a symmetric positive definite matrix.

    R is the first m (m + 1) / 2 entries of a column-packed ``_Tail``;
    instances never change after construction.  ``_max_diag`` tracks the
    largest diagonal entry of the factored matrix, the scale of the
    relative pivot tolerance.
    """

    __slots__ = ("_tail", "_m", "_max_diag")

    def __init__(self, tail: _Tail, m: int, max_diag: float):
        self._tail = tail
        self._m = m
        self._max_diag = max_diag

    @property
    def m(self) -> int:
        """Current order of the factor."""
        return self._m

    def __repr__(self) -> str:
        return f"CholeskyFactor(m={self._m})"


def _vector(v, n: int) -> np.ndarray:
    v = np.ascontiguousarray(np.asarray(v, dtype=np.float64).ravel())
    if v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    return v


def factor_batch(K_rows, b, base: CholeskyFactor | None = None,
                 theta=None) -> tuple[CholeskyFactor, np.ndarray]:
    """Border a factor of order n by a batch of m new rows of K = R^T R.

    ``K_rows`` holds the m new rows of K, shape (m, n + m), against the
    n rows ``base`` factors and the new rows themselves.  Only entries
    with j <= n + i (K's lower triangle) are read; the rest may hold
    anything.  Without ``base``, n = 0 and ``K_rows`` is K itself.
    K_rows is not checked for finiteness: a NaN or infinity in the read
    triangle yields a NaN or nonpositive pivot, which is rejected like
    any other.

    ``K_rows`` is consumed: its contents are undefined after the call,
    whether it succeeds or raises.  A batch on a C-ordered float64 K
    factors it in place; a caller that needs K again passes a copy.

    The same call extends the forward substitution theta = R^-T b: given
    ``theta``, the base's n entries, it returns the m new ones for the
    new rows' right-hand side ``b``.

    Returns:
        (factor of order n + m, theta's m new entries).

    Raises:
        NotPositiveDefinite: with the 0-based index, counted from the
            first row of K, of the first pivot whose square is not above
            PIVOT_EPS times the max diagonal of K up to that row.
        ValueError: K_rows is not of shape (m, n + m) with m >= 1.
    """
    K_rows = np.asarray(K_rows, dtype=np.float64)
    n = 0 if base is None else base._m
    m = K_rows.shape[0] if K_rows.ndim == 2 else 0
    if m < 1 or K_rows.shape[1] != n + m:
        raise ValueError(f"K_rows must have shape (m, {n} + m) with m >= 1")
    b = _vector(b, m)
    if n:
        if theta is None:
            raise ValueError("bordering a base needs the base's theta")
        theta = _vector(theta, n)

    if m == 1 and n:
        return _border_row(K_rows[0], b[0], base, theta)

    lo = n * (n + 1) // 2
    # row j's floor uses the max diagonal up to row j, as bordering one
    # row at a time would; read before dpotrf overwrites the diagonal
    max_diag = np.maximum.accumulate(np.diagonal(K_rows, n))
    if n:
        np.maximum(max_diag, base._max_diag, out=max_diag)
    # the upper triangle of S^T is the lower triangle of S, and the
    # transpose of C-ordered rows is Fortran-ordered: for a batch, dpotrf
    # factors K_rows' own memory in place
    S = K_rows[:, n:].T
    if n:
        if m < BLOCK_BORDER_ROWS:
            R12 = np.empty((n, m), order="F")
            for i in range(m):
                R12[:, i] = dtpsv(n, base._tail.buf[:lo], K_rows[i, :n],
                                  lower=0, trans=1)
        else:
            R12 = dtrsm(1.0, _unpack(base), K_rows[:, :n].T, lower=0, trans_a=1)
        S = dsyrk(-1.0, R12, beta=1.0, c=S, trans=1)
    # only R22's upper triangle is read below, so the other is left as is
    R22, info = dpotrf(S, lower=0, clean=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} in dpotrf")
    # on a failure LAPACK completed the pivots before it, and the first
    # small one among them is where K stops being numerically definite
    done = info - 1 if info > 0 else m
    # negated so that a NaN pivot, or a NaN max diagonal, fails the test
    pivots = np.diag(R22)[:done]
    small = np.flatnonzero(~(pivots**2 > PIVOT_EPS * max_diag[:done]))
    if small.size or info > 0:
        raise NotPositiveDefinite(n + (int(small[0]) if small.size else done))

    rhs = dgemv(-1.0, R12, theta, beta=1.0, y=b, trans=1) if n else b
    packed = dtrttp(R22)[0]
    theta_new = dtpsv(m, packed, rhs, lower=0, trans=1)
    if n:
        # new column j of R is R12[:, j] over the top j + 1 entries of R22[:, j]
        packed = np.concatenate(
            [x for j in range(m) for x in (R12[:, j], R22[: j + 1, j])])
    tail = (_Tail() if base is None else base._tail).extend(lo, packed)
    return CholeskyFactor(tail, n + m, float(max_diag[-1])), theta_new


def _border_row(k: np.ndarray, b: float, base: CholeskyFactor,
                theta: np.ndarray) -> tuple[CholeskyFactor, np.ndarray]:
    """``factor_batch`` for one new row k of K onto a nonempty base.

    The new column is r = R11^-T k[:n], solved in place in the buffer
    that is appended, over the pivot sqrt(k[n] - r.r): no m x m
    factorization and no vector pivot test.
    """
    n = base._m
    lo = n * (n + 1) // 2
    column = np.empty(n + 1)
    column[:n] = k[:n]
    r = dtpsv(n, base._tail.buf[:lo], column[:n], lower=0, trans=1, overwrite_x=1)
    max_diag = max(base._max_diag, float(k[n]))
    schur = float(k[n]) - ddot(r, r)
    # negated so that a NaN pivot fails the test
    if not schur > PIVOT_EPS * max_diag:
        raise NotPositiveDefinite(n)
    column[n] = pivot = np.sqrt(schur)
    theta_new = np.array([(b - ddot(r, theta)) / pivot])
    return CholeskyFactor(base._tail.extend(lo, column), n + 1, max_diag), theta_new


def solve_upper(factor: CholeskyFactor, theta) -> np.ndarray:
    """Solve R alpha = theta by back substitution."""
    m = factor._m
    return dtpsv(m, factor._tail.buf[: m * (m + 1) // 2], _vector(theta, m),
                 lower=0, trans=0)


def _unpack(factor: CholeskyFactor) -> np.ndarray:
    """R as a new Fortran-ordered dense array.

    dtpttr returns a zero-filled array, so the strict lower triangle is
    zero.
    """
    m = factor._m
    return dtpttr(m, factor._tail.buf[: m * (m + 1) // 2])[0]


def _inverse_diag(factor: CholeskyFactor) -> np.ndarray:
    """Diagonal of K^-1 for K = R^T R: the row sums of squares of R^-1.

    R is unpacked once into a dense matrix and inverted in place by
    LAPACK's blocked triangular inverse; the packed inverse (dpptri) is
    unblocked and several times slower.  The strict lower triangle stays
    zero throughout.
    """
    R, info = dtrtri(_unpack(factor), lower=0, overwrite_c=1)
    if info != 0:
        raise ValueError(f"triangular inverse failed with info={info}")
    return np.einsum("ij,ij->i", R, R)

"""Cholesky factorization with row-bordered incremental extension.

Convention: K = R^T R with R upper triangular, no pivoting.  The fixed
elimination order is what makes appending a training row a quadratic
update instead of a cubic refactorization: bordering K by one row and
column appends exactly one column to R, obtained from a single
triangular solve, while the existing factor is untouched.

R is held column-packed (BLAS upper packed layout), so an appended
column is a contiguous write at the tail of the buffer and the
triangular solves run on the packed storage without copying.  The
buffer is a ``_Tail`` with spare capacity, shared between a factor and
its extensions: extending the newest factor appends in place, extending
an older one copies first.  Factors are immutable values, and extending
one factor from several threads at once is safe: one extension claims
the buffer's tip, the others copy.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.linalg.blas import dtpsv
from scipy.linalg.lapack import dpotrf, dtpttr, dtrtri

# A pivot at or below PIVOT_EPS times the max diagonal of the factored
# matrix is treated as numerically zero.
PIVOT_EPS = 1e-12


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


def _pack(R: np.ndarray) -> np.ndarray:
    """Columns of an upper-triangular matrix, concatenated."""
    return R.T[np.tri(R.shape[0], dtype=bool)]


class CholeskyFactor:
    """Upper-triangular factor R of a symmetric positive definite matrix.

    ``R`` and ``column`` expose the factor; instances never change after
    construction.  ``_max_diag`` tracks the largest diagonal entry of
    the factored matrix so extension applies the same relative pivot
    tolerance as batch factorization.
    """

    __slots__ = ("_tail", "_m", "_max_diag")

    def __init__(self, R, max_diag: float | None = None):
        R = np.asarray(R, dtype=np.float64)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] < 1:
            raise ValueError("R must be a square matrix of order >= 1")
        self._tail = _Tail().extend(0, _pack(R))
        self._m = R.shape[0]
        diag = np.diag(R) ** 2
        self._max_diag = float(diag.max()) if max_diag is None else float(max_diag)

    @classmethod
    def _wrap(cls, tail: _Tail, m: int, max_diag: float) -> "CholeskyFactor":
        obj = object.__new__(cls)
        obj._tail = tail
        obj._m = m
        obj._max_diag = max_diag
        return obj

    @property
    def m(self) -> int:
        """Current order of the factor."""
        return self._m

    @property
    def packed(self) -> np.ndarray:
        """Read-only view of the column-packed upper triangle."""
        view = self._tail.buf[: self._m * (self._m + 1) // 2].view()
        view.setflags(write=False)
        return view

    @property
    def R(self) -> np.ndarray:
        """The factor as a dense upper-triangular matrix (built on demand)."""
        m = self._m
        out = np.zeros((m, m))
        out.T[np.tril_indices(m)] = self._tail.buf[: m * (m + 1) // 2]
        out.setflags(write=False)
        return out

    def column(self, j: int) -> np.ndarray:
        """Read-only view of column j of R (its leading j + 1 entries)."""
        if not 0 <= j < self._m:
            raise IndexError(f"column {j} out of range for order {self._m}")
        lo = j * (j + 1) // 2
        view = self._tail.buf[lo: lo + j + 1].view()
        view.setflags(write=False)
        return view

    def __repr__(self) -> str:
        return f"CholeskyFactor(m={self._m})"


def factor_batch(K) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as K = R^T R.

    Raises:
        NotPositiveDefinite: with the 0-based index of the first pivot
            at or below PIVOT_EPS times the max-norm of K.
        ValueError: non-square, non-symmetric, or non-finite input.
    """
    K = np.ascontiguousarray(np.asarray(K, dtype=np.float64))
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] < 1:
        raise ValueError("K must be a square matrix of order >= 1")
    if not np.isfinite(K).all():
        raise ValueError("K contains non-finite entries")
    scale = float(np.abs(K).max())
    if np.abs(K - K.T).max() > 1e-8 * max(scale, 1.0):
        raise ValueError("K is not symmetric")

    tol = PIVOT_EPS * float(np.linalg.norm(K, np.inf))
    # K is symmetric to the tolerance above, so LAPACK may read the upper
    # triangle of K^T, which is Fortran-ordered: no transposing copy
    R, info = dpotrf(K.T, lower=0, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} in dpotrf")
    pivots = np.diag(R) ** 2
    small = np.flatnonzero(pivots <= tol)
    if small.size:
        raise NotPositiveDefinite(int(small[0]))

    return CholeskyFactor._wrap(_Tail().extend(0, _pack(R)), K.shape[0],
                                float(np.diag(K).max()))


def factor_extend(factor: CholeskyFactor, k_new, k_diag: float) -> CholeskyFactor:
    """Extend R to factor the matrix bordered by one new row and column.

    ``k_new`` holds the kernel values between the new point and the m
    existing points; ``k_diag`` is the new diagonal entry.  The new last
    column of R is the solution of R^T r = k_new followed by the pivot
    square root; the cost is one triangular solve, quadratic in m.

    Raises:
        NotPositiveDefinite: the Schur complement of the new row is at
            or below the relative pivot tolerance (index m, 0-based).
    """
    m = factor._m
    k_new = np.ascontiguousarray(np.asarray(k_new, dtype=np.float64).ravel())
    if k_new.shape[0] != m:
        raise ValueError(f"k_new must have length {m}, got {k_new.shape[0]}")
    k_diag = float(k_diag)
    if not (np.isfinite(k_diag) and np.isfinite(k_new).all()):
        raise ValueError("new row contains non-finite entries")

    lo = m * (m + 1) // 2
    r_col = dtpsv(m, factor._tail.buf[:lo], k_new, lower=0, trans=1)
    schur = k_diag - float(r_col @ r_col)
    max_diag = max(factor._max_diag, k_diag)
    if schur <= PIVOT_EPS * max_diag:
        raise NotPositiveDefinite(m)
    tail = factor._tail.extend(lo, np.concatenate((r_col, [np.sqrt(schur)])))
    return CholeskyFactor._wrap(tail, m + 1, max_diag)


def _check_rhs(factor: CholeskyFactor, b) -> np.ndarray:
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64).ravel())
    if b.shape[0] != factor._m:
        raise ValueError(f"right-hand side must have length {factor._m}, "
                         f"got {b.shape[0]}")
    return b


def solve_lower_transposed(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve R^T theta = b by forward substitution."""
    b = _check_rhs(factor, b)
    m = factor._m
    return dtpsv(m, factor._tail.buf[: m * (m + 1) // 2], b, lower=0, trans=1)


def solve_upper(factor: CholeskyFactor, theta) -> np.ndarray:
    """Solve R alpha = theta by back substitution."""
    theta = _check_rhs(factor, theta)
    m = factor._m
    return dtpsv(m, factor._tail.buf[: m * (m + 1) // 2], theta, lower=0, trans=0)


def solve_spd(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve K x = b given K = R^T R: forward then back substitution."""
    return solve_upper(factor, solve_lower_transposed(factor, b))


def _inverse_diag(factor: CholeskyFactor) -> np.ndarray:
    """Diagonal of K^-1 for K = R^T R: the row sums of squares of R^-1.

    R is unpacked once into a dense matrix and inverted in place by
    LAPACK's blocked triangular inverse; the packed inverse (dpptri) is
    unblocked and several times slower.  dtpttr returns a zero-filled
    array, so the strict lower triangle stays zero throughout.
    """
    m = factor._m
    R, info = dtpttr(m, factor._tail.buf[: m * (m + 1) // 2])
    if info == 0:
        R, info = dtrtri(R, lower=0, overwrite_c=1)
    if info != 0:
        raise ValueError(f"triangular inverse failed with info={info}")
    return np.einsum("ij,ij->i", R, R)

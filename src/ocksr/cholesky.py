"""Cholesky factorization by row bordering.

Convention: K = R^T R with R upper triangular, no pivoting.  The fixed
elimination order is what makes appending training rows cheap: bordering
K by m new rows and columns appends m columns to R, and the existing
factor is untouched.  The new columns are R12 = R11^-T K12 over
R22 = chol(K22 - R12^T R12).  A border has two shapes: a few new rows
border one at a time, each a scalar pivot with one packed triangular
solve (Level-2 ``dtpsv``) for its column; a block of rows solves for
R12 against R11 one column panel at a time, each panel copied out of
the packed storage into a thin work buffer for one ``dgemm`` and one
``dtrsm`` (Level 3), and factors R22 with ``dpotrf``.  A batch
factorization is the bordering of an empty factor, so one routine,
``factor_batch``, does both.

R is held column-packed (BLAS upper packed layout), so appended columns
are a contiguous write at the tail of the buffer and the per-row
triangular solves run on the packed storage without copying.  A factor
also carries the forward substitution theta = R^-T b of the right-hand
side it was built with, which bordering extends by the new rows' entries
of b, so ``solve_upper`` needs nothing but the factor.  R and theta each
live in a ``_Tail`` with spare capacity, shared between a factor and its
extensions: extending the newest factor appends in place, extending an
older one copies first.  Factors are immutable values, and extending one
factor from several threads at once is safe: one extension claims each
buffer's tip, the others copy.

Matrices reach ``factor_batch`` from ``kernel.gram`` and the model's
appends, which only build them from rows checked where they entered the
library, so it follows LAPACK's contract: it reads one triangle and
makes no checking pass over K.  Its pivot test rejects NaN pivots, so a
non-finite entry in the triangle it reads still raises
``NotPositiveDefinite``.  Like LAPACK's in-place routines it consumes
its input: a batch factors K where it lies (``dpotrf`` with
``overwrite_a``) and writes the result column by column straight into
the space it claims in a fresh tail, so K is the only n x n array from
K to the packed factor, and nothing of that size is copied twice.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.linalg.blas import ddot, dgemm, dgemv, dsyrk, dtpsv, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf, dtpttr, dtrtri

# A pivot whose square is at or below PIVOT_EPS times the max diagonal of
# the factored matrix up to its row is treated as numerically zero.
PIVOT_EPS = 1e-12

# From this many new rows on, a border solves R12 by column panels of
# the packed R11, not one scalar pivot per row.  Timed at n = 500 to
# 3200 (2-core x86-64 VM), the two cross between 8 and 24 rows: near 8
# at n = 2000 and 3200, 9 at 1000 and 24 at 500.
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

    def claim(self, used: int, n: int) -> "_Tail":
        """A tail holding ``buf[:used]``, whose ``buf[used:n]`` the caller writes.

        That is this tail when ``used`` is its tip and the capacity
        suffices, else a copy of the prefix with spare capacity.
        """
        with self._lock:
            claimed = self.tip == used and self.buf.shape[0] >= n
            if claimed:
                self.tip = n
        if claimed:
            return self
        tail = _Tail(n + max(64, n // 4))
        tail.buf[:used] = self.buf[:used]
        tail.tip = n
        return tail

    def extend(self, used: int, values) -> "_Tail":
        """The tail holding ``buf[:used]`` followed by ``values``."""
        n = used + len(values)
        tail = self.claim(used, n)
        tail.buf[used:n] = values
        return tail

    def release(self, used: int, tip: int) -> None:
        """Give the entries past ``used`` back if ``tip`` is still the tip."""
        with self._lock:
            if self.tip == tip:
                self.tip = used


class CholeskyFactor:
    """Upper-triangular factor R of a symmetric positive definite matrix.

    R is the first m (m + 1) / 2 entries of a column-packed ``_Tail``,
    and theta = R^-T b, for the right-hand side b the factor was built
    with, the first m entries of a second one; instances never change
    after construction.  ``_max_diag`` tracks the largest diagonal entry
    of the factored matrix, the scale of the relative pivot tolerance.
    """

    __slots__ = ("_tail", "_theta", "_m", "_max_diag")

    def __init__(self, tail: _Tail, theta: _Tail, m: int, max_diag: float):
        self._tail = tail
        self._theta = theta
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


def factor_batch(K_rows, b, base: CholeskyFactor | None = None) -> CholeskyFactor:
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
    factors it in place, and a block on Fortran-ordered float64 rows
    solves R12 in their memory; a caller that needs K again passes a
    copy.

    ``b`` holds the new rows' m entries of the right-hand side.  The same
    call extends the forward substitution theta = R^-T b: the result
    carries the base's theta followed by the m new entries.

    Onto a nonempty base, fewer than ``BLOCK_BORDER_ROWS`` rows border as
    m one-row calls would, bit for bit; more border as one block.

    Returns:
        The factor of order n + m.

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

    if n and m < BLOCK_BORDER_ROWS:
        chain = [base]
        try:
            for i in range(m):
                chain.append(_border_row(K_rows[i, :n + i + 1], b[i], chain[-1]))
        except NotPositiveDefinite:
            # the rows before the failed one claimed the tails' tips; give
            # them back, newest first, so that the base extends in place
            for f, prev in zip(chain[:0:-1], chain[-2::-1]):
                f._tail.release(prev._m * (prev._m + 1) // 2, f._m * (f._m + 1) // 2)
                f._theta.release(prev._m, f._m)
            raise
        return chain[-1]

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
        # R12^T, solved in K_rows' own memory when it is Fortran-ordered
        R12t = np.asfortranarray(K_rows[:, :n])
        _solve_panels(base, R12t)
        S = dsyrk(-1.0, R12t, beta=1.0, c=S)
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

    lo, hi = n * (n + 1) // 2, (n + m) * (n + m + 1) // 2
    tail = (_Tail() if base is None else base._tail).claim(lo, hi)
    packed = tail.buf[lo:hi]
    # new column j of R is R12[:, j] over the top j + 1 entries of R22[:, j]
    s = 0
    for j in range(m):
        if n:
            packed[s:s + n] = R12t[j]
        packed[s + n:s + n + j + 1] = R22[: j + 1, j]
        s += n + j + 1
    if n:
        rhs = dgemv(-1.0, R12t, base._theta.buf[:n], beta=1.0, y=b)
        theta, thetas = dtrsv(R22, rhs, lower=0, trans=1), base._theta
    else:
        theta, thetas = dtpsv(m, packed, b, lower=0, trans=1), _Tail()
    return CholeskyFactor(tail, thetas.extend(n, theta), n + m, float(max_diag[-1]))


# Width of the column panels of R11 a block border solves against.  Each
# panel is copied out of the packed tail into a buffer of its height times
# this width, so that buffer stays a thin slab next to the n x n factor.
_PANEL = 64


def _solve_panels(base: CholeskyFactor, Y: np.ndarray) -> None:
    """Overwrite the Fortran-ordered (m, n) Y with Y R11^-1, R11 the base's R.

    Column panel [c0, c1) of R11 is the packed columns c0 to c1 - 1, one
    contiguous slice of the tail.  Its rows above the panel update
    Y[:, c0:c1] by one ``dgemm`` against the solved Y[:, :c0]; its
    diagonal block is solved by one ``dtrsm``.  R11 is never unpacked.
    """
    n, buf = base._m, base._tail.buf
    work = np.empty(n * min(n, _PANEL))
    for c0 in range(0, n, _PANEL):
        c1 = min(c0 + _PANEL, n)
        w = c1 - c0
        # the packed offsets of columns c0 to c1 - 1
        first = np.arange(c0, c1) * np.arange(c0 + 1, c1 + 1) // 2
        # row k holds column c0 + k of R11 above the panel, so the
        # transpose is R11[:c0, c0:c1]
        above = work[: c0 * w].reshape(w, c0)
        for k, f in enumerate(first.tolist()):
            above[k] = buf[f:f + c0]
        # row k holds column c0 + k within the panel, up to its diagonal
        # entry and on into the next column: the transpose's upper
        # triangle is R11[c0:c1, c0:c1], and dtrsm reads no other entry
        block = buf[first[:, None] + np.arange(c0, c1)]
        panel = Y[:, c0:c1]
        if c0:
            dgemm(-1.0, Y[:, :c0], above.T, beta=1.0, c=panel, overwrite_c=1)
        dtrsm(1.0, block.T, panel, side=1, lower=0, overwrite_b=1)


def _border_row(k: np.ndarray, b: float, base: CholeskyFactor) -> CholeskyFactor:
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
    theta = [(b - ddot(r, base._theta.buf[:n])) / pivot]
    return CholeskyFactor(base._tail.extend(lo, column), base._theta.extend(n, theta),
                          n + 1, max_diag)


def solve_upper(factor: CholeskyFactor) -> np.ndarray:
    """Solve R alpha = theta by back substitution.

    alpha = K^-1 b for the right-hand side b the factor was built with.
    """
    m = factor._m
    return dtpsv(m, factor._tail.buf[: m * (m + 1) // 2], factor._theta.buf[:m],
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

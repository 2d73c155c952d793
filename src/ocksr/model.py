"""One-class scoring model trained by solving a kernel linear system.

Training fits a projection f(z) = sum_i alpha_i k(z, x_i) whose value is
driven toward 1 on target rows (and 0 on any negative rows).  The
coefficients come from one symmetric positive definite solve
(K + delta I) alpha = nu performed with a Cholesky factorization, so no
eigen-decomposition is ever needed.  A probe's novelty is the distance
of its projection from the target value 1; appending rows updates the
retained factor instead of refitting.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dgemv

from .cholesky import (
    CholeskyFactor,
    NotPositiveDefinite,
    _Tail,
    _inverse_diag,
    factor_batch,
    solve_upper,
)
from .kernel import KernelSpec, _kernel, _probes, _real_sigma, _shifted, gram

logger = logging.getLogger(__name__)

# Retry regularizers tried in order when the Gram matrix is numerically
# singular at the requested delta.
DELTA_LADDER = (1e-8, 1e-6)

# Target value of the projection on (positive) training rows.
TARGET_MEAN = 1.0

# Probes per block of the cross kernel in ``score_batch``: scoring's
# largest array is 128 x n.  Scoring 3200 probes against 3200 x 1024
# rows took as long in blocks of 128 as in one array, longer in blocks
# of 64 (2-core x86-64 VM).
_SCORE_CHUNK = 128

_MAGIC = b"OCKSR1"
# The header's kernel family byte; the Gaussian kernel is the only family.
_RBF_CODE = 1
# OCKSR1 header: magic, family code, flags, sigma, delta, n, n_neg, d.
_HEADER = struct.Struct("<6sBB d d QQQ")


@dataclass(frozen=True, eq=False)
class Model:
    """Trained one-class model.

    ``nu`` is the response vector the coefficients were solved against:
    1 for positive rows and 0 for negative rows, in the order the rows
    are retained.  ``n_neg`` is the count of its zeros.  ``spec``'s sigma
    is a real: the fits resolve a "median" one before they build a model.

    A ``Model`` built directly shares memory with the arrays it is
    given: its fields are read-only views, the caller's arrays stay
    writable, and writing to them changes the model.  ``fit`` and
    ``load_model`` copy the rows they are given or read.

    ``factor`` (the Cholesky factor R of the regularized Gram matrix,
    which carries theta = R^-T nu) and ``tails`` are in-memory caches
    that make appending m rows cost m kernel rows and one bordering of
    the factor by those m rows.  ``tails`` holds three ``cholesky._Tail``
    buffers: the rows, flattened, with ``X_train`` a view of their
    prefix; the rows shifted by x0 = ``X_train[0]``, which scoring and
    appends take every kernel value from, as ``gram`` shifts the fit's;
    and their squared norms.  Models appended from one another share
    these buffers and the factor's.  Neither cache is serialized: the
    first append to a model without them (loaded, or built directly)
    solves once over the stored and new rows, and scoring one shifts
    its rows once per call.

    A model given its caches and ``alpha=None`` (as ``fit``,
    ``fit_supervised`` and ``fit_incremental`` build it) solves
    R alpha = theta the first time ``alpha`` is read and keeps the
    result, so an append costs only its border.  A factor never changes,
    so a model read late, after its chain was appended to or branched,
    still gets its own alpha.  A model given an ``alpha`` keeps it.

    Models compare and hash by identity.
    """

    X_train: np.ndarray
    alpha: np.ndarray | None
    nu: np.ndarray
    spec: KernelSpec
    tau: float | None = None
    factor: CholeskyFactor | None = field(default=None, repr=False)
    tails: tuple[_Tail, _Tail, _Tail] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # views, so that freezing them leaves the caller's arrays writable
        X = np.ascontiguousarray(np.asarray(self.X_train, dtype=np.float64)).view()
        nu = np.asarray(self.nu, dtype=np.float64).ravel().view()
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("X_train must be a nonempty 2-d array")
        if nu.shape[0] != X.shape[0]:
            raise ValueError("nu must have one entry per training row")
        _real_sigma(self.spec)
        if self.alpha is None:
            if self.factor is None or self.tails is None or self.factor.m != X.shape[0]:
                raise ValueError("a model without alpha needs the factor of its rows")
            # unset, so that the first read reaches __getattr__
            object.__delattr__(self, "alpha")
        else:
            alpha = np.asarray(self.alpha, dtype=np.float64).ravel().view()
            if alpha.shape[0] != X.shape[0]:
                raise ValueError("alpha must have one entry per training row")
            alpha.setflags(write=False)
            object.__setattr__(self, "alpha", alpha)
        X.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "X_train", X)
        object.__setattr__(self, "nu", nu)

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: alpha, when it
        # is still to be solved from the factor
        if name != "alpha":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        alpha = solve_upper(self.factor)
        alpha.setflags(write=False)
        # one atomic store: of two threads solving at once, both return
        # the array the first one stored
        return vars(self).setdefault("alpha", alpha)

    @property
    def n_neg(self) -> int:
        return int(np.count_nonzero(self.nu == 0.0))

    @property
    def n(self) -> int:
        return self.X_train.shape[0]

    @property
    def d(self) -> int:
        return self.X_train.shape[1]


def _as_rows(X, d: int | None = None) -> np.ndarray:
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("expected a 2-d array of rows")
    if not np.isfinite(X).all():
        raise ValueError("training rows contain non-finite entries")
    if d is not None and X.shape[1] != d:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {d}")
    return X


def _factor_with_ladder(
    X: np.ndarray, nu: np.ndarray, spec: KernelSpec,
    ladder: tuple[float, ...] = DELTA_LADDER,
) -> tuple[CholeskyFactor, KernelSpec]:
    """Factor the Gram matrix against nu, escalating delta on failure.

    Returns (factor, effective spec).  The first rung resolves a
    "median" sigma over the positive rows, which lead; later rungs reuse
    it.  The back substitution is left to the model's first read of alpha.
    """
    requested = spec.delta
    deltas = [requested] + [d for d in ladder if d > requested]
    last: NotPositiveDefinite | None = None
    for delta in deltas:
        # factor_batch factors K in place, the one n x n array of the
        # fit, so a failed rung (rare) builds it again from the rows
        K, spec = gram(X, replace(spec, delta=delta),
                       median_rows=np.count_nonzero(nu))
        try:
            factor = factor_batch(K, nu)
        except NotPositiveDefinite as exc:
            # without its traceback, which holds the consumed K
            last = exc.with_traceback(None)
            logger.warning(
                "Gram matrix not positive definite at delta=%g (pivot %d)",
                delta, exc.pivot_index,
            )
            continue
        finally:
            # released before the next rung builds its own
            del K
        if delta != requested:
            logger.warning("regularizer escalated from delta=%g to delta=%g",
                           requested, delta)
        return factor, spec
    assert last is not None
    raise last


def _with_caches(X: np.ndarray, nu: np.ndarray, spec: KernelSpec,
                 factor: CholeskyFactor, tau: float | None = None) -> Model:
    """A model whose rows, shifted rows and their norms live in fresh tails.

    Its alpha is solved when first read.  The fit has released K by now.
    """
    rows, shifted = _Tail().extend(0, X.ravel()), _Tail().claim(0, X.size)
    X = rows.buf[: X.size].reshape(X.shape)
    s = _shifted(X, X[0], out=shifted.buf[: X.size].reshape(X.shape))[1]
    return Model(X, None, nu, spec, tau=tau, factor=factor,
                 tails=(rows, shifted, _Tail().extend(0, s)))


def fit(X_pos, spec: KernelSpec) -> Model:
    """Train on target rows only.

    The response vector is all ones, so at delta = 0 every training row
    projects exactly to the target value 1 and the training projections
    have zero spread.  A "median" sigma is the median pairwise distance
    of X_pos, taken from the distances of the fit's Gram matrix.
    """
    X = _as_rows(X_pos)
    nu = np.ones(X.shape[0])
    factor, eff = _factor_with_ladder(X, nu, spec)
    return _with_caches(X, nu, eff, factor)


def fit_supervised(X_pos, X_neg, spec: KernelSpec) -> Model:
    """Train on target rows plus known outlier rows.

    Rows are retained positives first, then negatives; the response
    vector is 1 on the positive block and 0 on the negative block.  A
    "median" sigma is the median pairwise distance of the positive rows.
    With no negatives this reduces exactly to ``fit``.
    """
    X_pos = _as_rows(X_pos)
    if X_neg is None or len(X_neg) == 0:
        return fit(X_pos, spec)
    X_neg = _as_rows(X_neg, X_pos.shape[1])
    X = np.vstack([X_pos, X_neg])
    nu = np.concatenate([np.ones(X_pos.shape[0]), np.zeros(X_neg.shape[0])])
    factor, eff = _factor_with_ladder(X, nu, spec)
    return _with_caches(X, nu, eff, factor)


def fit_incremental(model: Model, X_new) -> Model:
    """Append positive rows to a trained model, extending its factor.

    The m new rows border the retained Cholesky factor by m rows and
    columns (a scalar pivot per row, or for a block triangular solves by
    panels of the packed factor and an m x m factorization) and extend
    the factor's theta = R^-T nu.
    That is all an append costs: the enlarged coefficient vector is one
    back substitution away, made when ``alpha`` is first read.  The
    result matches a batch fit on the concatenated rows.  Appended rows
    are always treated as positives; adding negatives requires a refit.

    A model without caches (loaded, or built directly) has no factor to
    extend: its stored and new rows are solved together once, in stored
    order followed by the new rows, at the stored delta with no ladder.

    Raises:
        NotPositiveDefinite: a new row makes the system numerically
            singular (an exact duplicate at delta = 0, for instance).
    """
    X_new = _as_rows(X_new, model.d) if len(X_new) else None
    if X_new is None or X_new.shape[0] == 0:
        return model

    nu = np.concatenate([model.nu, np.ones(X_new.shape[0])])
    if model.factor is None or model.tails is None:
        X = np.vstack([model.X_train, X_new])
        factor, spec = _factor_with_ladder(X, nu, model.spec, ladder=())
        return _with_caches(X, nu, spec, factor, tau=model.tau)

    (n, d), m, spec = model.X_train.shape, X_new.shape[0], model.spec
    x0, (rows, shifted, sq) = model.X_train[0], model.tails
    W, sw = _shifted(X_new, x0)
    tails = (rows.extend(n * d, X_new.ravel()), shifted.extend(n * d, W.ravel()),
             sq.extend(n, sw))
    Y = tails[1].buf[: (n + m) * d].reshape(n + m, d)
    try:
        # the new rows of K, against every row, Fortran-ordered: the order in
        # which a block border solves in K's own memory; the rbf self-kernel is 1
        K_rows = _kernel(X_new, x0, spec.sigma, Y, tails[2].buf[: n + m], order="F")[0]
        np.fill_diagonal(K_rows[:, n:], 1.0 + spec.delta)
        factor = factor_batch(K_rows, nu[n:], model.factor)
    except BaseException:
        # give the rows' tails back, as factor_batch does the factor's
        for tail, used, new in zip(tails, (n * d, n * d, n), (X_new, W, sw)):
            tail.release(used, used + new.size)
        raise
    X = tails[0].buf[: (n + m) * d].reshape(n + m, d)
    return Model(X, None, nu, spec, tau=model.tau, factor=factor, tails=tails)


def score_batch(model: Model, Z) -> tuple[np.ndarray, np.ndarray]:
    """Return (projections, novelties) for the probe rows of Z.

    Novelty is the absolute deviation of the projection from the target
    value 1; small novelty means target-like.

    The cross kernel is built and applied ``_SCORE_CHUNK`` probes at a
    time, against the shifted training rows and their squared norms that
    the model's tails hold (computed once here for a model without
    them), so no array of probes times training rows is made.
    """
    X, sigma = model.X_train, model.spec.sigma
    Z = _probes(X, Z)
    Y, s = _shifted(X, X[0]) if model.tails is None else (
        model.tails[1].buf[: X.size].reshape(X.shape), model.tails[2].buf[: model.n])
    alpha = model.alpha
    projections = np.empty(Z.shape[0])
    for i in range(0, Z.shape[0], _SCORE_CHUNK):
        # one expression, so that each block is freed before the next
        projections[i:i + _SCORE_CHUNK] = dgemv(
            1.0, _kernel(Z[i:i + _SCORE_CHUNK], X[0], sigma, Y, s)[0].T, alpha, trans=1)
    return projections, np.abs(projections - TARGET_MEAN)


def _check_tau(tau: float) -> float:
    """A novelty threshold as a float: finite and nonnegative, or ValueError."""
    tau = float(tau)
    if not 0.0 <= tau < np.inf:
        raise ValueError("tau must be a nonnegative real")
    return tau


def _check_rejection(rate: float) -> float:
    """A training rejection rate as a float in [0, 1), or ValueError."""
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ValueError("target_rejection must lie in [0, 1)")
    return rate


def classify(novelties, tau: float) -> np.ndarray:
    """The threshold rule: True (target) where a novelty is at most tau.

    The boundary is inclusive: a novelty equal to tau is a target.
    """
    return np.asarray(novelties) <= _check_tau(tau)


def calibrate_threshold(X_pos, spec: KernelSpec, target_rejection: float) -> float:
    """Leave-one-out novelty threshold for a desired target rejection rate.

    Each training row is scored by a model fitted on the remaining rows;
    tau is the empirical (1 - target_rejection) quantile (linear
    interpolation) of those held-out novelty scores.  Rejection 0 gives
    the maximum held-out novelty.

    The held-out scores come in closed form from one fit on all rows
    (Allen's PRESS identity): with H = K + delta I and alpha = H^-1 1,
    the model fitted without row i projects x_i to 1 - alpha_i / h_i,
    where h_i = [H^-1]_ii, so row i's held-out novelty is
    |alpha_i| / h_i.  The cost is one Cholesky factorization plus one
    triangular inverse, O(n^3), instead of n refits.

    Every held-out fit uses the effective delta of the full fit.  When
    the full set keeps the requested delta this is exact: removing a row
    can only raise each later pivot and lower the pivot tolerance, so no
    held-out set would escalate.  Only when the full set escalates the
    ladder could a held-out set have settled on a lower rung.

    Args:
        X_pos: at least 3 target rows.
        spec: kernel configuration; a "median" sigma is resolved over
            X_pos as in ``fit``, and delta escalates as in ``fit``.
        target_rejection: desired training rejection rate in [0, 1).

    Raises:
        NotPositiveDefinite: the Gram matrix of all rows fails at every
            rung of the delta ladder.
    """
    X = _as_rows(X_pos)
    if X.shape[0] < 3:
        raise ValueError("leave-one-out calibration needs at least 3 rows")
    target_rejection = _check_rejection(target_rejection)
    model = fit(X, spec)
    novelties = np.abs(model.alpha) / _inverse_diag(model.factor)
    return float(np.quantile(novelties, 1.0 - target_rejection))


def _canonical_order(model: Model) -> Model:
    """Reorder rows positives-first so n_neg fully describes the response."""
    negative = model.nu == 0.0
    if (negative[:-1] <= negative[1:]).all():  # already positives first
        return model
    order = np.argsort(negative, kind="stable")
    return Model(model.X_train[order], model.alpha[order], model.nu[order],
                 model.spec, tau=model.tau)


def save_model(model: Model, path: str) -> None:
    """Serialize a model to the OCKSR1 binary format.

    Layout: magic, family code, flags (bit 0: tau present), sigma, delta,
    n, n_neg, d, optional tau, then X_train row-major and alpha, all
    reals as 64-bit IEEE little-endian.  Rows are stored positives first
    so the negative count recovers the response vector on load.

    Raises:
        ValueError: ``nu`` holds a value other than 0 or 1; no file is written.
    """
    if not ((model.nu == 0.0) | (model.nu == 1.0)).all():
        raise ValueError("OCKSR1 stores a response of 0s and 1s only")
    model = _canonical_order(model)
    flags = 1 if model.tau is not None else 0
    header = _HEADER.pack(_MAGIC, _RBF_CODE, flags, model.spec.sigma,
                          model.spec.delta, model.n, model.n_neg, model.d)
    with open(path, "wb") as fh:
        fh.write(header)
        if model.tau is not None:
            fh.write(struct.pack("<d", model.tau))
        fh.write(model.X_train.astype("<f8").tobytes(order="C"))
        fh.write(model.alpha.astype("<f8").tobytes())


class ModelFormatError(ValueError):
    """Raised when a model file fails structural validation."""


def load_model(path: str) -> Model:
    """Load a model saved by ``save_model``.

    Raises:
        ModelFormatError: bad magic, unknown family, unknown header
            flags, a bandwidth or regularizer out of range, no rows or
            more negative rows than rows, truncated payload, non-finite
            rows or coefficients, or a negative or non-finite threshold.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError(f"{path}: truncated header")
    magic, family_code, flags, sigma, delta, n, n_neg, d = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic {magic!r}")
    if family_code != _RBF_CODE:
        raise ModelFormatError(f"{path}: unknown kernel family code {family_code}")
    if flags & ~1:  # bit 0 (tau present) is the only flag OCKSR1 defines
        raise ModelFormatError(f"{path}: unknown header flags {flags}")
    try:
        spec = KernelSpec(sigma=sigma, delta=delta)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if n < 1 or n_neg > n:
        raise ModelFormatError(f"{path}: {n} rows, {n_neg} of them negative")
    offset = _HEADER.size
    tau = None
    if flags & 1:
        if len(blob) < offset + 8:
            raise ModelFormatError(f"{path}: truncated threshold")
        (tau,) = struct.unpack_from("<d", blob, offset)
        offset += 8
    expected = offset + 8 * (n * d + n)
    if len(blob) != expected:
        raise ModelFormatError(
            f"{path}: expected {expected} bytes, found {len(blob)}")
    X = np.frombuffer(blob, dtype="<f8", count=n * d, offset=offset)
    X = X.reshape(n, d).astype(np.float64)
    offset += 8 * n * d
    alpha = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).astype(
        np.float64)
    # the file is outside input: nothing downstream checks these again
    if not (np.isfinite(X).all() and np.isfinite(alpha).all()):
        raise ModelFormatError(f"{path}: non-finite training rows or coefficients")
    if tau is not None and not 0.0 <= tau < np.inf:
        raise ModelFormatError(f"{path}: negative or non-finite threshold {tau!r}")
    nu = np.concatenate([np.ones(n - n_neg), np.zeros(n_neg)])
    return Model(X, alpha, nu, spec, tau=tau)

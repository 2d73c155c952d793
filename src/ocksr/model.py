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
from enum import Enum

import numpy as np

from .cholesky import (
    CholeskyFactor,
    NotPositiveDefinite,
    _Tail,
    _inverse_diag,
    factor_batch,
    solve_upper,
)
from .kernel import KernelSpec, _rbf, _sq_dists, gram, kernel_cross

logger = logging.getLogger(__name__)

# Retry regularizers tried in order when the Gram matrix is numerically
# singular at the requested delta.
DELTA_LADDER = (1e-8, 1e-6)

# Target value of the projection on (positive) training rows.
TARGET_MEAN = 1.0

_MAGIC = b"OCKSR1"
# The header's kernel family byte; the Gaussian kernel is the only family.
_RBF_CODE = 1


class Decision(Enum):
    TARGET = "target"
    OUTLIER = "outlier"


@dataclass(frozen=True)
class Model:
    """Trained one-class model.

    ``nu`` is the response vector the coefficients were solved against:
    1 for positive rows and 0 for negative rows, in the order the rows
    are retained.  ``n_neg`` counts the negative rows.

    A ``Model`` built directly shares memory with the arrays it is
    given: its fields are read-only views, the caller's arrays stay
    writable, and writing to them changes the model.  ``fit`` and
    ``load_model`` copy the rows they are given or read.

    ``factor`` (the Cholesky factor R of the regularized Gram matrix)
    and ``tails`` are in-memory caches that make appending m rows cost
    m kernel rows and one bordering of the factor by those m rows.
    ``tails`` holds three ``cholesky._Tail`` buffers: the rows,
    flattened, with ``X_train`` a view of their prefix; their squared
    norms; and theta = R^-T nu.
    Models appended from one another share these buffers.  Neither cache
    is serialized: the first append to a model without them (loaded, or
    built directly) solves once over the stored and new rows.

    A model given its caches and ``alpha=None`` (as ``fit``,
    ``fit_supervised`` and ``fit_incremental`` build it) solves
    R alpha = theta the first time ``alpha`` is read and keeps the
    result, so an append costs only its border.  theta's prefix in the
    shared tail never changes, so a model read late, after its chain was
    appended to or branched, still gets its own alpha.  A model given an
    ``alpha`` keeps it.
    """

    X_train: np.ndarray
    alpha: np.ndarray | None
    nu: np.ndarray
    spec: KernelSpec
    n_neg: int = 0
    tau: float | None = None
    factor: CholeskyFactor | None = field(default=None, repr=False, compare=False)
    tails: tuple[_Tail, _Tail, _Tail] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # views, so that freezing them leaves the caller's arrays writable
        X = np.ascontiguousarray(np.asarray(self.X_train, dtype=np.float64)).view()
        nu = np.asarray(self.nu, dtype=np.float64).ravel().view()
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("X_train must be a nonempty 2-d array")
        if nu.shape[0] != X.shape[0]:
            raise ValueError("nu must have one entry per training row")
        if not 0 <= self.n_neg <= X.shape[0]:
            raise ValueError("n_neg out of range")
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
        # is still to be solved from the factor and theta's prefix
        if name != "alpha":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        factor = self.factor
        alpha = solve_upper(factor, self.tails[2].buf[: factor.m])
        alpha.setflags(write=False)
        # one atomic store: of two threads solving at once, both return
        # the array the first one stored
        return vars(self).setdefault("alpha", alpha)

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
) -> tuple[CholeskyFactor, KernelSpec, np.ndarray]:
    """Factor the Gram matrix, escalating delta on failure.

    Returns (factor, effective spec, theta) with theta = R^-T nu the
    forward-substitution half of the solve: the back substitution is
    left to the model's first read of alpha, and appends extend theta.
    """
    deltas = [spec.delta] + [d for d in ladder if d > spec.delta]
    last: NotPositiveDefinite | None = None
    for delta in deltas:
        # factor_batch factors K in place, the one n x n array of the
        # fit, so a failed rung (rare) builds it again from the rows
        try:
            factor, theta = factor_batch(gram(X, replace(spec, delta=delta)), nu)
        except NotPositiveDefinite as exc:
            # without its traceback, which holds the consumed K
            last = exc.with_traceback(None)
            logger.warning(
                "Gram matrix not positive definite at delta=%g (pivot %d)",
                delta, exc.pivot_index,
            )
            continue
        if delta != spec.delta:
            logger.warning("regularizer escalated from delta=%g to delta=%g",
                           spec.delta, delta)
        return factor, replace(spec, delta=delta), theta
    assert last is not None
    raise last


def _with_caches(X: np.ndarray, nu: np.ndarray, spec: KernelSpec, n_neg: int,
                 factor: CholeskyFactor, theta: np.ndarray,
                 tau: float | None = None) -> Model:
    """A model whose rows, row norms and theta live in fresh tails.

    Its alpha is solved when first read.
    """
    rows = _Tail().extend(0, X.ravel())
    tails = (rows, _Tail().extend(0, np.einsum("ij,ij->i", X, X)),
             _Tail().extend(0, theta))
    return Model(rows.buf[: X.size].reshape(X.shape), None, nu, spec,
                 n_neg=n_neg, tau=tau, factor=factor, tails=tails)


def fit(X_pos, spec: KernelSpec) -> Model:
    """Train on target rows only.

    The response vector is all ones, so at delta = 0 every training row
    projects exactly to the target value 1 and the training projections
    have zero spread.
    """
    X = _as_rows(X_pos)
    nu = np.ones(X.shape[0])
    factor, eff, theta = _factor_with_ladder(X, nu, spec)
    return _with_caches(X, nu, eff, 0, factor, theta)


def fit_supervised(X_pos, X_neg, spec: KernelSpec) -> Model:
    """Train on target rows plus known outlier rows.

    Rows are retained positives first, then negatives; the response
    vector is 1 on the positive block and 0 on the negative block.  With
    no negatives this reduces exactly to ``fit``.
    """
    X_pos = _as_rows(X_pos)
    if X_neg is None or len(X_neg) == 0:
        return fit(X_pos, spec)
    X_neg = _as_rows(X_neg, X_pos.shape[1])
    X = np.vstack([X_pos, X_neg])
    nu = np.concatenate([np.ones(X_pos.shape[0]), np.zeros(X_neg.shape[0])])
    factor, eff, theta = _factor_with_ladder(X, nu, spec)
    return _with_caches(X, nu, eff, X_neg.shape[0], factor, theta)


def fit_incremental(model: Model, X_new) -> Model:
    """Append positive rows to a trained model, extending its factor.

    The m new rows border the retained Cholesky factor by m rows and
    columns (triangular solves against the old factor, then an m x m
    factorization) and extend the cached forward-substituted response
    theta.  That is all an append costs: the enlarged coefficient vector
    is one back substitution away, made when ``alpha`` is first read.
    The result matches a batch fit on the concatenated rows.  Appended
    rows are always treated as positives; adding negatives requires a
    refit.

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
        factor, spec, theta = _factor_with_ladder(X, nu, model.spec, ladder=())
        return _with_caches(X, nu, spec, model.n_neg, factor, theta, tau=model.tau)

    (n, d), m, spec = model.X_train.shape, X_new.shape[0], model.spec
    rows, sq, theta = model.tails
    sq_new = np.einsum("ij,ij->i", X_new, X_new)
    rows = rows.extend(n * d, X_new.ravel())
    sq = sq.extend(n, sq_new)
    X = rows.buf[: (n + m) * d].reshape(n + m, d)
    # the new rows of K, against every row; the rbf self-kernel is exactly 1
    K_rows = _rbf(_sq_dists(X_new, X, sq_new, sq.buf[: n + m]), spec.sigma)
    np.fill_diagonal(K_rows[:, n:], 1.0 + spec.delta)
    factor, theta_new = factor_batch(K_rows, nu[n:], model.factor, theta.buf[:n])
    theta = theta.extend(n, theta_new)
    return Model(X, None, nu, spec, n_neg=model.n_neg, tau=model.tau,
                 factor=factor, tails=(rows, sq, theta))


def score_batch(model: Model, Z) -> tuple[np.ndarray, np.ndarray]:
    """Return (projections, novelties) for the probe rows of Z.

    Novelty is the absolute deviation of the projection from the target
    value 1; small novelty means target-like.
    """
    projections = kernel_cross(model.X_train, Z, model.spec) @ model.alpha
    return projections, np.abs(projections - TARGET_MEAN)


def score(model: Model, z) -> tuple[float, float]:
    """``score_batch`` for one probe z: (projection, novelty) as floats."""
    z = np.asarray(z, dtype=np.float64).ravel()
    projections, novelties = score_batch(model, z[None, :])
    return float(projections[0]), float(novelties[0])


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


def classify(model: Model, z, tau: float) -> Decision:
    """Threshold the novelty of z at tau (inclusive: novelty == tau is TARGET)."""
    tau = _check_tau(tau)
    _, novelty = score(model, z)
    return Decision.TARGET if novelty <= tau else Decision.OUTLIER


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
        spec: kernel configuration; its delta escalates as in ``fit``.
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
    if model.n_neg == 0:
        return model
    expected = np.concatenate([np.ones(model.n - model.n_neg),
                               np.zeros(model.n_neg)])
    if np.array_equal(model.nu, expected):
        return model
    order = np.argsort(model.nu == 0.0, kind="stable")
    return Model(model.X_train[order], model.alpha[order], model.nu[order],
                 model.spec, n_neg=model.n_neg, tau=model.tau)


def save_model(model: Model, path: str) -> None:
    """Serialize a model to the OCKSR1 binary format.

    Layout: magic, family code, flags (bit 0: tau present), sigma, delta,
    n, n_neg, d, optional tau, then X_train row-major and alpha, all
    reals as 64-bit IEEE little-endian.  Rows are stored positives first
    so the negative count recovers the response vector on load.
    """
    model = _canonical_order(model)
    flags = 1 if model.tau is not None else 0
    header = struct.pack(
        "<6sBB d d QQQ",
        _MAGIC, _RBF_CODE, flags,
        model.spec.sigma, model.spec.delta,
        model.n, model.n_neg, model.d,
    )
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
        ModelFormatError: bad magic, unknown family, a bandwidth or
            regularizer out of range, no rows or more negative rows than
            rows, truncated payload, non-finite rows or coefficients, or
            a negative or non-finite threshold.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head_fmt = "<6sBB d d QQQ"
    head_size = struct.calcsize(head_fmt)
    if len(blob) < head_size:
        raise ModelFormatError(f"{path}: truncated header")
    magic, family_code, flags, sigma, delta, n, n_neg, d = struct.unpack_from(
        head_fmt, blob)
    if magic != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic {magic!r}")
    if family_code != _RBF_CODE:
        raise ModelFormatError(f"{path}: unknown kernel family code {family_code}")
    try:
        spec = KernelSpec(sigma=sigma, delta=delta)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if n < 1 or n_neg > n:
        raise ModelFormatError(f"{path}: {n} rows, {n_neg} of them negative")
    offset = head_size
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
    return Model(X, alpha, nu, spec, n_neg=n_neg, tau=tau)

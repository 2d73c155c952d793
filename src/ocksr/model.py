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
    factor_extend,
    solve_lower_transposed,
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
_FAMILY_CODES = {"rbf": 1}
_FAMILY_NAMES = {code: fam for fam, code in _FAMILY_CODES.items()}


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
    and ``tails`` are in-memory caches that make an append cost one
    kernel row and one bordered factor column.  ``tails`` holds three
    ``cholesky._Tail`` buffers: the rows, flattened, with ``X_train`` a
    view of their prefix; their squared norms; and theta = R^-T nu.
    Models appended from one another share these buffers.  Neither cache
    is serialized, and both are rebuilt on the first append after
    loading.
    """

    X_train: np.ndarray
    alpha: np.ndarray
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
        alpha = np.asarray(self.alpha, dtype=np.float64).ravel().view()
        nu = np.asarray(self.nu, dtype=np.float64).ravel().view()
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("X_train must be a nonempty 2-d array")
        if alpha.shape[0] != X.shape[0] or nu.shape[0] != X.shape[0]:
            raise ValueError("alpha and nu must have one entry per training row")
        if not 0 <= self.n_neg <= X.shape[0]:
            raise ValueError("n_neg out of range")
        X.setflags(write=False)
        alpha.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "X_train", X)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "nu", nu)

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


def _solve_with_ladder(
    X: np.ndarray, nu: np.ndarray, spec: KernelSpec
) -> tuple[np.ndarray, CholeskyFactor, KernelSpec, np.ndarray]:
    """Factor the Gram matrix and solve for alpha, escalating delta on failure.

    Returns (alpha, factor, effective spec, theta) with theta the
    forward-substitution half of the solve, retained so appends can
    extend it entry by entry.
    """
    # Only the diagonal changes along the ladder, so one Gram matrix
    # serves every rung; factor_batch copies it before factoring.
    K = gram(X, spec).K
    deltas = [spec.delta] + [d for d in DELTA_LADDER if d > spec.delta]
    last: NotPositiveDefinite | None = None
    for delta in deltas:
        np.fill_diagonal(K, 1.0 + delta)
        try:
            factor = factor_batch(K)
        except NotPositiveDefinite as exc:
            last = exc
            logger.warning(
                "Gram matrix not positive definite at delta=%g (pivot %d)",
                delta, exc.pivot_index,
            )
            continue
        if delta != spec.delta:
            logger.warning("regularizer escalated from delta=%g to delta=%g",
                           spec.delta, delta)
        theta = solve_lower_transposed(factor, nu)
        alpha = solve_upper(factor, theta)
        return alpha, factor, replace(spec, delta=delta), theta
    assert last is not None
    raise last


def _with_caches(X: np.ndarray, alpha: np.ndarray, nu: np.ndarray,
                 spec: KernelSpec, n_neg: int, factor: CholeskyFactor,
                 theta: np.ndarray) -> Model:
    """A model whose rows, row norms and theta live in fresh tails."""
    rows = _Tail().extend(0, X.ravel())
    tails = (rows, _Tail().extend(0, np.einsum("ij,ij->i", X, X)),
             _Tail().extend(0, theta))
    return Model(rows.buf[: X.size].reshape(X.shape), alpha, nu, spec,
                 n_neg=n_neg, factor=factor, tails=tails)


def fit(X_pos, spec: KernelSpec) -> Model:
    """Train on target rows only.

    The response vector is all ones, so at delta = 0 every training row
    projects exactly to the target value 1 and the training projections
    have zero spread.
    """
    X = _as_rows(X_pos)
    nu = np.ones(X.shape[0])
    alpha, factor, eff, theta = _solve_with_ladder(X, nu, spec)
    return _with_caches(X, alpha, nu, eff, 0, factor, theta)


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
    alpha, factor, eff, theta = _solve_with_ladder(X, nu, spec)
    return _with_caches(X, alpha, nu, eff, X_neg.shape[0], factor, theta)


def _rebuild_caches(model: Model) -> Model:
    if model.factor is not None and model.tails is not None:
        return model
    factor = model.factor
    if factor is None:
        factor = factor_batch(gram(model.X_train, model.spec).K)
    theta = solve_lower_transposed(factor, model.nu)
    return _with_caches(model.X_train, model.alpha, model.nu, model.spec,
                        model.n_neg, factor, theta)


def fit_incremental(model: Model, X_new) -> Model:
    """Append positive rows to a trained model without refactoring.

    Each new row contributes one bordered column to the retained
    Cholesky factor (one triangular solve) and one entry to the cached
    forward-substituted response, after which a single back substitution
    yields the enlarged coefficient vector.  The result matches a batch
    fit on the concatenated rows.  Appended rows are always treated as
    positives; adding negatives requires a refit.

    Raises:
        NotPositiveDefinite: a new row makes the system numerically
            singular (an exact duplicate at delta = 0, for instance).
    """
    X_new = _as_rows(X_new, model.d) if len(X_new) else None
    if X_new is None or X_new.shape[0] == 0:
        return model

    cached = _rebuild_caches(model)
    n, d = model.n, model.d
    n_all = n + X_new.shape[0]
    rows, sq, theta = cached.tails
    rows = rows.extend(n * d, X_new.ravel())
    sq = sq.extend(n, [row @ row for row in X_new])
    X, sq_all = rows.buf[: n_all * d].reshape(n_all, d), sq.buf[:n_all]
    # theta's entries arrive one per row, each a dot with all before it
    theta_all = np.empty(n_all)
    theta_all[:n] = theta.buf[:n]
    factor = cached.factor
    spec = model.spec
    for m in range(n, n_all):
        k_new = _rbf(_sq_dists(X[m: m + 1], X[:m], sq_all[m: m + 1], sq_all[:m]),
                     spec.sigma)[0]
        # self-kernel of the rbf family is exactly 1
        factor = factor_extend(factor, k_new, 1.0 + spec.delta)
        col = factor.column(m)
        theta_all[m] = (1.0 - col[:m] @ theta_all[:m]) / col[m]
    theta = theta.extend(n, theta_all[n:])
    nu = np.concatenate([model.nu, np.ones(X_new.shape[0])])
    alpha = solve_upper(factor, theta_all)
    return Model(X, alpha, nu, spec, n_neg=model.n_neg, tau=model.tau,
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


def classify(model: Model, z, tau: float) -> Decision:
    """Threshold the novelty of z at tau (inclusive: novelty == tau is TARGET)."""
    tau = float(tau)
    if not (np.isfinite(tau) and tau >= 0.0):
        raise ValueError("tau must be a nonnegative real")
    _, novelty = score(model, z)
    return Decision.TARGET if novelty <= tau else Decision.OUTLIER


def project_train(model: Model) -> np.ndarray:
    """Projections of the retained training rows under the trained model.

    Uses raw kernel values (no delta), so at delta = 0 this reproduces
    the response vector up to solver rounding.
    """
    return kernel_cross(model.X_train, model.X_train, model.spec) @ model.alpha


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
    if not 0.0 <= target_rejection < 1.0:
        raise ValueError("target_rejection must lie in [0, 1)")
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
        _MAGIC, _FAMILY_CODES[model.spec.family], flags,
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
        ModelFormatError: bad magic, unknown family, or truncated payload.
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
    if family_code not in _FAMILY_NAMES:
        raise ModelFormatError(f"{path}: unknown kernel family code {family_code}")
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
    nu = np.concatenate([np.ones(n - n_neg), np.zeros(n_neg)])
    spec = KernelSpec(family=_FAMILY_NAMES[family_code], sigma=sigma, delta=delta)
    return Model(X, alpha, nu, spec, n_neg=n_neg, tau=tau)

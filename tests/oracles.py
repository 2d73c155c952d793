"""Reference computations the tests compare the library against.

pytest puts this directory on ``sys.path``, so test modules import it
as ``oracles``.  Nothing here is fast; each routine takes the plainest
route to its answer.  ``R_of`` and ``packed_of`` show the tests a
factor's storage, which the library itself never reads back.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from ocksr.cholesky import _unpack
from ocksr.kernel import KernelSpec, kernel_cross


def R_of(factor) -> np.ndarray:
    """A ``CholeskyFactor`` as a read-only dense upper-triangular matrix."""
    R = _unpack(factor)
    R.setflags(write=False)
    return R


def packed_of(factor) -> np.ndarray:
    """Read-only view of a ``CholeskyFactor``'s column-packed upper triangle."""
    view = factor._tail.buf[: factor.m * (factor.m + 1) // 2].view()
    view.setflags(write=False)
    return view


def project_train(model) -> np.ndarray:
    """Projections of the retained training rows under the trained model.

    Uses raw kernel values (no delta), so at delta = 0 this reproduces
    the response vector up to solver rounding.
    """
    return kernel_cross(model.X_train, model.X_train, model.spec) @ model.alpha


def gram(X, spec: KernelSpec) -> np.ndarray:
    """K + delta I from explicit-difference squared distances (``cdist``)."""
    K = np.exp(cdist(X, X, "sqeuclidean") / (-2.0 * spec.sigma**2))
    np.fill_diagonal(K, 1.0 + spec.delta)
    return K


def fit_alpha(X, spec: KernelSpec, nu=None) -> np.ndarray:
    """alpha solving (K + delta I) alpha = nu (default all ones).

    The whole Gram matrix from ``gram`` above, factored by a copying
    Cholesky (scipy's ``cho_factor``), then two triangular solves.
    """
    X = np.asarray(X, dtype=np.float64)
    nu = np.ones(X.shape[0]) if nu is None else nu
    return cho_solve(cho_factor(gram(X, spec)), nu)

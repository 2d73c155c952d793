"""One-class novelty detection trained by Cholesky-factored kernel regression.

The model projects a probe through a kernel expansion whose coefficients
solve a single symmetric positive definite linear system, so training
needs one Cholesky factorization instead of an eigen-decomposition, and
new training rows extend the factor incrementally.  Baseline scorers and
a repeated-split AUC harness round out the toolkit.

The package exports the names the README documents at top level; the
evaluation harness, the baselines and the kernel helpers are imported
from ``ocksr.evaluation``, ``ocksr.baselines`` and ``ocksr.kernel``.
"""

from .cholesky import NotPositiveDefinite
from .dataset import DataFormatError, Dataset
from .evaluation import bench_run
from .kernel import KernelSpec, median_pairwise_distance
from .model import (
    ModelFormatError,
    calibrate_threshold,
    classify,
    fit,
    fit_incremental,
    fit_supervised,
    load_model,
    save_model,
    score_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "Dataset",
    "KernelSpec",
    "ModelFormatError",
    "NotPositiveDefinite",
    "bench_run",
    "calibrate_threshold",
    "classify",
    "fit",
    "fit_incremental",
    "fit_supervised",
    "load_model",
    "median_pairwise_distance",
    "save_model",
    "score_batch",
]

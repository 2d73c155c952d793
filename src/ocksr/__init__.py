"""One-class novelty detection trained by Cholesky-factored kernel regression.

The model projects a probe through a kernel expansion whose coefficients
solve a single symmetric positive definite linear system, so training
needs one Cholesky factorization instead of an eigen-decomposition, and
new training rows extend the factor incrementally.  Baseline scorers and
a repeated-split AUC harness round out the toolkit.
"""

from .baselines import (
    EigenSolverDidNotConverge,
    KMeansModel,
    KnnddModel,
    KpcaModel,
    kmeans_fit,
    kmeans_score,
    knndd_fit,
    knndd_score,
    kpca_fit,
    kpca_score,
)
from .cholesky import NotPositiveDefinite
from .dataset import (
    DataFormatError,
    Dataset,
    l2_normalize,
    l2_normalize_rows,
    load_csv,
    load_features_csv,
    make_synthetic,
    random_split,
    write_csv,
)
from .evaluation import (
    BenchReport,
    FriedmanResult,
    ScoredSet,
    bench_run,
    best_neighborhood,
    friedman_ranks,
    friedman_test,
    make_scorer,
    repeated_aucs,
    roc_auc,
    write_bench_csv,
    write_bench_json,
    write_ranks_csv,
)
from .kernel import (
    KernelSpec,
    gram,
    kernel_cross,
    median_pairwise_distance,
)
from .model import (
    Decision,
    Model,
    ModelFormatError,
    calibrate_threshold,
    classify,
    fit,
    fit_incremental,
    fit_supervised,
    load_model,
    project_train,
    save_model,
    score,
    score_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "DataFormatError",
    "Dataset",
    "Decision",
    "EigenSolverDidNotConverge",
    "FriedmanResult",
    "KMeansModel",
    "KernelSpec",
    "KnnddModel",
    "KpcaModel",
    "Model",
    "ModelFormatError",
    "NotPositiveDefinite",
    "ScoredSet",
    "bench_run",
    "best_neighborhood",
    "calibrate_threshold",
    "classify",
    "fit",
    "fit_incremental",
    "fit_supervised",
    "friedman_ranks",
    "friedman_test",
    "gram",
    "kernel_cross",
    "kmeans_fit",
    "kmeans_score",
    "knndd_fit",
    "knndd_score",
    "kpca_fit",
    "kpca_score",
    "l2_normalize",
    "l2_normalize_rows",
    "load_csv",
    "load_features_csv",
    "load_model",
    "make_scorer",
    "make_synthetic",
    "median_pairwise_distance",
    "project_train",
    "random_split",
    "repeated_aucs",
    "roc_auc",
    "save_model",
    "score",
    "score_batch",
    "write_bench_csv",
    "write_bench_json",
    "write_csv",
    "write_ranks_csv",
]

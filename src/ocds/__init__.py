"""One-class learning with pairs of complementary subspace classifiers.

The package trains two opposing classifiers on positive-only data: one
bounds the data from below, the other from above, and a point is accepted
only when both agree. Direct variants (bods, gods, gods_n, gods_o,
gods_e) learn frames in input space on a matching matrix manifold; the
kernelized variant (kods) learns dual weights over the training set on a
Gram-weighted manifold. Training uses Riemannian conjugate gradient with
Armijo backtracking throughout. Each backtracking search starts at twice
the step the previous iteration accepted (capped at 1), so a fit whose
steps are small does not re-try every larger step on each iteration; the
accepted steps come back in ``SolveReport.step_trace``.
"""

from .data import Dataset, l2_normalize, load_csv, one_class_split, synth, write_csv
from .inference import (
    ConfusionCounts,
    EvalReport,
    anomaly_score,
    calibrate_eta,
    classify,
    compute_metrics,
    roc_points,
    two_means,
)
from .kernels import KernelSpec, ensure_pd, gram, kernel_eval
from .kods import (
    DualVars,
    KodsHyper,
    KodsModel,
    kods_egrad,
    kods_objective,
    kods_scores,
    kods_scores_batch,
    kods_train,
    recover_primal,
)
from .manifolds import (
    Euclidean,
    GeneralizedStiefel,
    Manifold,
    Oblique,
    PositiveVector,
    Product,
    Sphere,
    Stiefel,
)
from .persistence import data_fingerprint, load_model, save_model
from .primal import (
    FramePair,
    GodsHyper,
    TrainedPrimalModel,
    bods_egrad,
    bods_objective,
    gods_egrad,
    gods_objective,
    init_frames,
    primal_scores,
    primal_scores_batch,
    train_primal,
)
from .solver import Objective, SolveReport, SolverConfig, fd_gradient_check, minimize

__version__ = "0.1.0"

__all__ = [
    "Dataset", "l2_normalize", "load_csv", "one_class_split", "synth", "write_csv",
    "ConfusionCounts", "EvalReport", "anomaly_score", "calibrate_eta", "classify",
    "compute_metrics", "roc_points", "two_means",
    "KernelSpec", "ensure_pd", "gram", "kernel_eval",
    "DualVars", "KodsHyper", "KodsModel", "kods_egrad", "kods_objective",
    "kods_scores", "kods_scores_batch", "kods_train", "recover_primal",
    "Euclidean", "GeneralizedStiefel", "Manifold", "Oblique",
    "PositiveVector", "Product", "Sphere", "Stiefel",
    "data_fingerprint", "load_model", "save_model",
    "FramePair", "GodsHyper", "TrainedPrimalModel", "bods_egrad", "bods_objective",
    "gods_egrad", "gods_objective", "init_frames", "primal_scores",
    "primal_scores_batch", "train_primal",
    "Objective", "SolveReport", "SolverConfig", "fd_gradient_check", "minimize",
    "__version__",
]

"""Delayed-feedback conversion modeling.

Conversion labels arrive late: a model trained at time T sees clicks that
will convert after T as negatives. This package trains BCE models on such
logs and then corrects the trained parameters directly, by solving a
damped curvature system for the effect of reversing stale labels and
integrating newly arrived samples, instead of retraining from scratch.
"""

from .data import (
    Dataset,
    LabelView,
    Observed,
    Oracle,
    SyntheticConfig,
    arrival_set,
    generate_synthetic,
    labels_of,
    load_csv,
    reversal_set,
    save_csv,
    temporal_split,
    window_split,
)
from .errors import ConfigError, DataFormatError, DfcvrError, NumericalError
from .harness import (
    ExperimentConfig,
    compare_solvers,
    run_offline,
    run_online,
    run_timing,
)
from .influence import (
    InfluenceRequest,
    apply_update,
    build_rhs,
    delta_total,
)
from .metrics import auc, log_loss, prauc, ri
from .models import (
    LogisticRegression,
    Mlp,
    ModelSpec,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .solvers import (
    DampedHessianOperator,
    SolveResult,
    SolverConfig,
    SolverError,
    SolverNotConvergedError,
)
from .training import TrainConfig, TrainingDivergedError, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "DfcvrError",
    "DampedHessianOperator",
    "ExperimentConfig",
    "InfluenceRequest",
    "LabelView",
    "LogisticRegression",
    "Mlp",
    "ModelSpec",
    "NumericalError",
    "Observed",
    "Oracle",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "SolverNotConvergedError",
    "SyntheticConfig",
    "TrainConfig",
    "TrainingDivergedError",
    "apply_update",
    "arrival_set",
    "auc",
    "build_rhs",
    "compare_solvers",
    "delta_total",
    "generate_synthetic",
    "labels_of",
    "load_checkpoint",
    "load_csv",
    "log_loss",
    "prauc",
    "predict",
    "reversal_set",
    "ri",
    "run_offline",
    "run_online",
    "run_timing",
    "save_checkpoint",
    "save_csv",
    "temporal_split",
    "train",
    "window_split",
]

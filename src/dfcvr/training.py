"""Minibatch Adam training with early stopping on validation log-loss.

Shuffling uses a counter-based generator keyed by (seed, epoch), so the
batch sequence is a pure function of the config and data. Training runs
single-threaded over float64 arrays; reruns are bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import models
from .data import Dataset, LabelView, labels_of
from .errors import ConfigError, NumericalError
from .metrics import log_loss
from .optim import Adam, epoch_permutation


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; the L2 penalty is the model spec's ``l2_coeff``."""

    batch_size: int = 1024
    learning_rate: float = 1e-3
    max_epochs: int = 30
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.max_epochs <= 0:
            raise ConfigError("max_epochs must be positive")
        if self.early_stop_patience <= 0:
            raise ConfigError("early_stop_patience must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


class TrainingDivergedError(NumericalError):
    """A non-finite loss, parameter or validation prediction in training;
    carries the epoch and batch index."""

    def __init__(self, epoch: int, batch_index: int) -> None:
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch_index}: a "
            "non-finite loss, parameter or prediction; lower the learning rate"
        )
        self.epoch = epoch
        self.batch_index = batch_index


def train(
    dataset: Dataset,
    view: LabelView,
    spec: models.ModelSpec,
    config: TrainConfig,
    valid: Dataset,
    metrics_log_path: str | None = None,
) -> np.ndarray:
    """Train and return the parameters with the best validation log-loss.

    Labels for both the training and validation sets are taken under
    ``view``. Validation runs once per epoch; training stops after
    ``early_stop_patience`` epochs without improvement. The initial
    parameters count as an epoch-zero candidate, so a diverging run still
    returns something finite.
    """
    if len(dataset) == 0 or len(valid) == 0:
        raise ConfigError("training and validation sets must be non-empty")

    x = dataset.features
    y = labels_of(dataset, view)
    xv = valid.features
    yv = labels_of(valid, view)

    params = models.init_params(spec, config.seed)
    adam = Adam(models.num_params(spec), config.learning_rate)

    best_params = params.copy()
    best_ll = log_loss(models.predict(spec, params, xv), yv)
    epochs_since_best = 0
    log_rows: list[tuple[int, float, float]] = []

    n = len(dataset)
    try:
        for epoch in range(1, config.max_epochs + 1):
            perm = epoch_permutation(config.seed, epoch, n)
            loss_sum = 0.0
            for batch_index, start in enumerate(
                range(0, n, config.batch_size)
            ):
                rows = perm[start : start + config.batch_size]
                loss, g = models.loss_and_grad(spec, params, x[rows], y[rows])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, batch_index)
                adam.step(params, g)
                loss_sum += loss * rows.size
            # No later loss checks the epoch's last step.
            scores = models.predict(spec, params, xv)
            if not (np.isfinite(params).all() and np.isfinite(scores).all()):
                raise TrainingDivergedError(epoch, batch_index)
            train_loss = loss_sum / n
            valid_ll = log_loss(scores, yv)
            log_rows.append((epoch, train_loss, valid_ll))
            if valid_ll < best_ll:
                best_ll = valid_ll
                best_params = params.copy()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= config.early_stop_patience:
                    break
    finally:
        if metrics_log_path is not None:
            with open(metrics_log_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch", "train_loss", "valid_log_loss"])
                writer.writerows(log_rows)
    return best_params

"""Minibatch Adam training with early stopping on validation log-loss.

Minibatches come from ``optim.minibatches``, keyed by (seed, epoch), so
the batch sequence is a pure function of the config and data. Training runs
single-threaded over float64 arrays; reruns are bit-identical.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

import numpy as np

from . import models
from .data import Dataset, LabelView, labels_of
from .errors import ConfigError, NumericalError, require, writing
from .metrics import log_loss
from .optim import Adam, minibatches


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; the L2 penalty is the model spec's ``l2_coeff``."""

    batch_size: int = 1024
    learning_rate: float = 1e-3
    max_epochs: int = 30
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        require("positive", batch_size=self.batch_size,
                learning_rate=self.learning_rate, max_epochs=self.max_epochs,
                early_stop_patience=self.early_stop_patience)
        require("in [0, 2**32)", seed=self.seed)


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

    best_params = params
    best_ll = log_loss(models.predict(spec, params, xv), yv)
    epochs_since_best = 0

    n = len(dataset)
    with _metrics_log(metrics_log_path) as log_row:
        for epoch in range(1, config.max_epochs + 1):
            loss_sum = 0.0
            for batch_index, rows in enumerate(
                minibatches(config.seed, epoch, n, config.batch_size)
            ):
                loss, g = models.loss_and_grad(spec, params, x[rows], y[rows])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, batch_index)
                params = adam.step(params, g)
                loss_sum += loss * rows.size
            # No later loss checks the epoch's last step.
            scores = models.predict(spec, params, xv)
            if not (np.isfinite(params).all() and np.isfinite(scores).all()):
                raise TrainingDivergedError(epoch, batch_index)
            train_loss = loss_sum / n
            valid_ll = log_loss(scores, yv)
            log_row((epoch, train_loss, valid_ll))
            if valid_ll < best_ll:
                best_ll = valid_ll
                best_params = params
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= config.early_stop_patience:
                    break
    return best_params


@contextlib.contextmanager
def _metrics_log(path: str | None):
    """Per-epoch CSV rows to ``path``, or nowhere without one; opened
    before the first epoch, so that a bad path fails before training."""
    if path is None:
        yield lambda row: None
        return
    with writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "valid_log_loss"])
        yield writer.writerow

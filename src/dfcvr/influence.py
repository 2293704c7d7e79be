"""Influence-based parameter updates for delayed conversion labels.

Instead of retraining when labels change, approximate the new optimum by
one Newton-like step from the trained parameters: solve

    (C(theta) + lam I) delta = b

where ``b`` aggregates per-sample BCE gradient differences. Reversing a
fake negative ``j`` to positive contributes ``grad L(x_j, 0) - grad
L(x_j, 1)``; integrating a newly arrived sample ``k`` contributes
``-grad L(x_k, y_k)``. All contributions are scaled by ``1/n`` for the
``n`` training samples, matching the mean-loss curvature ``C``, the
Gauss-Newton approximation of the Hessian. Damping ``lam``
keeps the system positive definite for non-convex models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import models, solvers
from .data import Dataset, LabelView, labels_of
from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class InfluenceRequest:
    """What to correct and how to solve the resulting linear system.

    ``reversal_indices`` index the training dataset; ``arrivals`` is an
    optional (dataset, labels) pair of post-cutoff samples. Either
    correction can be toggled off. ``solver`` names a kind in
    ``solvers.SOLVERS``; a None ``solver_config`` uses that solver's
    defaults.
    """

    reversal_indices: np.ndarray
    arrivals: tuple[Dataset, np.ndarray] | None = None
    include_delay: bool = True
    include_add: bool = False
    solver: str = "cg"
    solver_config: solvers.SolverConfig | None = None
    damping: float = 1e-3
    hvp_batch_size: int = solvers.HVP_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.solver not in solvers.SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.damping < 0:
            raise ConfigError("damping must be non-negative")
        if self.hvp_batch_size < 1:
            raise ConfigError("hvp_batch_size must be positive")


@dataclass
class InfluenceRhs:
    """Right-hand side ``b`` of the update system."""

    b: np.ndarray


def build_rhs(
    spec: models.ModelSpec,
    theta: np.ndarray,
    dataset: Dataset,
    view: LabelView,
    request: InfluenceRequest,
) -> InfluenceRhs:
    """Aggregate gradient differences into the update right-hand side.

    Label-reversal terms require every indexed sample to be labeled 0
    under ``view``: reversing an already-positive label has no meaning
    here. Gradients are pure per-sample BCE, without the L2 penalty,
    which cancels between the two labelings and is not re-weighted by
    new samples.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("training dataset is empty")
    b = np.zeros(models.num_params(spec))

    if request.include_delay and request.reversal_indices.size:
        idx = np.asarray(request.reversal_indices, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= n:
            raise ConfigError("reversal indices out of range")
        labels = labels_of(dataset, view)
        if np.any(labels[idx] != 0.0):
            raise ConfigError(
                "reversal indices must be labeled 0 under the training view"
            )
        x_rev = dataset.features[idx]
        zeros = np.zeros(idx.size)
        ones = np.ones(idx.size)
        b += models.bce_grad_sum(spec, theta, x_rev, zeros) / n
        b -= models.bce_grad_sum(spec, theta, x_rev, ones) / n

    if request.include_add and request.arrivals is not None:
        arrived, arrived_labels = request.arrivals
        if len(arrived):
            if arrived.feature_dim != dataset.feature_dim:
                raise ConfigError("arrival feature dim does not match")
            b -= models.bce_grad_sum(
                spec, theta, arrived.features, arrived_labels
            ) / n

    if not np.all(np.isfinite(b)):
        raise NumericalError("right-hand side contains non-finite values")
    return InfluenceRhs(b=b)


def delta_total(
    spec: models.ModelSpec,
    theta: np.ndarray,
    dataset: Dataset,
    view: LabelView,
    request: InfluenceRequest,
) -> solvers.SolveResult:
    """Solve for the combined parameter update.

    The damped curvature is taken over the training dataset at ``theta``.
    Returns the solver's result with ``wall_time`` covering the whole
    update: the right-hand side, the operator build and the solve. A zero
    right-hand side (nothing to correct) short-circuits to a zero update
    without building the operator. Raises
    :class:`solvers.SolverNotConvergedError`, carrying the best iterate,
    when the configured solver cannot reach its tolerance.
    """
    start = time.perf_counter()
    config = (request.solver_config
              or solvers.default_solver_config(request.solver))
    rhs = build_rhs(spec, theta, dataset, view, request)
    if float(np.linalg.norm(rhs.b)) == 0.0:
        result = solvers.SolveResult(np.zeros_like(rhs.b), None, 0, True)
    else:
        operator = solvers.DampedHessianOperator(
            spec,
            theta,
            dataset.features,
            labels_of(dataset, view),
            lam=request.damping,
            hvp_batch_size=request.hvp_batch_size,
        )
        result = solvers.solve(request.solver, operator, rhs.b, config)
    if not result.converged:
        raise solvers.SolverNotConvergedError(
            f"{request.solver} stopped at relative residual "
            f"{result.residual_rel:.3e} > {config.tol_rel_residual:.0e} "
            f"after {result.iterations} iterations; raise the iteration "
            "budget, loosen the tolerance, or increase the damping",
            delta=result.delta,
            residual_rel=result.residual_rel,
        )
    result.wall_time = time.perf_counter() - start
    return result


def apply_update(theta: np.ndarray, report: solvers.SolveResult) -> np.ndarray:
    """Return ``theta + delta`` after shape and finiteness checks."""
    if report.delta.shape != theta.shape:
        raise ConfigError("update shape does not match the parameters")
    updated = theta + report.delta
    if not np.all(np.isfinite(updated)):
        raise NumericalError("updated parameters contain non-finite values")
    return updated

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
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import models, solvers
from .data import Dataset, LabelView, arrival_set, labels_of, reversal_set
from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class InfluenceRequest:
    """What to correct and how to solve the resulting linear system.

    ``reversal_indices`` are distinct integer indices into the training
    dataset, given as any 1-D sequence (not a boolean mask) and kept as
    an int64 array; the reversal correction is on exactly when there is
    one. ``arrivals`` is an optional (dataset, labels) pair of
    post-cutoff samples, integrated if ``include_add``. ``solver`` names
    a kind in ``solvers.SOLVERS``; a None ``solver_config`` uses that
    solver's defaults.
    """

    reversal_indices: np.ndarray
    arrivals: tuple[Dataset, np.ndarray] | None = None
    include_add: bool = False
    solver: str = "cg"
    solver_config: solvers.SolverConfig | None = None
    damping: float = 1e-3
    # Constants, not settings; ``benchmarks/`` reads them.
    include_delay: ClassVar[bool] = True
    hvp_batch_size: ClassVar[int] = solvers.HVP_BATCH_SIZE

    def __post_init__(self) -> None:
        idx = np.asarray(self.reversal_indices)
        if idx.ndim != 1:
            raise ConfigError("reversal_indices must be one-dimensional, "
                              f"got shape {idx.shape}")
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ConfigError(
                f"reversal_indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64)
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ConfigError("reversal_indices must not repeat")
        object.__setattr__(self, "reversal_indices", idx)
        solvers.default_solver_config(self.solver)
        solvers.check_damping(self.damping)

    @classmethod
    def for_window(cls, core: Dataset, log: Dataset, t: int, t_prime: int,
                   include_add: bool, **solve) -> "InfluenceRequest":
        """The correction of ``core`` from ``Observed(t)`` to
        ``Observed(t_prime)``: its reversals, and if ``include_add`` the
        clicks of ``log`` arriving in between. ``solve`` sets the solver
        fields."""
        return cls(reversal_set(core, t, t_prime),
                   arrival_set(log, t, t_prime) if include_add else None,
                   include_add=include_add, **solve)


@dataclass(frozen=True)
class InfluenceRhs:
    """Right-hand side ``b`` of the update system, and its two columns:
    ``delay``, the label-reversal terms, and ``add``, the arrival terms.

    Both are already scaled by ``1/n`` and signed, and a column the
    request turns off is zero; ``b`` is ``delay + add``.
    """

    delay: np.ndarray
    add: np.ndarray
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
    delay = np.zeros(models.num_params(spec))
    add = np.zeros_like(delay)

    idx = request.reversal_indices
    if idx.size:
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
        delay += models.bce_grad_sum(spec, theta, x_rev, zeros) / n
        delay -= models.bce_grad_sum(spec, theta, x_rev, ones) / n

    if request.include_add and request.arrivals is not None:
        arrived, arrived_labels = request.arrivals
        if len(arrived):
            if arrived.feature_dim != dataset.feature_dim:
                raise ConfigError("arrival feature dim does not match")
            add -= models.bce_grad_sum(
                spec, theta, arrived.features, arrived_labels
            ) / n

    b = delay + add
    if not np.all(np.isfinite(b)):
        raise NumericalError("right-hand side contains non-finite values")
    return InfluenceRhs(delay, add, b)


class InfluenceSystem:
    """The update system of ``request``, built once and solved as often
    as needed: the right-hand side of :func:`build_rhs`, and the damped
    curvature operator over ``dataset`` at ``theta``, built together.
    ``config`` is the request's solver config, its solver's defaults when
    None, and sets the operator's precision by :func:`solvers.cache_dtype`.
    ``build_time`` is the wall time spent building both.
    """

    def __init__(self, spec: models.ModelSpec, theta: np.ndarray,
                 dataset: Dataset, view: LabelView,
                 request: InfluenceRequest) -> None:
        start = time.perf_counter()
        self.request = request
        self.config = (request.solver_config
                       or solvers.default_solver_config(request.solver))
        self.rhs = build_rhs(spec, theta, dataset, view, request)
        self.operator = solvers.DampedHessianOperator(
            spec, theta, dataset.features, labels_of(dataset, view),
            lam=request.damping, dtype=solvers.cache_dtype(self.config))
        self.build_time = time.perf_counter() - start

    def solve(self, b: np.ndarray) -> solvers.SolveResult:
        """Solve the damped system for ``b`` with the request's solver.

        A zero ``b`` gives a zero update. ``wall_time`` is what this
        update alone costs: the shared build and this solve. Raises
        :class:`solvers.SolverNotConvergedError`, carrying the best
        iterate, when the solver cannot reach its tolerance.
        """
        request, config = self.request, self.config
        result = solvers.solve(request.solver, self.operator, b, config)
        if not result.converged:
            raise solvers.SolverNotConvergedError(
                f"{request.solver} stopped at relative residual "
                f"{result.residual_rel:.3e} > {config.tol_rel_residual:g} "
                f"after {result.iterations} iterations; raise the iteration "
                "budget, loosen the tolerance, or increase the damping",
                delta=result.delta,
                residual_rel=result.residual_rel,
            )
        return replace(result, wall_time=result.wall_time + self.build_time)


def delta_total(
    spec: models.ModelSpec,
    theta: np.ndarray,
    dataset: Dataset,
    view: LabelView,
    request: InfluenceRequest,
) -> solvers.SolveResult:
    """The combined parameter update: ``b`` solved on a fresh
    :class:`InfluenceSystem`, so ``wall_time`` covers the right-hand side,
    the operator build and the solve. Raises as
    :meth:`InfluenceSystem.solve` does."""
    system = InfluenceSystem(spec, theta, dataset, view, request)
    return system.solve(system.rhs.b)


def apply_update(theta: np.ndarray, report: solvers.SolveResult) -> np.ndarray:
    """Return ``theta + delta`` after shape and finiteness checks."""
    if report.delta.shape != theta.shape:
        raise ConfigError("update shape does not match the parameters")
    updated = theta + report.delta
    if not np.all(np.isfinite(updated)):
        raise NumericalError("updated parameters contain non-finite values")
    return updated

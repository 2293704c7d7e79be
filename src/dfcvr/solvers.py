"""Matrix-free solvers for damped curvature systems ``(C + lam I) delta = b``.

The curvature ``C``, the Gauss-Newton approximation of the Hessian, is only
touched through curvature-vector products. Three solvers cover different
regimes: conjugate gradients for exact solves on positive-definite systems,
a truncated power series scaled by the top eigenvalue of the Lanczos matrix
that cg's own recurrence builds, and a stochastic quadratic minimizer (Adam
on minibatch curvature) that scales to large sample counts.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import models
from .errors import ConfigError, NumericalError, require
from .optim import Adam, keyed_rng, minibatches


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs; each solver reads the subset it needs.

    ``tol_rel_residual`` is relative to ``norm(b)``. ``max_iters`` caps CG
    iterations and power-series terms alike; ``max_epochs``,
    ``minibatch_size`` and ``learning_rate`` drive the stochastic solver.
    """

    tol_rel_residual: float = 1e-4
    max_iters: int = 1000
    max_epochs: int = 5
    minibatch_size: int = 512
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        require("non-negative", tol_rel_residual=self.tol_rel_residual)
        require("positive", max_iters=self.max_iters,
                max_epochs=self.max_epochs, minibatch_size=self.minibatch_size,
                learning_rate=self.learning_rate)
        require("in [0, 2**32)", seed=self.seed)


# The solver registry: every solver kind and its default relative-residual
# tolerance. CG and the power series solve tightly, the stochastic
# minimizer targets a looser residual. :func:`solve` dispatches on it.
SOLVERS = {"cg": 1e-4, "neumann": 1e-4, "sq": 1e-2}

# The precision rule: a solve to a relative residual of at least
# FLOAT32_TOL runs its products on a float32 factor cache, whose error of
# about 1e-7 relative sits three orders below that tolerance; a tighter
# solve keeps float64, where a float32 cache would report residuals its
# float64 operator does not have. Every registry default is at least
# FLOAT32_TOL. Iterates, right-hand sides and residuals stay float64.
FLOAT32_TOL = 1e-4


def cache_dtype(config: SolverConfig) -> type:
    """The factor cache's dtype for a solve at ``config``."""
    return np.float32 if config.tol_rel_residual >= FLOAT32_TOL else np.float64


# Rows per chunk of a full-batch HVP; chunks are accumulated in index order.
HVP_BATCH_SIZE = 8192


def default_solver_config(kind: str) -> SolverConfig:
    """Shared defaults with ``kind``'s tolerance; the one place that
    rejects an unknown solver kind."""
    if kind not in SOLVERS:
        raise ConfigError(f"unknown solver kind {kind!r}")
    return SolverConfig(tol_rel_residual=SOLVERS[kind])


def check_damping(lam: float) -> None:
    """The damping's range, checked by :class:`DampedHessianOperator` and
    by the settings that hold a damping before an operator exists."""
    require("non-negative", damping=lam)


@dataclass(frozen=True)
class SolveResult:
    """Best iterate found, its relative residual, and the residual trace.

    ``residual_rel`` is None for the trivial ``b = 0`` system.
    ``iterations`` counts CG iterations, series terms, or epochs.
    """

    delta: np.ndarray
    residual_rel: float | None
    iterations: int
    converged: bool
    trace: list[float] = field(default_factory=list)
    wall_time: float = 0.0


class SolverError(NumericalError):
    """Solver failure; carries the best iterate seen, when one exists."""

    def __init__(
        self,
        message: str,
        delta: np.ndarray | None = None,
        residual_rel: float | None = None,
    ) -> None:
        super().__init__(message)
        self.delta = delta
        self.residual_rel = residual_rel


class SolverNotConvergedError(SolverError):
    """Residual stayed above tolerance at the iteration cap."""


class DampedHessianOperator:
    """``v -> (C(theta) + lam I) v`` over a frozen training batch.

    ``C`` is the Gauss-Newton matrix ``J^T Diag(h) J / n`` plus the L2
    term, positive semi-definite for every model, so the damped system is
    positive definite for ``lam > 0``. ``J``, the logit Jacobian at the
    fixed ``theta``, is cached once as layer factors; every product is
    then one matmul per layer each way (``models.ggn_from_factors``), in
    minibatches of ``hvp_batch_size`` accumulated in index order. The
    cache is stored as ``dtype`` (see :func:`cache_dtype`); products are
    taken in it, and parts are accumulated, and damped, in float64.
    ``matvec_batch`` exposes the per-minibatch damped product for
    stochastic solvers; its expectation over uniform minibatches equals
    ``matvec``.
    """

    def __init__(
        self,
        spec: models.ModelSpec,
        theta: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        lam: float,
        hvp_batch_size: int = HVP_BATCH_SIZE,
        dtype: type = np.float64,
    ) -> None:
        check_damping(lam)
        require("positive", hvp_batch_size=hvp_batch_size)
        self.spec = spec
        self.lam = lam
        self.hvp_batch_size = hvp_batch_size
        self._factors = models.build_ggn_factors(spec, theta, x, y, dtype)

    @property
    def dim(self) -> int:
        return models.num_params(self.spec)

    @property
    def n_samples(self) -> int:
        return len(self._factors.h)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        n = len(self._factors.h)
        acc = np.zeros_like(v)
        for start in range(0, n, self.hvp_batch_size):
            stop = min(start + self.hvp_batch_size, n)
            part = models.ggn_from_factors(
                self.spec, self._factors, v, rows=slice(start, stop))
            acc = acc + part * ((stop - start) / n)
        return acc + self.lam * v

    def matvec_batch(self, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        part = models.ggn_from_factors(self.spec, self._factors, v, rows)
        return part + self.lam * v


# Below this relative residual a recurrence no longer tracks the true one:
# the float64 floor of ``norm(b - A delta)`` is about 1e-16 times the
# condition number.
_RESIDUAL_FLOOR = 1e-12


class _Breakdown(Exception):
    """A solver cannot continue; the loop raises it as a SolverError."""


def _solve_loop(diverged: str):
    """Make a solver from a generator of its steps.

    The generator yields ``(delta, residual norm)``, cg also its ``(alpha,
    beta)``, once per CG iteration, series term or epoch, and writes into
    no ``delta`` it has yielded. sq recomputes ``norm(b - A delta)`` each
    epoch; cg and neumann carry the residual by recurrence, equal to it in
    exact arithmetic, and drifting from it near the float64 floor. The
    loop keeps what every solver shares: the clock, the ``b = 0`` result,
    the residual trace, the best iterate (``delta = 0`` with residual 1
    until a step beats it), the stop once the best residual reaches the
    tolerance, and the verdict. A best residual below ``_RESIDUAL_FLOOR``
    is recomputed once, at one product, as ``norm(b - A delta)``, and is
    reported and judged as that. The first non-finite residual raises
    :class:`SolverError` with ``diverged``, formatted with the step
    number; a step that raises :class:`_Breakdown` gets a
    :class:`SolverError` with its message. Both carry the best iterate.
    """

    def decorate(steps):
        @functools.wraps(steps)
        def run(operator, b: np.ndarray, config: SolverConfig) -> SolveResult:
            start = time.perf_counter()
            b_norm = float(np.linalg.norm(b))
            best_delta, best_rel, trace = np.zeros_like(b), 1.0, []
            if b_norm == 0.0:
                return SolveResult(best_delta, None, 0, True,
                                   wall_time=time.perf_counter() - start)
            try:
                for delta, residual, *_ in steps(operator, b, config):
                    rel = residual / b_norm
                    if not np.isfinite(rel):
                        raise _Breakdown(diverged.format(len(trace) + 1))
                    trace.append(rel)
                    if rel < best_rel:
                        best_delta, best_rel = delta, rel
                    if best_rel <= config.tol_rel_residual:
                        break
            except _Breakdown as exc:
                raise SolverError(str(exc), best_delta, best_rel) from None
            if best_rel < _RESIDUAL_FLOOR:
                best_rel = float(np.linalg.norm(
                    b - operator.matvec(best_delta))) / b_norm
            return SolveResult(
                best_delta,
                best_rel,
                len(trace),
                best_rel <= config.tol_rel_residual,
                trace,
                time.perf_counter() - start,
            )

        return run

    return decorate


@_solve_loop("conjugate gradients diverged at iteration {}: the operator "
             "returned non-finite products")
def cg_solve(operator, b: np.ndarray, config: SolverConfig):
    """Conjugate gradients; returns the best iterate by relative residual.

    Raises :class:`SolverError` when the operator reveals a non-positive
    curvature direction, which means the damping is too small.
    """
    delta = np.zeros_like(b)
    r = d = b
    rs = float(r @ r)
    for _ in range(min(operator.dim, config.max_iters)):
        ad = operator.matvec(d)
        dad = float(d @ ad)
        if dad <= 0.0:
            raise _Breakdown(
                "conjugate gradients hit non-positive curvature "
                f"(d'Ad = {dad:.3e}); increase the damping"
            )
        alpha = rs / dad
        delta = delta + alpha * d
        r = r - alpha * ad
        rs_new = float(r @ r)
        beta = rs_new / rs
        yield delta, np.sqrt(rs_new), (alpha, beta)
        d = r + beta * d
        rs = rs_new


_cg_steps = cg_solve.__wrapped__  # the one Krylov recurrence, loop-free


def _top_eigenvalue(operator, seed: int) -> float:
    """Top eigenvalue of the Lanczos tridiagonal of cg's steps from a seeded
    start (Golub & Van Loan 10.2), once a step moves it by at most 1e-9 of
    itself or cg's default steps end: 0 if the first step finds no positive
    curvature, NaN once a product is not finite."""
    rng = keyed_rng(seed)
    v = rng.standard_normal(operator.dim)
    diag, off, shift, estimate = [], [], 0.0, 0.0
    with contextlib.suppress(_Breakdown):
        for _, res, (alpha, beta) in _cg_steps(operator, v, SolverConfig()):
            if not np.isfinite(res):
                return float("nan")
            diag.append(1.0 / alpha + shift)
            t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            previous, estimate = estimate, float(np.linalg.eigvalsh(t)[-1])
            if not abs(estimate - previous) > 1e-9 * estimate:
                break
            off.append(np.sqrt(beta) / alpha)
            shift = beta / alpha
    return estimate


# Margin on the series scale: a Ritz value approaches the norm from below.
_NEUMANN_SCALE_MARGIN = 0.9


@_solve_loop("power series diverged at term {}")
def neumann_solve(operator, b: np.ndarray, config: SolverConfig):
    """Truncated power-series solve ``delta = s * sum_t (I - sA)^t b``.

    The recurrence ``w <- w - s A w`` yields both the next series term
    and the exact residual of the partial sum, so each term costs one
    HVP. The scale ``s`` is ``0.9 / estimate``, from the top Lanczos
    eigenvalue, which must be positive (a NaN estimate is not);
    ``max_iters`` caps the terms.
    """
    estimate = _top_eigenvalue(operator, config.seed)
    if not estimate > 0.0:
        raise _Breakdown(f"spectral-norm estimate {estimate} is not positive:"
                         " the Lanczos estimate diverged or the operator is "
                         "not positive definite")
    scale = _NEUMANN_SCALE_MARGIN / estimate
    delta = np.zeros_like(b)
    w = b
    for _ in range(config.max_iters):
        delta = delta + scale * w
        w = w - scale * operator.matvec(w)
        yield delta, float(np.linalg.norm(w))


@_solve_loop("stochastic quadratic solve diverged at epoch {}; "
             "lower the learning rate")
def sq_solve(operator, b: np.ndarray, config: SolverConfig):
    """Adam on ``F(delta) = 0.5 <delta, A delta> - <b, delta>``.

    Minimizing F solves ``A delta = b``, and its gradient ``A delta - b``
    is the residual. The operator's ``matvec_batch`` over minibatches of
    its ``n_samples`` rows supplies unbiased gradients. One full-pass
    residual check per epoch; returns the epoch-boundary iterate with the
    smallest relative residual.
    """
    delta = np.zeros_like(b)
    adam = Adam(b.shape[0], config.learning_rate)
    n = operator.n_samples
    for epoch in range(1, config.max_epochs + 1):
        for rows in minibatches(config.seed, epoch, n, config.minibatch_size):
            delta = adam.step(delta, operator.matvec_batch(delta, rows) - b)
        yield delta, float(np.linalg.norm(operator.matvec(delta) - b))


def solve(
    kind: str, operator, b: np.ndarray, config: SolverConfig | None = None
) -> SolveResult:
    """Solve ``operator @ delta = b`` with the registered solver ``kind``.

    A None ``config`` uses :func:`default_solver_config`. The solvers are
    looked up as module globals on every call, so that a wrapper installed
    on ``solvers.cg_solve`` sees the calls made here.
    """
    default = default_solver_config(kind)  # rejects an unknown kind
    config = default if config is None else config
    if b.shape != (operator.dim,):
        raise ConfigError("right-hand side length does not match operator")
    run = {"cg": cg_solve, "neumann": neumann_solve, "sq": sq_solve}[kind]
    return run(operator, b, config)

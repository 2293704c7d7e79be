"""Solver tests on dense SPD oracles and model-backed damped Hessians."""

import numpy as np
import pytest

from dfcvr import data, models, optim, solvers, training
from dfcvr.errors import ConfigError

from dense_operator import MatrixOperator


def _random_spd(rng, p, cond=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.geomspace(1.0, cond, p)
    return (q * eigs) @ q.T


def _lr_fixture(seed=0, n=1500, d=10, lam=1e-2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.3).astype(np.float64)
    spec = models.LogisticRegression(input_dim=d, l2_coeff=1e-2)
    theta = 0.5 * rng.standard_normal(models.num_params(spec))
    op = solvers.DampedHessianOperator(spec, theta, x, y, lam=lam)
    b = rng.standard_normal(op.dim)
    return op, b


def _dense_from_operator(op):
    p = op.dim
    cols = [op.matvec(np.eye(p)[:, j]) for j in range(p)]
    return np.column_stack(cols)


class TestDampedHessianOperator:
    def test_matches_dense_hessian_plus_damping(self):
        op, _ = _lr_fixture(lam=0.25)
        op0, _ = _lr_fixture(lam=0.0)
        a = _dense_from_operator(op)
        a0 = _dense_from_operator(op0)
        np.testing.assert_allclose(a - a0, 0.25 * np.eye(op.dim), atol=1e-12)

    def test_symmetry(self):
        op, _ = _lr_fixture()
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(
                u @ op.matvec(v), v @ op.matvec(u), rtol=1e-9
            )

    def test_chunk_size_does_not_change_the_product(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((500, 6))
        y = (rng.random(500) < 0.3).astype(np.float64)
        spec = models.Mlp(input_dim=6, hidden_dims=(8,), l2_coeff=1e-2)
        theta = models.init_params(spec, seed=3)
        v = rng.standard_normal(models.num_params(spec))
        products = []
        for chunk in (64, 100000):
            op = solvers.DampedHessianOperator(
                spec, theta, x, y, lam=1e-2, hvp_batch_size=chunk
            )
            products.append(op.matvec(v))
        np.testing.assert_allclose(products[0], products[1], atol=1e-10)

    def test_minibatch_products_average_to_full(self):
        op, _ = _lr_fixture(n=1000)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(op.dim)
        full = op.matvec(v)
        parts = [
            op.matvec_batch(v, np.arange(s, s + 250)) for s in range(0, 1000, 250)
        ]
        np.testing.assert_allclose(np.mean(parts, axis=0), full, atol=1e-9)

    def test_rejects_negative_damping(self):
        rng = np.random.default_rng(4)
        spec = models.LogisticRegression(input_dim=2, l2_coeff=0.0)
        with pytest.raises(ConfigError, match="damping"):
            solvers.DampedHessianOperator(
                spec, np.zeros(3), rng.standard_normal((5, 2)),
                np.zeros(5), lam=-1.0,
            )

    @pytest.mark.parametrize("hvp_batch_size", [0, -1])
    def test_rejects_non_positive_batch_size(self, hvp_batch_size):
        rng = np.random.default_rng(4)
        spec = models.LogisticRegression(input_dim=2, l2_coeff=0.0)
        with pytest.raises(ConfigError, match="hvp_batch_size"):
            solvers.DampedHessianOperator(
                spec, np.zeros(3), rng.standard_normal((5, 2)),
                np.zeros(5), lam=1.0, hvp_batch_size=hvp_batch_size,
            )


class TestCg:
    def test_identity_in_one_iteration(self):
        op = MatrixOperator(np.eye(4))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        result = solvers.cg_solve(op, b, solvers.SolverConfig())
        assert result.iterations == 1
        assert result.converged
        np.testing.assert_allclose(result.delta, b, atol=1e-14)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = _random_spd(rng, 6)
            b = rng.standard_normal(6)
            config = solvers.SolverConfig(tol_rel_residual=1e-12)
            result = solvers.cg_solve(MatrixOperator(a), b, config)
            np.testing.assert_allclose(
                result.delta, np.linalg.solve(a, b), rtol=1e-8
            )

    def test_converges_within_dimension_iterations(self):
        # near-exact termination after p iterations holds in floating
        # point only for moderately conditioned systems
        rng = np.random.default_rng(6)
        a = _random_spd(rng, 8, cond=50.0)
        b = rng.standard_normal(8)
        config = solvers.SolverConfig(tol_rel_residual=1e-8)
        result = solvers.cg_solve(MatrixOperator(a), b, config)
        assert result.iterations <= 8
        assert result.residual_rel <= 1e-8

    def test_indefinite_system_raises_with_advice(self):
        op = MatrixOperator(np.diag([1.0, -1.0]))
        with pytest.raises(solvers.SolverError, match="damping") as info:
            solvers.cg_solve(op, np.ones(2), solvers.SolverConfig())
        assert info.value.delta is not None
        assert info.value.residual_rel == 1.0

    def test_iteration_cap_reports_not_converged(self):
        rng = np.random.default_rng(7)
        a = _random_spd(rng, 20, cond=1e6)
        b = rng.standard_normal(20)
        config = solvers.SolverConfig(tol_rel_residual=1e-14, max_iters=2)
        result = solvers.cg_solve(MatrixOperator(a), b, config)
        assert not result.converged
        assert result.iterations == 2

    def test_model_backed_system(self):
        op, b = _lr_fixture()
        config = solvers.SolverConfig(tol_rel_residual=1e-10)
        result = solvers.cg_solve(op, b, config)
        assert result.converged
        np.testing.assert_allclose(
            op.matvec(result.delta), b, atol=1e-9 * np.linalg.norm(b)
        )


class CountingOperator:
    """Wraps an operator and counts its full products."""

    def __init__(self, inner):
        self.inner, self.products = inner, 0

    @property
    def dim(self):
        return self.inner.dim

    def matvec(self, v):
        self.products += 1
        return self.inner.matvec(v)


class TestTopEigenvalue:
    """The top Ritz value of the Lanczos tridiagonal built from cg's
    coefficients, the neumann series' spectral estimate."""

    def test_identity(self):
        est = solvers._top_eigenvalue(MatrixOperator(np.eye(5)), 0)
        np.testing.assert_allclose(est, 1.0, rtol=1e-12)

    def test_diagonal(self):
        op = MatrixOperator(np.diag([3.0, 1.0, 0.5]))
        np.testing.assert_allclose(
            solvers._top_eigenvalue(op, 0), 3.0, rtol=1e-8
        )

    def test_dense_spd_against_eigh(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            a = _random_spd(rng, 7, cond=20.0)
            est = solvers._top_eigenvalue(MatrixOperator(a), seed)
            np.testing.assert_allclose(
                est, np.linalg.eigvalsh(a).max(), rtol=1e-6
            )

    def test_readme_scale_system_in_at_most_ten_products(self):
        # The README MLP on fixture seed 0's core window. The expected
        # values are 100 normalized power-iteration products' Rayleigh
        # quotients on the same system.
        day = 86400
        log = data.generate_synthetic(data.SyntheticConfig(
            n=50_000, feature_dim=20, target_cvr=0.2227,
            delay_mean_tau=2 * day, horizon=12 * day,
            drift_angle_per_day=0.1, seed=0))
        splits = data.window_split(log, 8 * day, 11 * day, day)
        spec = models.Mlp(input_dim=20, hidden_dims=(64, 64), l2_coeff=1e-2)
        labels = data.Observed(8 * day)
        theta = training.train(
            splits.core, labels, spec,
            training.TrainConfig(batch_size=1024, learning_rate=1e-3,
                                 max_epochs=30, early_stop_patience=30),
            splits.fit_valid)
        y = data.labels_of(splits.core, labels)
        for lam, expected in ((2e-2, 1.130083026), (1e-3, 1.111083026)):
            op = CountingOperator(solvers.DampedHessianOperator(
                spec, theta, splits.core.features, y, lam=lam))
            est = solvers._top_eigenvalue(op, 0)
            assert op.products <= 10
            np.testing.assert_allclose(est, expected, rtol=1e-6)


class TestNeumann:
    def test_calibrated_scale_leaves_a_tenth_per_term_on_the_identity(self):
        # The Lanczos estimate finds norm 1, so the scale is 0.9 and each
        # term multiplies the residual by 1 - 0.9.
        op = MatrixOperator(np.eye(4))
        b = np.array([2.0, -1.0, 0.5, 3.0])
        result = solvers.neumann_solve(op, b, solvers.SolverConfig())
        assert result.converged
        assert result.iterations >= 4
        np.testing.assert_allclose(
            result.trace, 0.1 ** np.arange(1, result.iterations + 1),
            rtol=1e-12)
        np.testing.assert_allclose(result.delta, b, rtol=1e-4)

    def test_error_shrinks_with_more_terms(self):
        rng = np.random.default_rng(9)
        a = _random_spd(rng, 6, cond=10.0)
        b = rng.standard_normal(6)
        exact = np.linalg.solve(a, b)
        errors = []
        for terms in (10, 50, 200):
            config = solvers.SolverConfig(
                tol_rel_residual=1e-15, max_iters=terms
            )
            result = solvers.neumann_solve(
                MatrixOperator(a), b, config
            )
            errors.append(np.linalg.norm(result.delta - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_residual_trace_is_monotone_on_spd(self):
        rng = np.random.default_rng(10)
        a = _random_spd(rng, 5, cond=8.0)
        b = rng.standard_normal(5)
        config = solvers.SolverConfig(tol_rel_residual=1e-12,
                                      max_iters=100)
        result = solvers.neumann_solve(MatrixOperator(a), b, config)
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) < 0.0)

    def test_reported_residual_is_exact(self):
        rng = np.random.default_rng(11)
        a = _random_spd(rng, 5)
        b = rng.standard_normal(5)
        config = solvers.SolverConfig(tol_rel_residual=1e-6,
                                      max_iters=400)
        result = solvers.neumann_solve(MatrixOperator(a), b, config)
        recomputed = np.linalg.norm(b - a @ result.delta) / np.linalg.norm(b)
        np.testing.assert_allclose(result.residual_rel, recomputed,
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("fill, named", [(np.nan, "nan"), (0.0, "0.0")])
    def test_nan_or_zero_spectral_estimate_raises_naming_it(
        self, fill, named
    ):
        op = MatrixOperator(np.full((3, 3), fill))
        with pytest.raises(solvers.SolverError,
                           match=f"estimate {named} is not positive"):
            solvers.solve("neumann", op, np.ones(3))

    def test_calibrated_scale_solves_model_system(self):
        op, b = _lr_fixture()
        config = solvers.SolverConfig(tol_rel_residual=1e-3,
                                      max_iters=2000)
        result = solvers.neumann_solve(op, b, config)
        assert result.converged
        assert result.residual_rel <= 1e-3


class TestSqSolve:
    def test_full_batch_mode_reaches_dense_solution(self):
        rng = np.random.default_rng(12)
        a = _random_spd(rng, 5, cond=5.0)
        b = rng.standard_normal(5)
        config = solvers.SolverConfig(
            tol_rel_residual=1e-3, max_epochs=5000, learning_rate=0.05
        )
        result = solvers.sq_solve(MatrixOperator(a), b, config)
        assert result.converged
        exact = np.linalg.solve(a, b)
        assert np.linalg.norm(result.delta - exact) <= 1e-2 * np.linalg.norm(
            exact
        )

    def test_objective_value_is_negative_after_progress(self):
        rng = np.random.default_rng(13)
        a = _random_spd(rng, 4, cond=3.0)
        b = rng.standard_normal(4)
        config = solvers.SolverConfig(
            tol_rel_residual=1e-2, max_epochs=2000, learning_rate=0.05
        )
        result = solvers.sq_solve(MatrixOperator(a), b, config)
        delta = result.delta
        assert 0.5 * delta @ a @ delta - b @ delta < 0.0

    def test_minibatch_mode_agrees_with_cg(self):
        op, b = _lr_fixture(lam=2e-2)
        config = solvers.SolverConfig(
            tol_rel_residual=1e-2,
            max_epochs=60,
            minibatch_size=128,
            learning_rate=0.05,
            seed=7,
        )
        result = solvers.sq_solve(op, b, config)
        assert result.converged
        cg = solvers.cg_solve(
            op, b, solvers.SolverConfig(tol_rel_residual=1e-10)
        )
        rel_gap = np.linalg.norm(result.delta - cg.delta) / np.linalg.norm(
            cg.delta
        )
        assert rel_gap <= 0.05

    def test_minibatch_gradients_are_unbiased(self):
        op, b = _lr_fixture(n=1000)
        rng = np.random.default_rng(14)
        delta = rng.standard_normal(op.dim)
        parts = [
            op.matvec_batch(delta, np.arange(s, s + 200))
            for s in range(0, 1000, 200)
        ]
        np.testing.assert_allclose(
            np.mean(parts, axis=0), op.matvec(delta), atol=1e-9
        )

    def test_deterministic_given_seed(self):
        op, b = _lr_fixture()
        config = solvers.SolverConfig(
            tol_rel_residual=1e-2, max_epochs=3, minibatch_size=256, seed=5
        )
        first = solvers.sq_solve(op, b, config)
        second = solvers.sq_solve(op, b, config)
        np.testing.assert_array_equal(first.delta, second.delta)
        assert first.trace == second.trace

    def test_divergent_learning_rate_raises(self):
        rng = np.random.default_rng(16)
        a = _random_spd(rng, 4, cond=100.0)
        b = rng.standard_normal(4)
        config = solvers.SolverConfig(
            tol_rel_residual=1e-10, max_epochs=5000, learning_rate=1e12
        )
        try:
            result = solvers.sq_solve(MatrixOperator(a), b, config)
        except solvers.SolverError as err:
            assert err.delta is not None
        else:
            assert not result.converged


class TestDefaults:
    def test_per_solver_tolerances(self):
        assert solvers.default_solver_config("cg").tol_rel_residual == 1e-4
        assert solvers.default_solver_config("sq").tol_rel_residual == 1e-2
        with pytest.raises(ConfigError, match="gmres"):
            solvers.default_solver_config("gmres")


class TestSolve:
    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_matches_the_direct_call(self, kind):
        rng = np.random.default_rng(17)
        op = MatrixOperator(_random_spd(rng, 8, cond=10.0))
        b = rng.standard_normal(8)
        config = solvers.default_solver_config(kind)
        direct = getattr(solvers, f"{kind}_solve")(op, b, config)
        for result in (solvers.solve(kind, op, b),
                       solvers.solve(kind, op, b, config)):
            np.testing.assert_array_equal(result.delta, direct.delta)
            assert result.residual_rel == direct.residual_rel
            assert result.iterations == direct.iterations
            assert result.trace == direct.trace

    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_zero_rhs_short_circuits(self, kind):
        result = solvers.solve(kind, MatrixOperator(np.eye(3)), np.zeros(3))
        assert result.converged
        assert result.residual_rel is None
        assert result.iterations == 0
        np.testing.assert_array_equal(result.delta, np.zeros(3))

    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_non_finite_products_raise_with_the_zero_iterate(self, kind):
        op = MatrixOperator(np.full((3, 3), np.nan))
        with pytest.raises(solvers.SolverError, match="diverged") as info:
            solvers.solve(kind, op, np.ones(3))
        np.testing.assert_array_equal(info.value.delta, np.zeros(3))
        assert info.value.residual_rel == 1.0

    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_verdict_follows_the_best_residual(self, kind):
        rng = np.random.default_rng(18)
        op = MatrixOperator(_random_spd(rng, 8, cond=10.0))
        b = rng.standard_normal(8)
        short = solvers.SolverConfig(tol_rel_residual=1e-12, max_iters=2,
                                     max_epochs=2)
        for config in (solvers.default_solver_config(kind), short):
            result = solvers.solve(kind, op, b, config)
            assert result.iterations == len(result.trace) >= 1
            best = min(1.0, min(result.trace))
            if best < solvers._RESIDUAL_FLOOR:
                # cg's eighth step lands on the float64 floor, where the
                # loop reports the true residual instead.
                best = float(np.linalg.norm(
                    b - op.matvec(result.delta))) / float(np.linalg.norm(b))
            assert result.residual_rel == best
            assert result.converged == (
                result.residual_rel <= config.tol_rel_residual)

    @pytest.mark.parametrize("kind", ["cg", "neumann"])
    def test_residual_below_the_float64_floor_is_the_true_one(self, kind):
        # At tolerance 0 the recurrences run on far below what float64
        # can resolve: cg's recursive residual reaches about 1e-64 here.
        rng = np.random.default_rng(19)
        a = _random_spd(rng, 200, cond=10.0)
        b = rng.standard_normal(200)
        config = solvers.SolverConfig(tol_rel_residual=0.0)
        result = solvers.solve(kind, MatrixOperator(a), b, config)
        true = np.linalg.norm(b - a @ result.delta) / np.linalg.norm(b)
        assert min(result.trace) < 1e-20
        np.testing.assert_allclose(result.residual_rel, true, rtol=1e-12)
        assert 1e-17 < result.residual_rel < 1e-13
        assert not result.converged

    def test_unknown_kind_rejected(self):
        op = MatrixOperator(np.eye(2))
        with pytest.raises(ConfigError, match="gmres"):
            solvers.solve("gmres", op, np.ones(2))

    @pytest.mark.parametrize("field, value", [
        ("tol_rel_residual", -1e-3), ("max_iters", 0), ("max_epochs", 0),
        ("minibatch_size", 0), ("learning_rate", 0.0), ("seed", -1),
    ])
    def test_bad_config_rejected_before_any_matvec(self, field, value):
        # The config cannot be built, so no solver can start from it.
        with pytest.raises(ConfigError, match=field):
            solvers.SolverConfig(**{field: value})

    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_rhs_length_checked(self, kind):
        op = MatrixOperator(np.eye(3))
        with pytest.raises(ConfigError, match="right-hand side"):
            solvers.solve(kind, op, np.ones(2))


class _RecordingOperator(MatrixOperator):
    """A dense operator that keeps every vector it is handed, with a copy
    of the value it had then."""

    def __init__(self, matrix: np.ndarray) -> None:
        super().__init__(matrix)
        self.handed = []

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.handed.append((v, v.copy()))
        return super().matvec(v)


class TestNothingHandedOutIsWritten:
    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_solvers_write_into_neither_b_nor_an_iterate(self, kind):
        rng = np.random.default_rng(20)
        op = _RecordingOperator(_random_spd(rng, 8, cond=10.0))
        b = rng.standard_normal(8)
        b.setflags(write=False)
        result = solvers.solve(kind, op, b)
        assert result.iterations >= 1
        steps = getattr(solvers, f"{kind}_solve").__wrapped__
        yielded = [(delta, delta.copy()) for delta, *_ in
                   steps(op, b, solvers.default_solver_config(kind))]
        for array, value in op.handed + yielded:
            np.testing.assert_array_equal(array, value)

    def test_adam_steps_a_read_only_vector(self):
        params = np.zeros(3)
        params.setflags(write=False)
        stepped = optim.Adam(3, 0.5).step(params, np.array([1.0, -2.0, 0.0]))
        np.testing.assert_array_equal(params, np.zeros(3))
        np.testing.assert_allclose(stepped, [-0.5, 0.5, 0.0], rtol=1e-7)

"""Influence-update tests against closed-form and retrained-optimum oracles."""

import numpy as np
import pytest

from dfcvr import data, influence, models, solvers, training
from dfcvr.errors import ConfigError, NumericalError

T = 10
T_PRIME = 100
RIDGE = 1e-2


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _with_bias(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _lr_grad(theta, x, y):
    # closed-form single-sample BCE gradient for a logistic model
    f = _sigmoid(_with_bias(x) @ theta)
    return _with_bias(x).T @ (f - y)


def _newton_fit(x, y, ridge, tol=1e-10, iters=200):
    """Exact logistic-ridge optimum (weights penalized, bias free)."""
    n, d = x.shape
    xb = _with_bias(x)
    reg = np.full(d + 1, ridge)
    reg[-1] = 0.0
    theta = np.zeros(d + 1)
    for _ in range(iters):
        f = _sigmoid(xb @ theta)
        g = xb.T @ (f - y) / n + reg * theta
        if np.linalg.norm(g) <= tol:
            break
        h = (xb.T * (f * (1.0 - f))) @ xb / n + np.diag(reg)
        theta = theta - np.linalg.solve(h, g)
    assert np.linalg.norm(g) <= tol
    return theta


def _dense_damped_hessian(x, theta, ridge, lam):
    n = x.shape[0]
    xb = _with_bias(x)
    f = _sigmoid(xb @ theta)
    reg = np.full(xb.shape[1], ridge)
    reg[-1] = 0.0
    return (
        (xb.T * (f * (1.0 - f))) @ xb / n
        + np.diag(reg)
        + lam * np.eye(xb.shape[1])
    )


def _delayed_dataset(seed, n, d, n_flip):
    """Click log where ``n_flip`` converters pay after the cutoff ``T``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    probs = _sigmoid(x @ w_true - 1.0)
    converted = rng.random(n) < probs
    conv_idx = np.flatnonzero(converted)
    assert conv_idx.size > n_flip
    pay = np.full(n, data.PAY_TS_MISSING, dtype=np.int64)
    pay[conv_idx] = 1
    pay[conv_idx[:n_flip]] = 50
    clicks = np.zeros(n, dtype=np.int64)
    dataset = data.Dataset(x, clicks, pay)
    return dataset, np.sort(conv_idx[:n_flip])


def _fitted_lr(seed=0, n=800, d=10, n_flip=8):
    dataset, flips = _delayed_dataset(seed, n, d, n_flip)
    spec = models.LogisticRegression(input_dim=d, l2_coeff=RIDGE)
    y_obs = data.labels_of(dataset, data.Observed(T))
    theta = _newton_fit(dataset.features, y_obs, RIDGE)
    return dataset, flips, spec, theta


def _cg_request(reversals, **kwargs):
    return influence.InfluenceRequest(
        reversal_indices=reversals,
        solver="cg",
        solver_config=solvers.SolverConfig(tol_rel_residual=1e-10),
        damping=1e-3,
        **kwargs,
    )


class TestBuildRhs:
    def test_nothing_to_correct_gives_zero(self):
        dataset, _, spec, theta = _fitted_lr()
        request = influence.InfluenceRequest(
            reversal_indices=np.array([], dtype=np.int64)
        )
        rhs = influence.build_rhs(
            spec, theta, dataset, data.Observed(T), request
        )
        np.testing.assert_array_equal(rhs.b, np.zeros(rhs.b.size))

    def test_single_reversal_closed_form(self):
        # reversing one label contributes exactly (x_j, 1) / n,
        # independent of the parameters
        dataset, flips, spec, theta = _fitted_lr()
        j = flips[0]
        request = influence.InfluenceRequest(
            reversal_indices=np.array([j], dtype=np.int64)
        )
        for params in (theta, np.zeros(theta.size), 0.3 * theta):
            rhs = influence.build_rhs(
                spec, params, dataset, data.Observed(T), request
            )
            expected = np.append(dataset.features[j], 1.0) / len(dataset)
            np.testing.assert_allclose(rhs.b, expected, atol=1e-14)

    def test_matches_per_sample_gradient_oracle(self):
        dataset, flips, spec, theta = _fitted_lr()
        rng = np.random.default_rng(1)
        x_new = rng.standard_normal((5, dataset.feature_dim))
        y_new = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        arrivals = (data.Dataset(x_new, np.full(5, 20), np.where(
            y_new == 1.0, 30, data.PAY_TS_MISSING
        ).astype(np.int64)), y_new)
        request = influence.InfluenceRequest(
            reversal_indices=flips, arrivals=arrivals, include_add=True
        )
        rhs = influence.build_rhs(
            spec, theta, dataset, data.Observed(T), request
        )
        n = len(dataset)
        expected = np.zeros(theta.size)
        for j in flips:
            xj = dataset.features[j : j + 1]
            expected += (
                _lr_grad(theta, xj, np.array([0.0]))
                - _lr_grad(theta, xj, np.array([1.0]))
            ) / n
        for k in range(5):
            expected -= _lr_grad(
                theta, x_new[k : k + 1], y_new[k : k + 1]
            ) / n
        np.testing.assert_allclose(rhs.b, expected, atol=1e-12)

    def test_additive_over_disjoint_reversal_sets(self):
        dataset, flips, spec, theta = _fitted_lr(n_flip=8)
        view = data.Observed(T)

        def rhs_of(idx):
            request = influence.InfluenceRequest(reversal_indices=idx)
            return influence.build_rhs(spec, theta, dataset, view, request).b

        combined = rhs_of(flips)
        split = rhs_of(flips[:3]) + rhs_of(flips[3:])
        np.testing.assert_allclose(combined, split, atol=1e-14)

    def test_toggles_select_terms(self):
        dataset, flips, spec, theta = _fitted_lr()
        rng = np.random.default_rng(2)
        arrivals_ds = data.Dataset(
            rng.standard_normal((3, dataset.feature_dim)),
            np.full(3, 20, dtype=np.int64),
            np.full(3, data.PAY_TS_MISSING, dtype=np.int64),
        )
        arrivals = (arrivals_ds, np.zeros(3))
        view = data.Observed(T)
        both = influence.build_rhs(spec, theta, dataset, view,
            influence.InfluenceRequest(reversal_indices=flips,
                arrivals=arrivals, include_add=True))
        delay_only = influence.build_rhs(spec, theta, dataset, view,
            influence.InfluenceRequest(reversal_indices=flips,
                arrivals=arrivals, include_add=False))
        # The reversal term is on exactly when there are reversals.
        no_flips = np.array([], dtype=np.int64)
        add_only = influence.build_rhs(spec, theta, dataset, view,
            influence.InfluenceRequest(reversal_indices=no_flips,
                arrivals=arrivals, include_add=True))
        neither = influence.build_rhs(spec, theta, dataset, view,
            influence.InfluenceRequest(reversal_indices=no_flips,
                arrivals=arrivals, include_add=False))
        np.testing.assert_allclose(both.b, delay_only.b + add_only.b,
                                   atol=1e-14)
        np.testing.assert_array_equal(neither.b, np.zeros(theta.size))
        # b is its two columns' sum, and each column is what the request
        # holding only that term builds, all byte for byte.
        assert (both.delay + both.add).tobytes() == both.b.tobytes()
        assert both.delay.tobytes() == delay_only.b.tobytes()
        assert both.add.tobytes() == add_only.b.tobytes()

    def test_out_of_range_index_rejected(self):
        dataset, _, spec, theta = _fitted_lr()
        request = influence.InfluenceRequest(
            reversal_indices=np.array([len(dataset)], dtype=np.int64)
        )
        with pytest.raises(ConfigError, match="out of range"):
            influence.build_rhs(spec, theta, dataset, data.Observed(T),
                                request)

    @pytest.mark.parametrize("indices, named", [
        (np.array([True, False, True]), "integers, got dtype bool"),
        (np.array([0.0, 1.0]), "integers, got dtype float64"),
        (np.array([3, 5, 3]), "must not repeat"),
        ([0.0, 1.0], "integers, got dtype float64"),
        ((3, 5, 3), "must not repeat"),
        (np.array([[0, 1], [2, 3]]),
         r"reversal_indices must be one-dimensional, got shape \(2, 2\)"),
        (np.int64(3), "reversal_indices must be one-dimensional"),
    ], ids=["bool_mask", "float", "repeated", "float_list", "repeated_tuple",
            "2d", "scalar"])
    def test_malformed_indices_rejected(self, indices, named):
        with pytest.raises(ConfigError, match=named):
            influence.InfluenceRequest(reversal_indices=indices)

    def test_empty_indices_of_any_dtype_accepted(self):
        dataset, _, spec, theta = _fitted_lr()
        for empty in (np.array([], dtype=np.int64), np.array([]), [], ()):
            request = _cg_request(empty)
            assert request.reversal_indices.dtype == np.int64
            assert request.reversal_indices.shape == (0,)
            report = influence.delta_total(spec, theta, dataset,
                                           data.Observed(T), request)
            np.testing.assert_array_equal(report.delta, np.zeros(theta.size))

    def test_index_sequences_give_the_array_rhs(self):
        dataset, flips, spec, theta = _fitted_lr()
        view = data.Observed(T)
        expected = influence.build_rhs(spec, theta, dataset, view,
                                       _cg_request(flips)).b
        for indices in (flips.tolist(), tuple(flips.tolist()),
                        flips.astype(np.int32)):
            request = _cg_request(indices)
            assert request.reversal_indices.dtype == np.int64
            rhs = influence.build_rhs(spec, theta, dataset, view, request)
            assert rhs.b.tobytes() == expected.tobytes()

    def test_positive_label_cannot_be_reversed(self):
        dataset, _, spec, theta = _fitted_lr()
        positives = np.flatnonzero(
            data.labels_of(dataset, data.Observed(T)) == 1.0
        )
        request = influence.InfluenceRequest(
            reversal_indices=positives[:1]
        )
        with pytest.raises(ConfigError, match="labeled 0"):
            influence.build_rhs(spec, theta, dataset, data.Observed(T),
                                request)

    def test_arrival_dim_mismatch_rejected(self):
        dataset, flips, spec, theta = _fitted_lr()
        bad = data.Dataset(
            np.zeros((2, dataset.feature_dim + 1)),
            np.zeros(2, dtype=np.int64),
            np.full(2, data.PAY_TS_MISSING, dtype=np.int64),
        )
        request = influence.InfluenceRequest(
            reversal_indices=flips, arrivals=(bad, np.zeros(2)),
            include_add=True,
        )
        with pytest.raises(ConfigError, match="dim"):
            influence.build_rhs(spec, theta, dataset, data.Observed(T),
                                request)


class TestDeltaTotal:
    def test_zero_rhs_short_circuits(self, operator_builds):
        # The system is built whole; the solve loop answers the zero b.
        dataset, _, spec, theta = _fitted_lr()
        request = _cg_request(np.array([], dtype=np.int64))
        report = influence.delta_total(
            spec, theta, dataset, data.Observed(T), request
        )
        np.testing.assert_array_equal(report.delta, np.zeros(theta.size))
        assert report.residual_rel is None
        assert report.iterations == 0
        assert report.converged
        assert len(operator_builds) == 1

    def test_one_operator_build_per_update(self, operator_builds):
        dataset, flips, spec, theta = _fitted_lr()
        influence.delta_total(spec, theta, dataset, data.Observed(T),
                              _cg_request(flips))
        assert len(operator_builds) == 1

    def test_matches_dense_linear_solve(self):
        dataset, flips, spec, theta = _fitted_lr(seed=3, n=200, d=5, n_flip=4)
        request = _cg_request(flips)
        report = influence.delta_total(
            spec, theta, dataset, data.Observed(T), request
        )
        rhs = influence.build_rhs(
            spec, theta, dataset, data.Observed(T), request
        )
        h = _dense_damped_hessian(dataset.features, theta, RIDGE, 1e-3)
        expected = np.linalg.solve(h, rhs.b)
        assert np.linalg.norm(report.delta - expected) <= 1e-6 * (
            np.linalg.norm(expected)
        )

    def test_label_reversal_moves_toward_retrained_optimum(self):
        dataset, flips, spec, theta = _fitted_lr(seed=4)
        report = influence.delta_total(
            spec, theta, dataset, data.Observed(T), _cg_request(flips)
        )
        y_retrain = data.labels_of(dataset, data.Observed(T_PRIME))
        theta_new = _newton_fit(dataset.features, y_retrain, RIDGE)
        target = theta_new - theta
        cosine = report.delta @ target / (
            np.linalg.norm(report.delta) * np.linalg.norm(target)
        )
        assert cosine >= 0.95
        err = np.linalg.norm(theta + report.delta - theta_new)
        assert err <= 0.25 * np.linalg.norm(target)

    def test_arrival_integration_moves_toward_enlarged_optimum(self):
        dataset, _, spec, theta = _fitted_lr(seed=5)
        rng = np.random.default_rng(6)
        m = 8
        x_new = rng.standard_normal((m, dataset.feature_dim))
        y_new = (rng.random(m) < 0.4).astype(np.float64)
        arrivals_ds = data.Dataset(
            x_new,
            np.full(m, 20, dtype=np.int64),
            np.where(y_new == 1.0, 30, data.PAY_TS_MISSING).astype(np.int64),
        )
        request = _cg_request(
            np.array([], dtype=np.int64),
            arrivals=(arrivals_ds, y_new),
            include_add=True,
        )
        report = influence.delta_total(
            spec, theta, dataset, data.Observed(T), request
        )
        y_obs = data.labels_of(dataset, data.Observed(T))
        theta_new = _newton_fit(
            np.vstack([dataset.features, x_new]),
            np.concatenate([y_obs, y_new]),
            RIDGE,
        )
        target = theta_new - theta
        cosine = report.delta @ target / (
            np.linalg.norm(report.delta) * np.linalg.norm(target)
        )
        assert cosine >= 0.95

    def test_reversal_raises_predicted_probability(self):
        dataset, flips, spec, theta = _fitted_lr(seed=7)
        report = influence.delta_total(
            spec, theta, dataset, data.Observed(T), _cg_request(flips)
        )
        updated = influence.apply_update(theta, report)
        before = models.predict(spec, theta, dataset.features[flips])
        after = models.predict(spec, updated, dataset.features[flips])
        assert np.all(after > before)

    def test_empty_arrivals_equal_delay_only(self):
        dataset, flips, spec, theta = _fitted_lr(seed=8)
        empty = dataset.subset(np.array([], dtype=np.int64))
        with_empty = influence.delta_total(
            spec, theta, dataset, data.Observed(T),
            _cg_request(flips, arrivals=(empty, np.zeros(0)),
                        include_add=True),
        )
        delay_only = influence.delta_total(
            spec, theta, dataset, data.Observed(T), _cg_request(flips)
        )
        np.testing.assert_array_equal(with_empty.delta, delay_only.delta)

    def test_solvers_agree_on_convex_system(self):
        dataset, flips, spec, theta = _fitted_lr(seed=9)
        view = data.Observed(T)
        reference = influence.delta_total(
            spec, theta, dataset, view, _cg_request(flips)
        )
        neumann = influence.delta_total(
            spec, theta, dataset, view,
            influence.InfluenceRequest(
                reversal_indices=flips, solver="neumann",
                solver_config=solvers.SolverConfig(
                    tol_rel_residual=1e-3, max_iters=3000
                ),
                damping=1e-2,
            ),
        )
        reference_damped = influence.delta_total(
            spec, theta, dataset, view,
            influence.InfluenceRequest(
                reversal_indices=flips, solver="cg",
                solver_config=solvers.SolverConfig(tol_rel_residual=1e-10),
                damping=1e-2,
            ),
        )
        rel = np.linalg.norm(neumann.delta - reference_damped.delta) / (
            np.linalg.norm(reference_damped.delta)
        )
        assert rel <= 5e-2
        # lighter damping only perturbs the solution mildly
        drift = np.linalg.norm(reference.delta - reference_damped.delta) / (
            np.linalg.norm(reference.delta)
        )
        assert drift <= 0.5

    def test_unconverged_solver_raises_with_best_iterate(self):
        dataset, flips, spec, theta = _fitted_lr(seed=10)
        request = influence.InfluenceRequest(
            reversal_indices=flips,
            solver="sq",
            solver_config=solvers.SolverConfig(
                tol_rel_residual=1e-14, max_epochs=1, learning_rate=1e-6
            ),
            damping=1e-2,
        )
        with pytest.raises(
            solvers.SolverNotConvergedError, match="residual"
        ) as info:
            influence.delta_total(
                spec, theta, dataset, data.Observed(T), request
            )
        assert info.value.delta is not None
        assert info.value.residual_rel is not None

    @pytest.mark.parametrize("tol", [0.35, 0.15])
    def test_unconverged_error_names_the_tolerance_as_set(self, tol):
        dataset, flips, spec, theta = _fitted_lr(seed=10)
        request = influence.InfluenceRequest(
            reversal_indices=flips,
            solver="sq",
            solver_config=solvers.SolverConfig(
                tol_rel_residual=tol, max_epochs=1, learning_rate=1e-6
            ),
            damping=1e-2,
        )
        with pytest.raises(solvers.SolverNotConvergedError) as info:
            influence.delta_total(
                spec, theta, dataset, data.Observed(T), request
            )
        assert f" > {tol} after " in str(info.value)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError, match="solver"):
            influence.InfluenceRequest(
                reversal_indices=np.array([], dtype=np.int64),
                solver="lbfgs",
            )

    @pytest.mark.parametrize("field, value", [
        ("damping", -1.0),
        ("solver_config", {"max_iters": 0}),
    ])
    def test_bad_settings_rejected_before_any_work(self, field, value):
        # Neither the request nor its solver settings can be built, so no
        # update can start from them.
        named = "damping" if field == "damping" else "max_iters"
        with pytest.raises(ConfigError, match=named):
            if field == "solver_config":
                value = solvers.SolverConfig(**value)
            influence.InfluenceRequest(
                reversal_indices=np.array([], dtype=np.int64),
                solver="cg", **{field: value},
            )

    def test_trained_mlp_update_behaves_like_reversal(self):
        dataset, flips = _delayed_dataset(seed=12, n=1200, d=6, n_flip=10)
        spec = models.Mlp(input_dim=6, hidden_dims=(8,), l2_coeff=1e-2)
        config = training.TrainConfig(
            batch_size=256, learning_rate=3e-3, max_epochs=80,
            early_stop_patience=80, seed=0,
        )
        theta = training.train(
            dataset, data.Observed(T), spec, config, dataset
        )
        request = influence.InfluenceRequest(
            reversal_indices=flips,
            solver="cg",
            solver_config=solvers.SolverConfig(tol_rel_residual=1e-6),
            damping=5e-2,
        )
        report = influence.delta_total(
            spec, theta, dataset, data.Observed(T), request
        )
        updated = influence.apply_update(theta, report)
        before = models.predict(spec, theta, dataset.features[flips])
        after = models.predict(spec, updated, dataset.features[flips])
        assert np.mean(after - before) > 0.0


class TestPrecision:
    """A solve at tolerance 1e-4 or looser runs on a float32 factor cache;
    a tighter one on float64, the bytes of a float64 operator's solve."""

    def _system(self, tol):
        dataset, flips = _delayed_dataset(seed=13, n=600, d=6, n_flip=8)
        spec = models.Mlp(input_dim=6, hidden_dims=(8,), l2_coeff=1e-2)
        theta = 0.3 * np.random.default_rng(0).standard_normal(
            models.num_params(spec))
        request = influence.InfluenceRequest(
            reversal_indices=flips, solver="cg", damping=5e-2,
            solver_config=solvers.SolverConfig(tol_rel_residual=tol))
        system = influence.InfluenceSystem(spec, theta, dataset,
                                           data.Observed(T), request)
        return system, spec, theta, dataset

    def _operator(self, spec, theta, dataset, dtype):
        return solvers.DampedHessianOperator(
            spec, theta, dataset.features,
            data.labels_of(dataset, data.Observed(T)), 5e-2, dtype=dtype)

    def test_tight_tolerance_solves_the_float64_operator(self):
        system, spec, theta, dataset = self._system(1e-8)
        reference = solvers.solve(
            "cg", self._operator(spec, theta, dataset, np.float64),
            system.rhs.b, system.config)
        result = system.solve(system.rhs.b)
        assert result.delta.tobytes() == reference.delta.tobytes()
        assert result.residual_rel == reference.residual_rel

    def test_default_tolerance_builds_a_float32_cache(self):
        system, spec, theta, dataset = self._system(1e-4)
        v = np.random.default_rng(1).standard_normal(system.operator.dim)
        product = system.operator.matvec(v)
        single, double = (self._operator(spec, theta, dataset, dtype)
                          for dtype in (np.float32, np.float64))
        assert product.tobytes() == single.matvec(v).tobytes()
        assert product.tobytes() != double.matvec(v).tobytes()

    @pytest.mark.parametrize("tol, dtype", [
        (1e-2, np.float32), (1e-4, np.float32), (9.99e-5, np.float64),
        (0.0, np.float64),
    ])
    def test_the_rule_is_the_tolerance(self, tol, dtype):
        config = solvers.SolverConfig(tol_rel_residual=tol)
        assert solvers.cache_dtype(config) is dtype

    @pytest.mark.parametrize("kind", list(solvers.SOLVERS))
    def test_every_registry_default_is_float32(self, kind):
        config = solvers.default_solver_config(kind)
        assert solvers.cache_dtype(config) is np.float32


class TestApplyUpdate:
    def test_adds_delta(self):
        theta = np.array([1.0, 2.0, 3.0])
        result = solvers.SolveResult(np.array([0.5, -0.5, 0.0]), 1e-5, 3,
                                     True)
        np.testing.assert_array_equal(
            influence.apply_update(theta, result), [1.5, 1.5, 3.0]
        )

    def test_shape_mismatch_rejected(self):
        result = solvers.SolveResult(np.zeros(2), None, 0, True)
        with pytest.raises(ConfigError, match="shape"):
            influence.apply_update(np.zeros(3), result)

    def test_non_finite_result_rejected(self):
        result = solvers.SolveResult(np.array([np.inf]), None, 0, True)
        with pytest.raises(NumericalError):
            influence.apply_update(np.array([1.0]), result)

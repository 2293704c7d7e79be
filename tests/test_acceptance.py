"""Acceptance gate: ten product-level checks, one test per criterion.

Every check validates library output against an independent in-test
oracle (central differences, dense solves, Newton refits, brute-force
statistics) or a protocol-level bar, at a fixed tolerance and with a
wall-clock budget. The conftest hook prints a PASS/FAIL line per test
at the end of the run.
"""

import copy
import dataclasses
import time

import numpy as np
import pytest

from dfcvr import data, harness, influence, metrics, models, solvers
from dfcvr.training import TrainConfig, train

from dense_operator import MatrixOperator

DAY = 86400


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _with_bias(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


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


def _threshold_sweep_prauc(scores, labels):
    # precision at each positive's rank, swept over distinct thresholds;
    # valid for tie-free scores
    order = np.argsort(-scores)
    s, l = scores[order], labels[order]
    total = 0.0
    n_pos = 0
    tp = 0
    for k in range(s.size):
        tp += l[k]
        if l[k] == 1.0:
            total += tp / (k + 1)
            n_pos += 1
    return total / n_pos


def _random_spd(rng, p, cond):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.geomspace(1.0, cond, p)
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def _cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def _convex_fixture(seed=321, n=2000, d=20):
    """Logistic-regression click log with a held-back set of negatives."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d) / np.sqrt(d)
    probs = _sigmoid(x @ w_true - 1.0)
    y = (rng.random(n) < probs).astype(np.float64)
    pay = np.where(y == 1.0, 1, data.PAY_TS_MISSING).astype(np.int64)
    dataset = data.Dataset(x, np.zeros(n, dtype=np.int64), pay)
    return rng, x, y, w_true, dataset


def _scaled_experiment(**overrides):
    """Delayed-feedback experiment at the scale the protocol bars use."""
    base = dict(
        data=data.SyntheticConfig(
            n=50_000, feature_dim=20, target_cvr=0.2227,
            delay_mean_tau=2 * DAY, horizon=12 * DAY,
            drift_angle_per_day=0.1, seed=0,
        ),
        t=8 * DAY, t_prime=11 * DAY, d_test=DAY,
        model=models.Mlp(input_dim=20, hidden_dims=(64, 64), l2_coeff=1e-2),
        train=TrainConfig(batch_size=1024, learning_rate=1e-3,
                          max_epochs=30, early_stop_patience=30, seed=0),
        methods=("vanilla", "retrain", "ifdfm"),
        seeds=(0, 1, 2),
        solver="sq",
        solver_config=solvers.SolverConfig(
            tol_rel_residual=0.35, max_epochs=10, minibatch_size=2048,
            learning_rate=0.02, seed=0,
        ),
        damping=2e-2,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def _small_experiment(output_dir, solver, solver_config):
    return harness.ExperimentConfig(
        data=data.SyntheticConfig(
            n=4000, feature_dim=5, target_cvr=0.2227,
            delay_mean_tau=2 * DAY, horizon=12 * DAY,
            drift_angle_per_day=0.1, seed=0,
        ),
        t=8 * DAY, t_prime=11 * DAY, d_test=DAY,
        model=models.LogisticRegression(input_dim=5, l2_coeff=1e-2),
        train=TrainConfig(batch_size=512, learning_rate=5e-3, max_epochs=8,
                          early_stop_patience=8, seed=0),
        methods=("vanilla", "retrain", "ifdfm"),
        seeds=(0,),
        solver=solver,
        solver_config=solver_config,
        damping=1e-2,
        output_dir=output_dir,
    )


def _comparable(report):
    out = copy.deepcopy(report)
    out.get("config", {}).pop("output_dir", None)
    for seed_block in out.get("per_seed", []):
        seed_block.pop("timings", None)
    return out


class TestAcceptance:
    def test_01_hvp_matches_finite_differences_and_closed_form(
        self, record_property
    ):
        start = time.perf_counter()
        hidden_options = [(8,), (8, 4), (16, 8)]
        max_fd_rel = 0.0
        max_closed_rel = 0.0
        n_logistic = 0
        for i in range(20):
            rng = np.random.default_rng(1000 + i)
            d = int(rng.integers(3, 10))
            rho = float(10.0 ** rng.uniform(-3.0, -1.0))
            if i % 2 == 0:
                spec = models.LogisticRegression(input_dim=d, l2_coeff=rho)
            else:
                spec = models.Mlp(input_dim=d,
                                  hidden_dims=hidden_options[i % 3],
                                  l2_coeff=rho)
            n = 40
            x = rng.standard_normal((n, d))
            y = (rng.random(n) < 0.4).astype(np.float64)
            theta = 0.5 * rng.standard_normal(models.num_params(spec))
            v = rng.standard_normal(theta.size)
            v /= np.linalg.norm(v)

            state = models.build_state(spec, theta, x, y)
            hv = models.hvp_from_state(spec, theta, state, v)
            eps = 1e-4
            fd = (
                models.loss_and_grad(spec, theta + eps * v, x, y)[1]
                - models.loss_and_grad(spec, theta - eps * v, x, y)[1]
            ) / (2.0 * eps)
            fd_rel = float(
                np.linalg.norm(hv - fd) / np.linalg.norm(fd)
            )
            max_fd_rel = max(max_fd_rel, fd_rel)

            if not spec.hidden_dims:
                n_logistic += 1
                xb = _with_bias(x)
                f = _sigmoid(xb @ theta)
                reg = np.full(d + 1, rho)
                reg[-1] = 0.0
                dense = (xb.T * (f * (1.0 - f))) @ xb / n + np.diag(reg)
                closed = dense @ v
                closed_rel = float(
                    np.linalg.norm(hv - closed) / np.linalg.norm(closed)
                )
                max_closed_rel = max(max_closed_rel, closed_rel)

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"max fd rel {max_fd_rel:.2e}, max closed-form rel "
            f"{max_closed_rel:.2e}, {elapsed:.1f}s",
        )
        assert n_logistic == 10
        assert max_fd_rel < 1e-4
        assert max_closed_rel < 1e-10
        assert elapsed < 10.0

    def test_02_solvers_match_dense_solutions_on_spd_systems(
        self, record_property
    ):
        start = time.perf_counter()
        worst = {"cg": 0.0, "neumann": 0.0, "sq": 0.0}
        for i in range(10):
            rng = np.random.default_rng(200 + i)
            p = int(rng.integers(4, 21))
            cond = float(rng.uniform(2.0, 12.0))
            a = _random_spd(rng, p, cond)
            b = rng.standard_normal(p)
            x_star = np.linalg.solve(a, b)
            op = MatrixOperator(a)

            r_cg = solvers.cg_solve(
                op, b, solvers.SolverConfig(tol_rel_residual=1e-10,
                                            max_iters=1000)
            )
            r_ne = solvers.neumann_solve(
                op, b, solvers.SolverConfig(tol_rel_residual=1e-6,
                                            max_iters=500)
            )
            r_sq = solvers.sq_solve(
                op, b, solvers.SolverConfig(tol_rel_residual=1e-4,
                                            max_epochs=20_000,
                                            learning_rate=0.1)
            )
            ref = np.linalg.norm(x_star)
            worst["cg"] = max(
                worst["cg"],
                float(np.linalg.norm(r_cg.delta - x_star) / ref),
            )
            worst["neumann"] = max(
                worst["neumann"],
                float(np.linalg.norm(r_ne.delta - x_star) / ref),
            )
            worst["sq"] = max(
                worst["sq"],
                float(np.linalg.norm(r_sq.delta - x_star) / ref),
            )

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"worst rel err cg {worst['cg']:.2e}, neumann "
            f"{worst['neumann']:.2e}, sq {worst['sq']:.2e}, {elapsed:.1f}s",
        )
        assert worst["cg"] <= 1e-8
        assert worst["neumann"] <= 1e-3
        assert worst["sq"] <= 1e-2
        assert elapsed < 30.0

    def test_03_reversal_update_tracks_convex_retraining(
        self, record_property
    ):
        start = time.perf_counter()
        ridge, damping = 1e-2, 1e-3
        rng, x, y, _, dataset = _convex_fixture()
        spec = models.LogisticRegression(input_dim=x.shape[1],
                                         l2_coeff=ridge)
        theta0 = _newton_fit(x, y, ridge)

        negatives = rng.permutation(np.flatnonzero(y == 0.0))
        fractions = (0.04, 0.02, 0.01, 0.005)
        errors = {}
        cosines = {}
        for frac in fractions:
            k = max(1, round(frac * negatives.size))
            flip = np.sort(negatives[:k]).astype(np.int64)
            y_flip = y.copy()
            y_flip[flip] = 1.0
            target = _newton_fit(x, y_flip, ridge, tol=1e-10) - theta0

            request = influence.InfluenceRequest(
                reversal_indices=flip,
                include_add=False,
                solver="cg",
                solver_config=solvers.SolverConfig(tol_rel_residual=1e-5,
                                                   max_iters=1000),
                damping=damping,
            )
            report = influence.delta_total(
                spec, theta0, dataset, data.Observed(10), request
            )
            errors[frac] = float(
                np.linalg.norm(report.delta - target)
                / np.linalg.norm(target)
            )
            cosines[frac] = _cosine(report.delta, target)

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"1% flips: cosine {cosines[0.01]:.4f}, rel err "
            f"{errors[0.01]:.3f}; errors 4%->0.5%: "
            + ", ".join(f"{errors[f]:.3f}" for f in fractions)
            + f", {elapsed:.1f}s",
        )
        assert cosines[0.01] >= 0.95
        assert errors[0.01] <= 0.25
        for larger, smaller in zip(fractions, fractions[1:]):
            assert errors[smaller] <= errors[larger] * 1.10
        assert elapsed < 120.0

    def test_04_arrival_update_tracks_expanded_retraining(
        self, record_property
    ):
        start = time.perf_counter()
        ridge, damping = 1e-2, 1e-3
        rng, x, y, w_true, dataset = _convex_fixture()
        spec = models.LogisticRegression(input_dim=x.shape[1],
                                         l2_coeff=ridge)
        theta0 = _newton_fit(x, y, ridge)

        m = 20
        x_new = rng.standard_normal((m, x.shape[1]))
        y_new = (
            rng.random(m) < _sigmoid(x_new @ w_true - 1.0)
        ).astype(np.float64)
        target = _newton_fit(
            np.vstack([x, x_new]), np.concatenate([y, y_new]), ridge
        ) - theta0

        pay_new = np.where(y_new == 1.0, 60, data.PAY_TS_MISSING)
        arrived = data.Dataset(
            x_new, np.full(m, 50, dtype=np.int64),
            pay_new.astype(np.int64),
        )
        request = influence.InfluenceRequest(
            reversal_indices=np.array([], dtype=np.int64),
            arrivals=(arrived, y_new),
            include_add=True,
            solver="cg",
            solver_config=solvers.SolverConfig(tol_rel_residual=1e-5,
                                               max_iters=1000),
            damping=damping,
        )
        report = influence.delta_total(
            spec, theta0, dataset, data.Observed(10), request
        )
        cosine = _cosine(report.delta, target)

        elapsed = time.perf_counter() - start
        record_property(
            "detail", f"cosine vs expanded retrain {cosine:.4f}, "
                      f"{elapsed:.1f}s"
        )
        assert cosine >= 0.95
        assert elapsed < 120.0

    def test_05_relative_improvement_matches_reference_values(
        self, record_property
    ):
        first = metrics.ri(0.8411, 0.8353, 0.8419)
        second = metrics.ri(0.6491, 0.6398, 0.6513)
        record_property(
            "detail", f"ri values {first:.4f} (ref 0.8788), "
                      f"{second:.4f} (ref 0.8087)"
        )
        assert abs(first - 0.8788) <= 5e-4
        assert abs(second - 0.8087) <= 5e-4

    def test_06_ranking_metrics_match_brute_force_oracles(
        self, record_property
    ):
        start = time.perf_counter()
        max_auc_err = 0.0
        max_prauc_err = 0.0
        for i in range(50):
            rng = np.random.default_rng(600 + i)
            m = int(rng.integers(2, 501))
            scores = rng.random(m)
            labels = (rng.random(m) < 0.3).astype(np.float64)
            if labels.sum() == 0.0:
                labels[0] = 1.0
            if labels.sum() == m:
                labels[0] = 0.0

            pos = scores[labels == 1.0][:, None]
            neg = scores[labels == 0.0][None, :]
            brute = (
                np.sum(pos > neg) + 0.5 * np.sum(pos == neg)
            ) / (pos.size * neg.size)
            max_auc_err = max(
                max_auc_err, abs(metrics.auc(scores, labels) - brute)
            )
            sweep = _threshold_sweep_prauc(scores, labels)
            max_prauc_err = max(
                max_prauc_err, abs(metrics.prauc(scores, labels) - sweep)
            )

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"max auc err {max_auc_err:.2e}, max prauc err "
            f"{max_prauc_err:.2e}, {elapsed:.1f}s",
        )
        assert max_auc_err <= 1e-12
        assert max_prauc_err <= 1e-10
        assert elapsed < 20.0

    def test_07_offline_protocol_orders_methods_correctly(
        self, record_property
    ):
        start = time.perf_counter()
        report = harness.run_offline(_scaled_experiment())
        mean = report["aggregate"]["mean"]["methods"]
        gap_low = mean["ifdfm"]["auc"] - mean["vanilla"]["auc"]
        gap_high = mean["retrain"]["auc"] - mean["ifdfm"]["auc"]
        ris = [s["ri"]["ifdfm"]["auc"] for s in report["per_seed"]]

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"mean auc vanilla {mean['vanilla']['auc']:.4f} / ifdfm "
            f"{mean['ifdfm']['auc']:.4f} / retrain "
            f"{mean['retrain']['auc']:.4f}, mean ri-auc "
            f"{np.mean([r for r in ris if r is not None]):.3f}, "
            f"{elapsed:.0f}s",
        )
        assert gap_low >= -0.002
        assert gap_high >= -0.002
        assert all(r is not None for r in ris)
        assert float(np.mean(ris)) >= 0.5
        assert elapsed < 900.0

    def test_08_online_update_benefits_from_new_data(self, record_property):
        start = time.perf_counter()
        report = harness.run_online(_scaled_experiment())
        mean = report["aggregate"]["mean"]["methods"]
        with_add = mean["ifdfm"]["auc"]
        without_add = mean["ifdfm_wo_add"]["auc"]

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"mean auc with arrivals {with_add:.4f} vs without "
            f"{without_add:.4f}, {elapsed:.0f}s",
        )
        assert with_add >= without_add
        assert elapsed < 900.0

    def test_09_influence_update_is_cheaper_than_retraining(
        self, record_property
    ):
        start = time.perf_counter()
        config = _scaled_experiment(
            data=data.SyntheticConfig(
                n=100_000, feature_dim=20, target_cvr=0.2227,
                delay_mean_tau=2 * DAY, horizon=12 * DAY,
                drift_angle_per_day=0.1, seed=0,
            ),
            train=TrainConfig(batch_size=1024, learning_rate=3e-4,
                              max_epochs=100, early_stop_patience=100,
                              seed=0),
            timing_sizes=(25_000, 50_000, 100_000),
            seeds=(0,),
        )
        report = harness.run_timing(config)
        rows = report["per_size"]
        final = rows[-1]

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            "update/train ratios (at update residual) "
            + ", ".join(
                f"{row['n']}: {row['update_over_train']:.3f} "
                f"({row['update_residual_rel']:.3g})"
                for row in rows
            )
            + f", {elapsed:.0f}s",
        )
        assert final["n"] == 100_000
        assert final["update_over_train"] <= 0.20
        for row in rows:
            assert row["update_s"] < row["train_retrain_s"]
        assert elapsed < 1200.0

    def test_10_pipeline_reruns_are_bit_identical(
        self, record_property, tmp_path
    ):
        start = time.perf_counter()
        cg_config = solvers.SolverConfig(tol_rel_residual=1e-8)
        sq_config = solvers.SolverConfig(
            tol_rel_residual=0.35, max_epochs=60, minibatch_size=256,
            learning_rate=0.05, seed=0,
        )
        checked = 0
        for proto, run, solver, solver_config in (
            ("offline", harness.run_offline, "cg", cg_config),
            ("online", harness.run_online, "sq", sq_config),
        ):
            dir_a = str(tmp_path / f"{proto}_a")
            dir_b = str(tmp_path / f"{proto}_b")
            first = run(_small_experiment(dir_a, solver, solver_config))
            second = run(_small_experiment(dir_b, solver, solver_config))
            assert _comparable(first) == _comparable(second)
            for path_a in sorted((tmp_path / f"{proto}_a").glob("*.ckpt")):
                path_b = tmp_path / f"{proto}_b" / path_a.name
                assert path_a.read_bytes() == path_b.read_bytes()
                checked += 1
        assert checked >= 7

        elapsed = time.perf_counter() - start
        record_property(
            "detail",
            f"offline (cg) and online (sq) reruns bit-identical across "
            f"{checked} checkpoints, {elapsed:.1f}s",
        )


@pytest.mark.parametrize("fixture_seed", [0, 4])
def test_default_request_solves_the_scaled_fixture(record_property,
                                                   fixture_seed):
    # The library's own defaults (cg, damping 1e-3, SolverConfig()) must
    # solve the README-scale MLP update; fixture seed 4 is the harder one.
    config = _scaled_experiment()
    log = data.generate_synthetic(
        dataclasses.replace(config.data, seed=fixture_seed))
    t, t_prime = config.t, config.t_prime
    splits = data.window_split(log, t, t_prime, config.d_test)
    theta = train(splits.core, data.Observed(t), config.model,
                  dataclasses.replace(config.train, seed=fixture_seed),
                  splits.fit_valid)
    request = influence.InfluenceRequest(
        reversal_indices=data.reversal_set(splits.core, t, t_prime),
        arrivals=data.arrival_set(log, t, t_prime),
        include_add=True,
    )
    assert (request.solver, request.damping, request.solver_config) == (
        "cg", 1e-3, None)
    result = influence.delta_total(config.model, theta, splits.core,
                                   data.Observed(t), request)
    assert result.converged
    assert result.residual_rel <= solvers.SOLVERS["cg"]
    # The solve ran on a float32 factor cache; the residual it reports
    # must also hold against the float64 operator.
    b = influence.build_rhs(config.model, theta, splits.core,
                            data.Observed(t), request).b
    operator = solvers.DampedHessianOperator(
        config.model, theta, splits.core.features,
        data.labels_of(splits.core, data.Observed(t)), request.damping)
    true_rel = float(np.linalg.norm(b - operator.matvec(result.delta))
                     / np.linalg.norm(b))
    assert true_rel <= solvers.SOLVERS["cg"]
    record_property(
        "detail",
        f"{result.iterations} cg iterations, residual "
        f"{result.residual_rel:.1e} (float64 {true_rel:.1e}), "
        f"{result.wall_time:.1f}s",
    )

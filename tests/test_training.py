"""Training-loop tests: convergence, determinism, early stopping, logging."""

import csv
import warnings

import numpy as np
import pytest

from dfcvr import data, metrics, models, optim, training
from dfcvr.errors import ConfigError, DataFormatError


def _labeled_dataset(x, y):
    """Dataset whose Oracle labels equal ``y`` (payers pay immediately)."""
    n = len(x)
    pay = np.where(y == 1.0, 1, data.PAY_TS_MISSING).astype(np.int64)
    return data.Dataset(x, np.zeros(n, dtype=np.int64), pay)


def _blobs(seed=0, n=400, d=3, margin=2.0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.float64)
    x = rng.standard_normal((n, d)) * 0.3
    x[:, 0] += np.where(y == 1.0, margin, -margin)
    return x, y


class TestTrainConvergence:
    def test_separable_blobs_reach_low_loss(self):
        x, y = _blobs()
        dataset = _labeled_dataset(x, y)
        spec = models.LogisticRegression(input_dim=3, l2_coeff=0.0)
        config = training.TrainConfig(
            batch_size=400, learning_rate=2e-2, max_epochs=200,
            early_stop_patience=200, seed=0,
        )
        params = training.train(dataset, data.Oracle(), spec, config, dataset)
        scores = models.predict(spec, params, x)
        assert metrics.log_loss(scores, y) < 0.05
        assert metrics.auc(scores, y) == 1.0

    def test_full_batch_run_reaches_near_stationarity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((500, 5))
        y = (rng.random(500) < 0.3).astype(np.float64)
        dataset = _labeled_dataset(x, y)
        spec = models.LogisticRegression(input_dim=5, l2_coeff=1e-2)
        config = training.TrainConfig(
            batch_size=500, learning_rate=1e-2, max_epochs=400,
            early_stop_patience=400, seed=0,
        )
        params = training.train(dataset, data.Oracle(), spec, config, dataset)
        _, g = models.loss_and_grad(spec, params, x, y)
        assert np.linalg.norm(g) <= 1e-3

    def test_oracle_labels_beat_stale_labels_on_calibration(self):
        # half the converters pay late, so training-time labels
        # underreport the conversion rate and miscalibrate the model
        rng = np.random.default_rng(2)
        n, d = 3000, 8
        w_true = rng.standard_normal(d)
        x = rng.standard_normal((n, d))
        probs = 1.0 / (1.0 + np.exp(-(x @ w_true - 1.0)))
        converted = rng.random(n) < probs
        late = converted & (rng.random(n) < 0.5)
        pay = np.full(n, data.PAY_TS_MISSING, dtype=np.int64)
        pay[converted & ~late] = 1
        pay[late] = 1000
        dataset = data.Dataset(x, np.zeros(n, dtype=np.int64), pay)

        x_test = rng.standard_normal((2000, d))
        test_probs = 1.0 / (1.0 + np.exp(-(x_test @ w_true - 1.0)))
        y_test = (rng.random(2000) < test_probs).astype(np.float64)

        spec = models.LogisticRegression(input_dim=d, l2_coeff=1e-3)
        config = training.TrainConfig(
            batch_size=512, learning_rate=5e-3, max_epochs=120,
            early_stop_patience=120, seed=0,
        )
        losses = {}
        for name, view in (
            ("stale", data.Observed(100)),
            ("oracle", data.Oracle()),
        ):
            params = training.train(dataset, view, spec, config, dataset)
            scores = models.predict(spec, params, x_test)
            losses[name] = metrics.log_loss(scores, y_test)
        assert losses["oracle"] < losses["stale"]


class TestTrainDeterminism:
    def test_identical_configs_give_identical_parameters(self):
        x, y = _blobs(seed=3)
        dataset = _labeled_dataset(x, y)
        spec = models.Mlp(input_dim=3, hidden_dims=(4,), l2_coeff=1e-3)
        config = training.TrainConfig(
            batch_size=64, learning_rate=1e-3, max_epochs=10,
            early_stop_patience=10, seed=5,
        )
        runs = [
            training.train(dataset, data.Oracle(), spec, config, dataset)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_seed_changes_the_result(self):
        x, y = _blobs(seed=4)
        dataset = _labeled_dataset(x, y)
        spec = models.Mlp(input_dim=3, hidden_dims=(4,), l2_coeff=1e-3)
        base = training.TrainConfig(batch_size=64, max_epochs=5,
                                    early_stop_patience=5, seed=0)
        other = training.TrainConfig(batch_size=64, max_epochs=5,
                                     early_stop_patience=5, seed=1)
        a = training.train(dataset, data.Oracle(), spec, base, dataset)
        b = training.train(dataset, data.Oracle(), spec, other, dataset)
        assert not np.array_equal(a, b)


class TestEarlyStopping:
    def test_stops_before_the_epoch_cap_on_noise(self, tmp_path):
        rng = np.random.default_rng(5)
        x_train = rng.standard_normal((300, 10))
        y_train = (rng.random(300) < 0.5).astype(np.float64)
        x_valid = rng.standard_normal((300, 10))
        y_valid = (rng.random(300) < 0.5).astype(np.float64)
        spec = models.LogisticRegression(input_dim=10, l2_coeff=0.0)
        config = training.TrainConfig(
            batch_size=32, learning_rate=1e-2, max_epochs=200,
            early_stop_patience=3, seed=0,
        )
        log_path = tmp_path / "log.csv"
        training.train(
            _labeled_dataset(x_train, y_train), data.Oracle(), spec, config,
            _labeled_dataset(x_valid, y_valid), metrics_log_path=str(log_path),
        )
        with open(log_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert 0 < len(rows) < 200

    def test_returns_the_best_validation_iterate(self, tmp_path):
        rng = np.random.default_rng(6)
        x_train = rng.standard_normal((300, 6))
        y_train = (rng.random(300) < 0.4).astype(np.float64)
        x_valid = rng.standard_normal((200, 6))
        y_valid = (rng.random(200) < 0.4).astype(np.float64)
        valid_ds = _labeled_dataset(x_valid, y_valid)
        spec = models.LogisticRegression(input_dim=6, l2_coeff=0.0)
        config = training.TrainConfig(
            batch_size=64, learning_rate=1e-2, max_epochs=40,
            early_stop_patience=40, seed=0,
        )
        log_path = tmp_path / "log.csv"
        params = training.train(
            _labeled_dataset(x_train, y_train), data.Oracle(), spec, config,
            valid_ds, metrics_log_path=str(log_path),
        )
        returned_ll = metrics.log_loss(
            models.predict(spec, params, x_valid), y_valid
        )
        with open(log_path, newline="") as fh:
            logged = [float(r["valid_log_loss"]) for r in csv.DictReader(fh)]
        assert returned_ll <= min(logged) + 1e-12


class TestStepPrecision:
    def test_steps_sweep_float32_batches_into_float64_parameters(
        self, monkeypatch
    ):
        seen = []
        loss_and_grad = models.loss_and_grad

        def spy(spec, params, x, y):
            seen.append((params.dtype, x.dtype, y.dtype))
            return loss_and_grad(spec, params, x, y)

        monkeypatch.setattr(models, "loss_and_grad", spy)
        x, y = _blobs(seed=10, n=200)
        dataset = _labeled_dataset(x, y)
        spec = models.Mlp(input_dim=3, hidden_dims=(4,), l2_coeff=1e-3)
        config = training.TrainConfig(batch_size=64, max_epochs=3,
                                      early_stop_patience=3, seed=0)
        params = training.train(dataset, data.Oracle(), spec, config,
                                dataset)
        assert len(seen) == 3 * 4
        assert set(seen) == {(np.dtype(np.float64), np.dtype(np.float32),
                              np.dtype(np.float32))}
        assert params.dtype == np.float64

    def test_a_feature_past_float32_range_fails_before_training(
        self, monkeypatch
    ):
        def first_step(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(models, "loss_and_grad", first_step)
        x, y = _blobs(seed=11, n=100)
        x[7, 1] = -3.5e38  # finite in float64, inf in float32
        dataset = _labeled_dataset(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                DataFormatError,
                match=r"^training features must not exceed float32's "
                      r"largest magnitude, 3\.4028235e\+38: training "
                      r"steps in float32$"):
                training.train(dataset, data.Oracle(),
                               models.LogisticRegression(input_dim=3),
                               training.TrainConfig(), dataset)


class TestTrainingLog:
    def test_log_columns_and_monotone_epochs(self, tmp_path):
        x, y = _blobs(seed=7, n=200)
        dataset = _labeled_dataset(x, y)
        spec = models.LogisticRegression(input_dim=3, l2_coeff=0.0)
        config = training.TrainConfig(batch_size=50, max_epochs=8,
                                      early_stop_patience=8, seed=0)
        log_path = tmp_path / "log.csv"
        training.train(dataset, data.Oracle(), spec, config, dataset,
                       metrics_log_path=str(log_path))
        with open(log_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["epoch", "train_loss", "valid_log_loss"]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert all(np.isfinite(float(r[1])) for r in rows)
        assert all(np.isfinite(float(r[2])) for r in rows)


class TestAdam:
    def test_first_step_is_lr_g_over_abs_g_plus_eps(self):
        # After one step both moments are bias-corrected back to g and g**2,
        # so each coordinate moves by lr * g / (|g| + eps).
        rng = np.random.default_rng(0)
        grad = rng.standard_normal(60) * 10.0 ** rng.integers(-10, 3, 60)
        grad[:5] = 0.0
        params = np.zeros(60)  # so that -params is the step, unrounded
        params = optim.Adam(60, 0.02).step(params, grad)
        np.testing.assert_allclose(
            -params, 0.02 * grad / (np.abs(grad) + optim.EPS),
            rtol=1e-12, atol=0.0)


class TestSeeding:
    @pytest.mark.parametrize("seed, epoch, n, size", [
        (0, 1, 10, 4), (7, 30, 12, 3), (2**32 - 1, 2**31, 5, 8)])
    def test_minibatches_cut_the_keyed_shuffle(self, seed, epoch, n, size):
        perm = optim.keyed_rng((seed << 32) + epoch).permutation(n)
        runs = optim.minibatches(seed, epoch, n, size)
        assert [len(r) for r in runs] == [
            min(size, n - start) for start in range(0, n, size)]
        np.testing.assert_array_equal(np.concatenate(runs), perm)

    def test_streams_keep_their_keys(self):
        # Today's keys: a change of key, such as a purpose tag, changes
        # every seeded output and must rewrite these values.
        assert [r.tolist() for r in optim.minibatches(0, 1, 10, 4)] == [
            [6, 0, 7, 9], [4, 1, 8, 5], [2, 3]]
        assert models.init_params(models.Mlp(3, (4,)), 0)[:3].tolist() == [
            -1.3815544093468557, -0.731009262854454, -1.099053650236594]
        log = data.generate_synthetic(data.SyntheticConfig(
            n=100, feature_dim=3, target_cvr=0.2, delay_mean_tau=86400,
            horizon=12 * 86400))
        assert log.click_ts[:3].tolist() == [36020, 11971, 634470]


class TestFailureModes:
    def test_divergence_raises_with_location(self, tmp_path):
        x, y = _blobs(seed=8, n=200)
        dataset = _labeled_dataset(x, y)
        spec = models.LogisticRegression(input_dim=3, l2_coeff=1e-2)
        config = training.TrainConfig(
            batch_size=50, learning_rate=1e200, max_epochs=5,
            early_stop_patience=5, seed=0,
        )
        log_path = tmp_path / "log.csv"
        with np.errstate(over="ignore"), pytest.raises(
            training.TrainingDivergedError
        ) as info:
            training.train(dataset, data.Oracle(), spec, config, dataset,
                           metrics_log_path=str(log_path))
        assert info.value.epoch >= 1
        assert info.value.batch_index >= 1
        # the metrics log is still written for the completed epochs
        assert log_path.exists()

    def test_overflowing_last_step_raises_divergence(self):
        # One batch per epoch: its loss is finite, and only the validation
        # pass sees the overflow its step causes.
        x, y = _blobs(seed=8, n=200)
        dataset = _labeled_dataset(x, y)
        spec = models.LogisticRegression(input_dim=3, l2_coeff=0.0)
        config = training.TrainConfig(batch_size=200, learning_rate=1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            training.TrainingDivergedError, match="diverged"
        ) as info:
            training.train(dataset, data.Oracle(), spec, config, dataset)
        assert info.value.batch_index == 0

    def test_empty_sets_rejected(self):
        x, y = _blobs(seed=9, n=50)
        dataset = _labeled_dataset(x, y)
        empty = dataset.subset(np.array([], dtype=np.int64))
        spec = models.LogisticRegression(input_dim=3, l2_coeff=0.0)
        config = training.TrainConfig()
        with pytest.raises(ConfigError):
            training.train(empty, data.Oracle(), spec, config, dataset)
        with pytest.raises(ConfigError):
            training.train(dataset, data.Oracle(), spec, config, empty)

    def test_config_validation(self):
        for field, value in (
            ("batch_size", 0),
            ("learning_rate", 0.0),
            ("max_epochs", 0),
            ("early_stop_patience", 0),
            ("seed", -1),
        ):
            with pytest.raises(ConfigError, match=field):
                training.TrainConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, match", [
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": -1e-3}, "learning_rate"),
    ])
    def test_adam_settings_are_config_errors(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            optim.Adam(3, **kwargs)

    def test_unwritable_metrics_log_fails_before_training(
        self, tmp_path, monkeypatch
    ):
        def first_step(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(models, "loss_and_grad", first_step)
        x, y = _blobs(seed=8, n=200)
        dataset = _labeled_dataset(x, y)
        path = tmp_path / "missing" / "log.csv"
        with pytest.raises(DataFormatError, match=f"{path}: cannot write"):
            training.train(dataset, data.Oracle(),
                           models.LogisticRegression(input_dim=3),
                           training.TrainConfig(), dataset,
                           metrics_log_path=str(path))


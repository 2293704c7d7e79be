"""Model core tests: predictions, losses, gradients, HVPs, checkpoints."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcvr import models
from dfcvr.errors import ConfigError, DataFormatError
from dfcvr.models import LogisticRegression, Mlp


def _loss(spec, theta, x, y):
    return models.loss_and_grad(spec, theta, x, y)[0]


def _grad(spec, theta, x, y):
    return models.loss_and_grad(spec, theta, x, y)[1]


def _hvp(spec, theta, x, y, v):
    state = models.build_state(spec, theta, x, y)
    return models.hvp_from_state(spec, theta, state, v)


def _sample_loss(spec, theta, x, label):
    """Loss of one sample, including the full L2 penalty."""
    return _loss(spec, theta, np.asarray(x)[None, :], np.array([label]))


def _random_instance(rng, spec, n=30, scale=0.5):
    p = models.num_params(spec)
    theta = scale * rng.standard_normal(p)
    x = rng.standard_normal((n, spec.input_dim))
    y = (rng.random(n) < 0.35).astype(np.float64)
    return theta, x, y


class TestPredict:
    def test_zero_params_give_half(self):
        lr = LogisticRegression(input_dim=4)
        assert models.predict(lr, np.zeros(5), np.ones((1, 4)))[0] == 0.5
        mlp = Mlp(input_dim=4, hidden_dims=(6, 3))
        zeros = np.zeros(models.num_params(mlp))
        assert models.predict(mlp, zeros, np.ones((1, 4)))[0] == 0.5

    def test_unit_weight_closed_form(self):
        lr = LogisticRegression(input_dim=3)
        params = np.array([1.0, 0.0, 0.0, 0.0])  # w = e1, b = 0
        x = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(
            models.predict(lr, params, x)[0], 1.0 / (1.0 + np.exp(-1.0)),
            rtol=1e-12,
        )

    def test_dimension_mismatch(self):
        lr = LogisticRegression(input_dim=3)
        with pytest.raises(ConfigError):
            models.predict(lr, np.zeros(4), np.ones((1, 5)))

    def test_clipping_inactive_on_bounded_fixtures(self):
        rng = np.random.default_rng(0)
        spec = Mlp(input_dim=5, hidden_dims=(4,))
        p = models.num_params(spec)
        for _ in range(50):
            theta = rng.standard_normal(p)
            theta *= 2.0 / max(np.linalg.norm(theta), 2.0)
            x = rng.standard_normal(5)
            x *= 10.0 / max(np.linalg.norm(x), 10.0)
            prob = models.predict(spec, theta, x[None, :])[0]
            assert models.PROB_CLIP < prob < 1.0 - models.PROB_CLIP

    def test_single_vector_is_rejected(self):
        # A lone vector would go through a one-row product, which BLAS may
        # sum differently from the same row in a batch.
        rng = np.random.default_rng(1)
        spec = Mlp(input_dim=4, hidden_dims=(6,))
        theta, x, _ = _random_instance(rng, spec, n=10)
        with pytest.raises(ConfigError,
                           match=r"shape \(4,\), expected .*\(n, 4\)"):
            models.predict(spec, theta, x[0])


class TestBceLoss:
    def test_half_probability_gives_ln2(self):
        lr = LogisticRegression(input_dim=2)
        loss = _sample_loss(lr, np.zeros(3), np.ones(2), 1)
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_confident_correct_loss_sits_at_the_clip_floor(self):
        # probabilities are clipped to [1e-7, 1 - 1e-7], so a confident
        # correct prediction bottoms out near -log(1 - 1e-7)
        lr = LogisticRegression(input_dim=1)
        loss = _sample_loss(lr, np.array([25.0, 0.0]), np.ones(1), 1)
        assert 0.0 < loss <= 1.01e-7

    def test_matches_independent_scalar_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            spec = LogisticRegression(input_dim=4, l2_coeff=0.01)
            theta = 0.5 * rng.standard_normal(5)
            x = rng.standard_normal(4)
            y = float(rng.integers(0, 2))
            # independent re-computation
            logit = float(np.clip(theta[:4] @ x + theta[4], -30.0, 30.0))
            f = float(np.clip(1.0 / (1.0 + np.exp(-logit)), 1e-7, 1 - 1e-7))
            expected = -(y * np.log(f) + (1 - y) * np.log(1 - f))
            expected += 0.5 * 0.01 * float(theta[:4] @ theta[:4])
            got = _sample_loss(spec, theta, x, y)
            np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestGrad:
    def test_logistic_closed_form(self):
        rng = np.random.default_rng(3)
        spec = LogisticRegression(input_dim=6, l2_coeff=0.0)
        theta, x, y = _random_instance(rng, spec, n=25)
        f = models.predict(spec, theta, x)
        expected_w = ((f - y)[:, None] * x).mean(axis=0)
        expected_b = (f - y).mean()
        g = _grad(spec, theta, x, y)
        np.testing.assert_allclose(g[:6], expected_w, rtol=1e-12)
        np.testing.assert_allclose(g[6], expected_b, rtol=1e-12)

    def test_directional_finite_difference(self):
        rng = np.random.default_rng(4)
        eps = 1e-5
        for spec in (
            LogisticRegression(input_dim=5, l2_coeff=0.01),
            Mlp(input_dim=5, hidden_dims=(7, 4), l2_coeff=0.01),
        ):
            for _ in range(10):
                theta, x, y = _random_instance(rng, spec)
                u = rng.standard_normal(theta.size)
                u /= np.linalg.norm(u)
                g = _grad(spec, theta, x, y)
                fd = (
                    _loss(spec, theta + eps * u, x, y)
                    - _loss(spec, theta - eps * u, x, y)
                ) / (2 * eps)
                np.testing.assert_allclose(g @ u, fd, rtol=1e-5, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        spec = Mlp(input_dim=4, hidden_dims=(6,), l2_coeff=0.001)
        theta, x, y = _random_instance(rng, spec)
        g1 = _grad(spec, theta, x, y)
        g2 = _grad(spec, theta, x, y)
        np.testing.assert_array_equal(g1, g2)

    def test_nan_hidden_pre_activation_propagates(self):
        # The ReLU passes a NaN pre-activation on rather than zeroing it,
        # so the per-sample losses and the BCE gradient from a NaN weight
        # are not finite, as predict's scores are not. (The mean loss is
        # NaN through the L2 term too, which multiplies every weight even
        # when l2_coeff is 0.)
        spec = Mlp(4, (3,), 0.0)
        rng = np.random.default_rng(0)
        theta = models.init_params(spec, 0)
        x = rng.standard_normal((16, 4))
        y = (rng.random(16) < 0.5).astype(np.float64)
        theta[0] = np.nan  # a weight of the first hidden unit
        assert not np.isfinite(_loss(spec, theta, x, y))
        assert not np.all(np.isfinite(models.predict(spec, theta, x)))
        state = models.build_state(spec, theta, x, y)
        assert not np.all(np.isfinite(state.losses))
        assert not np.all(np.isfinite(models.bce_grad_sum(spec, theta, x, y)))


class TestSweepPrecision:
    """A float32 batch, a training step's, sweeps in float32; every other
    batch, and every prediction, in float64."""

    def _instance(self):
        # Features exact in float32, so that a float64 sweep of the cast
        # batch is the float64 batch's sweep, bit for bit.
        rng = np.random.default_rng(12)
        spec = Mlp(input_dim=6, hidden_dims=(16, 8), l2_coeff=1e-2)
        theta, x, y = _random_instance(rng, spec, n=200)
        return spec, theta, x.astype(np.float32).astype(np.float64), y

    def test_a_float32_batch_gives_a_float64_gradient_near_float64s(self):
        spec, theta, x, y = self._instance()
        loss, g = models.loss_and_grad(spec, theta, x, y)
        loss32, g32 = models.loss_and_grad(
            spec, theta, x.astype(np.float32), y.astype(np.float32))
        assert g32.dtype == np.float64
        assert not np.array_equal(g32, g)
        assert np.abs(g32 - g).max() <= 1e-5 * np.abs(g).max()
        np.testing.assert_allclose(loss32, loss, rtol=1e-5)

    def test_a_float32_batch_state_is_float32(self):
        spec, theta, x, y = self._instance()
        state = models.build_state(spec, theta, x.astype(np.float32), y)
        assert {a.dtype for a in [*state.inputs, *state.deltas, state.h,
                                  state.losses]} == {np.dtype(np.float32)}

    def test_predict_sweeps_a_float32_batch_in_float64(self):
        spec, theta, x, _ = self._instance()
        scores = models.predict(spec, theta, x.astype(np.float32))
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(scores, models.predict(spec, theta, x))


class TestHvp:
    def test_zero_direction(self):
        rng = np.random.default_rng(6)
        spec = Mlp(input_dim=4, hidden_dims=(5,))
        theta, x, y = _random_instance(rng, spec)
        hv = _hvp(spec, theta, x, y, np.zeros(theta.size))
        np.testing.assert_array_equal(hv, np.zeros(theta.size))

    def test_logistic_closed_form_hessian(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = LogisticRegression(input_dim=6, l2_coeff=0.02)
            theta, x, y = _random_instance(rng, spec, n=40)
            f = models.predict(spec, theta, x)
            xa = np.hstack([x, np.ones((40, 1))])
            h = xa.T @ (xa * (f * (1 - f))[:, None]) / 40
            h[:6, :6] += 0.02 * np.eye(6)
            v = rng.standard_normal(7)
            hv = _hvp(spec, theta, x, y, v)
            np.testing.assert_allclose(hv, h @ v, rtol=1e-10, atol=1e-14)

    def test_finite_difference_of_gradients(self):
        rng = np.random.default_rng(8)
        eps = 1e-4
        for spec in (
            LogisticRegression(input_dim=5, l2_coeff=0.01),
            Mlp(input_dim=5, hidden_dims=(6, 4), l2_coeff=0.01),
        ):
            for _ in range(10):
                theta, x, y = _random_instance(rng, spec)
                v = rng.standard_normal(theta.size)
                hv = _hvp(spec, theta, x, y, v)
                fd = (
                    _grad(spec, theta + eps * v, x, y)
                    - _grad(spec, theta - eps * v, x, y)
                ) / (2 * eps)
                err = np.linalg.norm(hv - fd) / max(np.linalg.norm(fd), 1e-12)
                assert err < 1e-4

    def test_linearity(self):
        rng = np.random.default_rng(9)
        spec = Mlp(input_dim=4, hidden_dims=(6,), l2_coeff=0.01)
        theta, x, y = _random_instance(rng, spec)
        u = rng.standard_normal(theta.size)
        w = rng.standard_normal(theta.size)
        a, b = 0.7, -1.3
        left = _hvp(spec, theta, x, y, a * u + b * w)
        right = a * _hvp(spec, theta, x, y, u) + b * _hvp(
            spec, theta, x, y, w
        )
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for spec in (
            LogisticRegression(input_dim=5, l2_coeff=0.01),
            Mlp(input_dim=5, hidden_dims=(7, 3), l2_coeff=0.01),
        ):
            for _ in range(10):
                theta, x, y = _random_instance(rng, spec)
                u = rng.standard_normal(theta.size)
                v = rng.standard_normal(theta.size)
                hu = _hvp(spec, theta, x, y, u)
                hv = _hvp(spec, theta, x, y, v)
                np.testing.assert_allclose(u @ hv, v @ hu, rtol=1e-10)

    def test_logistic_positive_definite_on_weights(self):
        rng = np.random.default_rng(11)
        spec = LogisticRegression(input_dim=6, l2_coeff=0.05)
        for _ in range(20):
            theta, x, y = _random_instance(rng, spec)
            v = rng.standard_normal(7)
            hv = _hvp(spec, theta, x, y, v)
            assert v @ hv >= 0.05 * float(v[:6] @ v[:6]) - 1e-12

    def test_state_subset_rows_match_direct_batch(self):
        rng = np.random.default_rng(12)
        spec = Mlp(input_dim=5, hidden_dims=(6,), l2_coeff=0.01)
        theta, x, y = _random_instance(rng, spec, n=50)
        state = models.build_state(spec, theta, x, y)
        v = rng.standard_normal(theta.size)
        rows = np.array([3, 11, 30, 42])
        via_state = models.hvp_from_state(spec, theta, state, v, rows=rows)
        direct = _hvp(spec, theta, x[rows], y[rows], v)
        np.testing.assert_allclose(via_state, direct, rtol=1e-12)


class TestSpec:
    def test_logistic_regression_is_the_mlp_without_hidden_layers(self):
        spec = LogisticRegression(input_dim=4, l2_coeff=0.5)
        assert spec == Mlp(input_dim=4, hidden_dims=(), l2_coeff=0.5)
        assert models.layer_shapes(spec) == [(1, 4)]

    @pytest.mark.parametrize("input_dim, hidden_dims", [
        (0, ()), (-1, (4,)), (3, (0,)), (3, (4, -5)),
        # Past int64, numpy cannot size the layer.
        (2**63, ()), (3, (2**63,)), (3, (4, 99999999999999999999)),
    ])
    def test_nonpositive_widths_rejected(self, input_dim, hidden_dims):
        with pytest.raises(ConfigError, match="input_dim|hidden_dims"):
            Mlp(input_dim=input_dim, hidden_dims=hidden_dims)

    @pytest.mark.parametrize("l2_coeff", [-5.0, -1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_l2_coeff_rejected(self, l2_coeff):
        with pytest.raises(ConfigError, match="l2_coeff"):
            Mlp(input_dim=3, hidden_dims=(), l2_coeff=l2_coeff)


class TestInitParams:
    def test_logistic_starts_at_zero(self):
        spec = LogisticRegression(input_dim=9)
        np.testing.assert_array_equal(
            models.init_params(spec, 3), np.zeros(10)
        )

    def test_mlp_biases_zero_weights_bounded(self):
        spec = Mlp(input_dim=10, hidden_dims=(16, 8))
        theta = models.init_params(spec, 0)
        layers = models.unpack_params(spec, theta)
        for idx, (w, b) in enumerate(layers):
            np.testing.assert_array_equal(b, np.zeros_like(b))
            fan_in = w.shape[1]
            if idx < len(layers) - 1:
                limit = np.sqrt(6.0 / fan_in)
            else:
                limit = np.sqrt(6.0 / (fan_in + w.shape[0]))
            assert np.max(np.abs(w)) <= limit

    def test_seeded(self):
        spec = Mlp(input_dim=6, hidden_dims=(5,))
        a = models.init_params(spec, 4)
        b = models.init_params(spec, 4)
        c = models.init_params(spec, 5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        spec = Mlp(input_dim=7, hidden_dims=(5, 3), l2_coeff=0.01)
        theta = rng.standard_normal(models.num_params(spec))
        path = str(tmp_path / "model.ckpt")
        models.save_checkpoint(path, spec, theta)
        loaded_spec, loaded = models.load_checkpoint(path)
        assert loaded_spec == spec
        np.testing.assert_array_equal(loaded, theta)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(DataFormatError):
            models.load_checkpoint(str(path))

    def test_rejects_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(14)
        spec = LogisticRegression(input_dim=4)
        theta = rng.standard_normal(5)
        path = tmp_path / "model.ckpt"
        models.save_checkpoint(str(path), spec, theta)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError):
            models.load_checkpoint(str(path))

    @settings(max_examples=25, deadline=None)
    @given(
        input_dim=st.integers(1, 4),
        hidden_dims=st.lists(st.integers(1, 3), max_size=2),
        l2_coeff=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_proper_prefix_is_rejected_and_round_trip_is_exact(
        self, input_dim, hidden_dims, l2_coeff, seed
    ):
        spec = Mlp(input_dim, tuple(hidden_dims), l2_coeff)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(models.num_params(spec))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            models.save_checkpoint(str(path), spec, theta)
            blob = path.read_bytes()
            loaded_spec, loaded = models.load_checkpoint(str(path))
            assert loaded_spec == spec
            models.save_checkpoint(str(path), loaded_spec, loaded)
            assert path.read_bytes() == blob
            for end in range(len(blob)):
                path.write_bytes(blob[:end])
                with pytest.raises(DataFormatError):
                    models.load_checkpoint(str(path))

    def test_logreg_checkpoint_format_is_unchanged(self, tmp_path):
        # The bytes a "logreg" checkpoint has always had.
        theta = np.array([0.5, -1.25, 2.0, 0.0, 0.125])
        header = {"input_dim": 4, "kind": "logreg", "l2_coeff": 0.01,
                  "num_params": 5}
        blob = json.dumps(header, sort_keys=True).encode()
        expected = (b"DFC1" + struct.pack("<I", len(blob)) + blob
                    + theta.astype("<f8").tobytes())
        old = tmp_path / "old.ckpt"
        old.write_bytes(expected)
        spec, params = models.load_checkpoint(str(old))
        assert spec == Mlp(input_dim=4, hidden_dims=(), l2_coeff=0.01)
        np.testing.assert_array_equal(params, theta)
        resaved = tmp_path / "resaved.ckpt"
        models.save_checkpoint(str(resaved), spec, params)
        assert resaved.read_bytes() == expected

    def test_rejects_zero_width_header(self, tmp_path):
        blob = json.dumps({"hidden_dims": [0], "input_dim": 4,
                           "kind": "mlp", "l2_coeff": 0.0,
                           "num_params": 1}).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"DFC1" + struct.pack("<I", len(blob)) + blob
                         + np.zeros(1).tobytes())
        with pytest.raises(DataFormatError, match="hidden_dims"):
            models.load_checkpoint(str(path))

    def test_rejects_negative_l2_coeff_header(self, tmp_path):
        blob = json.dumps({"input_dim": 4, "kind": "logreg",
                           "l2_coeff": -5.0, "num_params": 5}).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"DFC1" + struct.pack("<I", len(blob)) + blob
                         + np.zeros(5).tobytes())
        with pytest.raises(DataFormatError, match="l2_coeff"):
            models.load_checkpoint(str(path))

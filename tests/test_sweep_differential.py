"""Differential test of the training and HVP sweeps against their
allocating versions.

The ``_oracle_*`` functions and ``_OracleAdam`` are ``build_state``,
``loss_and_grad``, ``bce_grad_sum``, ``hvp_from_state`` and ``Adam.step``
as they were before the sweeps wrote into preallocated buffers; the
probabilities inside ``_oracle_forward`` are what ``predict`` must return,
since it reads the same sweep and clamp rule as ``build_state``.
``_OracleAdam`` and ``_oracle_bce_grad_sum`` read as ``Adam.step`` and
the library's gradient sum do, since arithmetic on parameter-sized
vectors writes into no buffer; what this file guards is the batch-sized
sweeps, which write in place (the forward ReLU, the backward masks and
``hvp_from_state``). The library keeps every floating-point operation
and its order, so each output must equal the reference byte for byte,
not within a tolerance. The one intended difference, a NaN hidden
pre-activation, has its own test.

Bit-identity must not depend on how BLAS splits a product over threads:
run this file under ``OPENBLAS_NUM_THREADS=1`` as well as the default.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcvr import models
from dfcvr.models import LOGIT_CLAMP, PROB_CLIP, BatchState, Mlp
from dfcvr.optim import Adam


def _oracle_forward(spec, params, x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    layers = models.unpack_params(spec, params)

    inputs = [x]
    masks = []
    z = x
    for w, b in layers[:-1]:
        a = z @ w.T + b
        mask = a > 0.0
        z = np.where(mask, a, 0.0)
        inputs.append(z)
        masks.append(mask)
    w, b = layers[-1]
    logits = (z @ w.T + b)[:, 0]

    clamp_mask = np.abs(logits) < LOGIT_CLAMP
    logits_c = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
    f_raw = 1.0 / (1.0 + np.exp(-logits_c))
    clip_mask = (f_raw > PROB_CLIP) & (f_raw < 1.0 - PROB_CLIP)
    f = np.clip(f_raw, PROB_CLIP, 1.0 - PROB_CLIP)

    losses = -(y * np.log(f) + (1.0 - y) * np.log1p(-f))
    smooth = clamp_mask & clip_mask
    g = np.where(smooth, f - y, 0.0)
    h = np.where(smooth, f * (1.0 - f), 0.0)
    return layers, inputs, masks, f, g, h, losses


def _oracle_build_state(spec, params, x, y):
    layers, inputs, masks, _, g, h, losses = _oracle_forward(spec, params,
                                                             x, y)
    deltas = [np.empty(0)] * len(layers)
    deltas[-1] = g[:, None]
    for l in range(len(layers) - 1, 0, -1):
        w_l, _ = layers[l]
        deltas[l - 1] = (deltas[l] @ w_l) * masks[l - 1]
    return BatchState(inputs=inputs, deltas=deltas, h=h, losses=losses)


def _oracle_loss_and_grad(spec, params, x, y):
    state = _oracle_build_state(spec, params, x, y)
    reg = 0.5 * spec.l2_coeff * sum(
        float(np.sum(w * w)) for w, _ in models.unpack_params(spec, params)
    )
    loss = float(np.mean(state.losses)) + reg
    reg_grads = [spec.l2_coeff * w
                 for w, _ in models.unpack_params(spec, params)]
    layers = []
    for l, (inputs_l, delta_l) in enumerate(zip(state.inputs, state.deltas)):
        dw = delta_l.T @ inputs_l / state.n + reg_grads[l]
        db = delta_l.mean(axis=0)
        layers.append((dw, db))
    return loss, models.pack_params(layers)


def _oracle_bce_grad_sum(spec, params, x, y):
    state = _oracle_build_state(spec, params, x, y)
    layers = []
    for inputs_l, delta_l in zip(state.inputs, state.deltas):
        layers.append((delta_l.T @ inputs_l, delta_l.sum(axis=0)))
    return models.pack_params(layers)


def _oracle_hvp_from_state(spec, params, state, v, rows=None):
    layers = models.unpack_params(spec, params)
    vs = models.unpack_params(spec, v)
    # The oracle's own masks: the pre-activations' signs, from its sweep.
    masks = _oracle_forward(spec, params, state.inputs[0],
                            np.zeros(state.n))[2]

    if rows is None:
        inputs = state.inputs
        deltas = state.deltas
        h = state.h
    else:
        inputs = [arr[rows] for arr in state.inputs]
        masks = [arr[rows] for arr in masks]
        deltas = [arr[rows] for arr in state.deltas]
        h = state.h[rows]
    n = inputs[0].shape[0]

    r_inputs = [np.zeros_like(inputs[0])]
    for l in range(len(layers) - 1):
        w_l, _ = layers[l]
        vw_l, vb_l = vs[l]
        ra = r_inputs[l] @ w_l.T + inputs[l] @ vw_l.T + vb_l
        r_inputs.append(ra * masks[l])
    w_last, _ = layers[-1]
    vw_last, vb_last = vs[-1]
    ra_out = r_inputs[-1] @ w_last.T + inputs[-1] @ vw_last.T + vb_last

    r_deltas = [np.empty(0)] * len(layers)
    r_deltas[-1] = h[:, None] * ra_out
    for l in range(len(layers) - 1, 0, -1):
        w_l, _ = layers[l]
        vw_l, _ = vs[l]
        r_deltas[l - 1] = (r_deltas[l] @ w_l + deltas[l] @ vw_l) * masks[l - 1]

    out = []
    for l in range(len(layers)):
        rdw = (r_deltas[l].T @ inputs[l] + deltas[l].T @ r_inputs[l]) / n
        rdw += spec.l2_coeff * vs[l][0]
        rdb = r_deltas[l].mean(axis=0)
        out.append((rdw, rdb))
    return models.pack_params(out)


class _OracleAdam:
    def __init__(self, dim, learning_rate):
        self.learning_rate = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)

    def step(self, params, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def _same(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _same_state(new, old):
    assert new.n == old.n
    for field in ("inputs", "deltas"):
        got, want = getattr(new, field), getattr(old, field)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same(a, b)
    _same(new.h, old.h)
    _same(new.losses, old.losses)


@st.composite
def instances(draw):
    """A model, parameters, a labelled batch, a direction and HVP rows.

    Parameters are scaled up to 10x so that the logit clamp and the
    probability clip bind on some rows; labels include soft targets.
    """
    hidden = draw(st.sampled_from([(), (1,), (64, 64), (3, 5, 2)]))
    input_dim = draw(st.integers(1, 6))
    l2 = draw(st.sampled_from([0.0, 1e-2, 0.5]))
    spec = Mlp(input_dim, hidden, l2)
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = scale * rng.standard_normal(models.num_params(spec))
    x = rng.standard_normal((n, input_dim))
    y = (rng.random(n) < 0.35).astype(np.float64)
    if draw(st.booleans()):
        y[rng.random(n) < 0.3] = 0.25
    v = rng.standard_normal(theta.size)
    kind = draw(st.sampled_from(["none", "slice", "gather"]))
    if kind == "none":
        rows = None
    elif kind == "slice":
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, n))
        rows = slice(start, stop, draw(st.sampled_from([1, 2])))
    else:
        size = draw(st.integers(1, 2 * n))
        rows = rng.integers(0, n, size=size)  # repeats allowed
    return spec, theta, x, y, v, rows


@settings(max_examples=300, deadline=None)
@given(case=instances())
def test_sweeps_are_bit_identical(case):
    spec, theta, x, y, v, rows = case
    state = models.build_state(spec, theta, x, y)
    _same_state(state, _oracle_build_state(spec, theta, x, y))

    loss, grad = models.loss_and_grad(spec, theta, x, y)
    want_loss, want_grad = _oracle_loss_and_grad(spec, theta, x, y)
    _same(np.float64(loss), np.float64(want_loss))
    _same(grad, want_grad)

    _same(models.bce_grad_sum(spec, theta, x, y),
          _oracle_bce_grad_sum(spec, theta, x, y))

    _same(models.hvp_from_state(spec, theta, state, v, rows=rows),
          _oracle_hvp_from_state(spec, theta, state, v, rows=rows))

    _same(models.predict(spec, theta, x),
          _oracle_forward(spec, theta, x, y)[3])


@pytest.mark.parametrize("rows", [
    None, slice(0, 8192), slice(8192, 10000),
    np.random.default_rng(1).integers(0, 10000, size=2048),
])
def test_large_batches_are_bit_identical(rows):
    # Blocks large enough that BLAS splits the products over its threads.
    spec = Mlp(20, (64, 64), 1e-2)
    rng = np.random.default_rng(0)
    theta = models.init_params(spec, 0)
    x = rng.standard_normal((10000, 20))
    y = (rng.random(10000) < 0.3).astype(np.float64)
    v = rng.standard_normal(theta.size)
    state = models.build_state(spec, theta, x, y)
    _same_state(state, _oracle_build_state(spec, theta, x, y))
    _same(models.loss_and_grad(spec, theta, x, y)[1],
          _oracle_loss_and_grad(spec, theta, x, y)[1])
    _same(models.hvp_from_state(spec, theta, state, v, rows=rows),
          _oracle_hvp_from_state(spec, theta, state, v, rows=rows))
    _same(models.predict(spec, theta, x),
          _oracle_forward(spec, theta, x, y)[3])


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 70),
    steps=st.integers(1, 12),
    learning_rate=st.sampled_from([1e-3, 0.02, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_sequences_are_bit_identical(dim, steps, learning_rate, seed):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(dim)
    want = params.copy()
    adam = Adam(dim, learning_rate)
    oracle = _OracleAdam(dim, learning_rate)
    for _ in range(steps):
        grad = rng.standard_normal(dim) * 10.0 ** rng.integers(-8, 3)
        grad[rng.random(dim) < 0.2] = 0.0
        adam.step(params, grad)
        oracle.step(want, grad)
        _same(params, want)
        _same(adam.m, oracle.m)
        _same(adam.v, oracle.v)


def test_nan_hidden_pre_activation_propagates():
    # The one intended difference: np.where(a > 0, a, 0) zeroed a NaN
    # pre-activation, so the per-sample losses and the BCE gradient came
    # out finite from a NaN weight; the ReLU now propagates it, as
    # predict always did. (The mean loss was already NaN through the L2
    # term, which multiplies every weight, even when l2_coeff is 0.)
    spec = Mlp(4, (3,), 0.0)
    rng = np.random.default_rng(0)
    theta = models.init_params(spec, 0)
    x = rng.standard_normal((16, 4))
    y = (rng.random(16) < 0.5).astype(np.float64)
    theta[0] = np.nan  # a weight of the first hidden unit
    loss, _ = models.loss_and_grad(spec, theta, x, y)
    assert not np.isfinite(loss)
    assert not np.all(np.isfinite(models.predict(spec, theta, x)))
    assert not np.all(np.isfinite(models.build_state(spec, theta, x, y).losses))
    assert not np.all(np.isfinite(models.bce_grad_sum(spec, theta, x, y)))
    assert np.all(np.isfinite(_oracle_build_state(spec, theta, x, y).losses))
    assert np.all(np.isfinite(_oracle_bce_grad_sum(spec, theta, x, y)))

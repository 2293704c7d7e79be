"""The Gauss-Newton curvature ``G = J^T Diag(h) J / n + l2 I_weights``.

``hvp_from_state(..., curvature="ggn")`` is checked against a dense
oracle built from central differences of the logits, for symmetry and
positive semi-definiteness over drawn widths, and for equality with the
exact Hessian when the model has no hidden layers.
``DampedHessianOperator``, which every update solves with, multiplies
by G.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcvr import models, solvers
from dfcvr.errors import ConfigError
from dfcvr.models import LogisticRegression, Mlp


def _instance(seed, spec, n=25, scale=0.5):
    rng = np.random.default_rng(seed)
    theta = scale * rng.standard_normal(models.num_params(spec))
    x = rng.standard_normal((n, spec.input_dim))
    y = (rng.random(n) < 0.35).astype(np.float64)
    return rng, theta, x, y


def _logits(spec, theta, x):
    """Plain forward pass, written out independently of the library."""
    z = x
    layers = models.unpack_params(spec, theta)
    for w, b in layers[:-1]:
        z = np.maximum(z @ w.T + b, 0.0)
    w, b = layers[-1]
    return (z @ w.T + b)[:, 0]


def _dense(spec, theta, x, y, curvature, rows=None):
    """The curvature matrix, one ``hvp_from_state`` column at a time."""
    state = models.build_state(spec, theta, x, y)
    eye = np.eye(theta.size)
    return np.column_stack([
        models.hvp_from_state(spec, theta, state, e, rows=rows,
                              curvature=curvature)
        for e in eye
    ])


def _weight_mask(spec):
    """1 on weight-matrix entries, 0 on biases: where the L2 term acts."""
    mask = np.zeros(models.num_params(spec))
    for w, _ in models.unpack_params(spec, mask):
        w[...] = 1.0
    return mask


class TestDenseOracle:
    def test_matches_jacobian_outer_product(self):
        spec = Mlp(input_dim=3, hidden_dims=(4, 3), l2_coeff=0.03)
        _, theta, x, y = _instance(0, spec)
        eps = 1e-6
        jac = np.column_stack([
            (_logits(spec, theta + eps * e, x)
             - _logits(spec, theta - eps * e, x)) / (2 * eps)
            for e in np.eye(theta.size)
        ])
        f = 1.0 / (1.0 + np.exp(-_logits(spec, theta, x)))
        oracle = (jac.T * (f * (1.0 - f))) @ jac / len(x)
        oracle += np.diag(spec.l2_coeff * _weight_mask(spec))

        ggn = _dense(spec, theta, x, y, "ggn")
        np.testing.assert_allclose(ggn, oracle, rtol=1e-6, atol=1e-9)
        # The oracle tells the two curvatures apart on this network.
        hessian = _dense(spec, theta, x, y, "hessian")
        assert np.abs(hessian - oracle).max() > 1e-3

    def test_row_subset_is_the_subset_batch(self):
        spec = Mlp(input_dim=3, hidden_dims=(5,), l2_coeff=0.01)
        _, theta, x, y = _instance(1, spec, n=40)
        rows = np.array([2, 9, 17, 33])
        np.testing.assert_allclose(
            _dense(spec, theta, x, y, "ggn", rows=rows),
            _dense(spec, theta, x[rows], y[rows], "ggn"),
            rtol=1e-12, atol=1e-15,
        )


@st.composite
def _cases(draw):
    input_dim = draw(st.integers(1, 5))
    hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=3)))
    l2 = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    n = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    return Mlp(input_dim, hidden, l2), n, seed


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_ggn_is_symmetric_and_positive_semi_definite(case):
    spec, n, seed = case
    rng, theta, x, y = _instance(seed, spec, n=n, scale=1.0)
    state = models.build_state(spec, theta, x, y)
    u, v = rng.standard_normal((2, theta.size))

    def g(w):
        return models.hvp_from_state(spec, theta, state, w, curvature="ggn")

    gu, gv = g(u), g(v)
    scale = np.linalg.norm(u) * np.linalg.norm(gv) + 1e-300
    assert abs(u @ gv - v @ gu) <= 1e-12 * scale
    assert v @ gv >= -1e-12 * np.linalg.norm(v) * np.linalg.norm(gv)


@pytest.mark.parametrize("rows", [None, np.array([0, 3, 3, 7])])
def test_logistic_regression_ggn_is_the_hessian_bytewise(rows):
    spec = LogisticRegression(input_dim=6, l2_coeff=0.02)
    rng, theta, x, y = _instance(2, spec, n=12)
    state = models.build_state(spec, theta, x, y)
    for _ in range(5):
        v = rng.standard_normal(theta.size)
        ggn, hessian = (
            models.hvp_from_state(spec, theta, state, v, rows=rows,
                                  curvature=c)
            for c in ("ggn", "hessian")
        )
        assert ggn.tobytes() == hessian.tobytes()


class TestOperator:
    def test_matvec_is_damped_ggn(self):
        spec = Mlp(input_dim=3, hidden_dims=(4,), l2_coeff=0.01)
        rng, theta, x, y = _instance(3, spec)
        v = rng.standard_normal(theta.size)
        for batch in (7, solvers.HVP_BATCH_SIZE):
            op = solvers.DampedHessianOperator(spec, theta, x, y, 0.1,
                                               hvp_batch_size=batch)
            np.testing.assert_allclose(
                op.matvec(v),
                _dense(spec, theta, x, y, "ggn") @ v + 0.1 * v,
                rtol=1e-12, atol=1e-14,
            )

    def test_cg_never_meets_non_positive_curvature(self):
        # Undamped and at parameters far from any optimum, the exact
        # Hessian of this network is indefinite; G is not.
        spec = Mlp(input_dim=3, hidden_dims=(6, 4))
        _, theta, x, y = _instance(4, spec, n=30, scale=1.5)
        lowest = {c: np.linalg.eigvalsh(_dense(spec, theta, x, y, c))[0]
                  for c in models.CURVATURES}
        assert lowest["hessian"] < 0 < lowest["ggn"] + 1e-12
        b = np.random.default_rng(5).standard_normal(theta.size)
        op = solvers.DampedHessianOperator(spec, theta, x, y, 1e-2)
        result = solvers.solve("cg", op, b)
        assert result.converged


def test_unknown_curvature_is_a_config_error():
    spec = LogisticRegression(input_dim=2)
    _, theta, x, y = _instance(6, spec)
    state = models.build_state(spec, theta, x, y)
    with pytest.raises(ConfigError, match="unknown curvature 'fisher'"):
        models.hvp_from_state(spec, theta, state, theta, curvature="fisher")

"""The Gauss-Newton curvature ``G = J^T Diag(h) J / n + l2 I_weights``.

The factored product ``ggn_from_factors``, which
``DampedHessianOperator`` and so every update solves with, is checked
against a dense oracle built from central differences of the logits:
for a widening and a narrowing hidden layer, three hidden layers, rows
where the logit clamp binds, contiguous chunks and gathered rows. It is also
checked for symmetry and positive semi-definiteness over drawn widths,
and for equality with the exact Hessian (``hvp_from_state``) when the
model has no hidden layers. The exact Hessian's symmetry is a property
of its own. A float32 cache, built block by block, is checked byte for
byte against one float64 sweep of every row, cast, and its products
against the float64 operator's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcvr import models, solvers
from dfcvr.models import LOGIT_CLAMP, PROB_CLIP, LogisticRegression, Mlp


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


def _product(spec, theta, x, y, curvature, rows=None):
    """``v -> C v``: the factored Gauss-Newton product for ``"ggn"``, the
    exact-Hessian sweep for ``"hessian"``."""
    if curvature == "ggn":
        factors = models.build_ggn_factors(spec, theta, x, y)
        return lambda v: models.ggn_from_factors(spec, factors, v, rows=rows)
    state = models.build_state(spec, theta, x, y)
    return lambda v: models.hvp_from_state(spec, theta, state, v, rows=rows)


def _dense(spec, theta, x, y, curvature, rows=None):
    """The curvature matrix, one product column at a time."""
    product = _product(spec, theta, x, y, curvature, rows)
    return np.column_stack([product(e) for e in np.eye(theta.size)])


def _weight_mask(spec):
    """1 on weight-matrix entries, 0 on biases: where the L2 term acts."""
    mask = np.zeros(models.num_params(spec))
    for w, _ in models.unpack_params(spec, mask):
        w[...] = 1.0
    return mask


def _oracle(spec, theta, x):
    """Dense ``J^T Diag(h) J / n + l2 I_weights``, with ``J`` from central
    differences of the logits and ``h = 0`` where a clamp binds.

    A logit is linear in each single parameter while no ReLU changes
    state, so the differences are exact up to rounding.
    """
    eps = 1e-6
    jac = np.column_stack([
        (_logits(spec, theta + eps * e, x)
         - _logits(spec, theta - eps * e, x)) / (2 * eps)
        for e in np.eye(theta.size)
    ])
    z = _logits(spec, theta, x)
    f = 1.0 / (1.0 + np.exp(-np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)))
    smooth = ((np.abs(z) < LOGIT_CLAMP) & (f > PROB_CLIP)
              & (f < 1.0 - PROB_CLIP))
    h = np.where(smooth, f * (1.0 - f), 0.0)
    oracle = (jac.T * h) @ jac / len(x)
    oracle += np.diag(spec.l2_coeff * _weight_mask(spec))
    return oracle


class TestDenseOracle:
    def test_matches_jacobian_outer_product(self):
        spec = Mlp(input_dim=3, hidden_dims=(4, 3), l2_coeff=0.03)
        _, theta, x, y = _instance(0, spec)
        oracle = _oracle(spec, theta, x)

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
    g = _product(spec, theta, x, y, "ggn")
    u, v = rng.standard_normal((2, theta.size))
    gu, gv = g(u), g(v)
    scale = np.linalg.norm(u) * np.linalg.norm(gv) + 1e-300
    assert abs(u @ gv - v @ gu) <= 1e-12 * scale
    assert v @ gv >= -1e-12 * np.linalg.norm(v) * np.linalg.norm(gv)


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_hessian_is_symmetric(case):
    spec, n, seed = case
    rng, theta, x, y = _instance(seed, spec, n=n, scale=1.0)
    hessian = _product(spec, theta, x, y, "hessian")
    u, v = rng.standard_normal((2, theta.size))
    hu, hv = hessian(u), hessian(v)
    scale = (np.linalg.norm(u) * np.linalg.norm(hv)
             + np.linalg.norm(v) * np.linalg.norm(hu) + 1e-300)
    assert abs(u @ hv - v @ hu) <= 1e-12 * scale


@pytest.mark.parametrize("rows", [None, np.array([0, 3, 3, 7])])
def test_logistic_regression_ggn_is_the_hessian(rows):
    spec = LogisticRegression(input_dim=6, l2_coeff=0.02)
    rng, theta, x, y = _instance(2, spec, n=12)
    ggn, hessian = (_product(spec, theta, x, y, c, rows)
                    for c in ("ggn", "hessian"))
    for _ in range(5):
        v = rng.standard_normal(theta.size)
        np.testing.assert_allclose(ggn(v), hessian(v), rtol=1e-12,
                                   atol=1e-14)


class TestFactoredProduct:
    @pytest.mark.parametrize("spec", [
        Mlp(3, (8,), 0.02),  # a hidden layer wider than its input
        Mlp(30, (4,), 0.02),  # and one narrower
        Mlp(4, (5, 7, 3), 0.01),
    ], ids=["3-8", "30-4", "three-hidden-layers"])
    def test_matches_the_oracle(self, spec):
        _, theta, x, y = _instance(7, spec, n=40)
        np.testing.assert_allclose(
            _dense(spec, theta, x, y, "ggn"), _oracle(spec, theta, x),
            rtol=1e-6, atol=1e-9,
        )

    def test_rows_where_the_logit_clamp_binds_add_nothing(self):
        spec = Mlp(3, (6,), 0.01)
        _, theta, x, y = _instance(8, spec, n=60)
        x[::3] *= 60.0
        z = _logits(spec, theta, x)
        clamped = np.abs(z) >= LOGIT_CLAMP
        assert 0 < clamped.sum() < 20
        factors = models.build_ggn_factors(spec, theta, x, y)
        assert np.all(factors.h[clamped] == 0.0)
        assert np.all(factors.h[1::3] > 0.0)  # the rows left unscaled
        np.testing.assert_allclose(
            _dense(spec, theta, x, y, "ggn"), _oracle(spec, theta, x),
            rtol=1e-6, atol=1e-9,
        )


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
                  for c in ("ggn", "hessian")}
        assert lowest["hessian"] < 0 < lowest["ggn"] + 1e-12
        b = np.random.default_rng(5).standard_normal(theta.size)
        op = solvers.DampedHessianOperator(spec, theta, x, y, 1e-2)
        result = solvers.solve("cg", op, b)
        assert result.converged

    def test_contiguous_chunks_match_the_oracle(self):
        spec = Mlp(input_dim=5, hidden_dims=(6, 4), l2_coeff=0.01)
        _, theta, x, y = _instance(9, spec, n=45)
        op = solvers.DampedHessianOperator(spec, theta, x, y, 0.05,
                                           hvp_batch_size=7)
        dense = np.column_stack([op.matvec(e) for e in np.eye(theta.size)])
        np.testing.assert_allclose(
            dense, _oracle(spec, theta, x) + 0.05 * np.eye(theta.size),
            rtol=1e-6, atol=1e-9,
        )

    def test_gathered_rows_match_the_oracle(self):
        spec = Mlp(input_dim=5, hidden_dims=(6, 4), l2_coeff=0.01)
        _, theta, x, y = _instance(10, spec, n=45)
        rows = np.array([17, 3, 29, 3, 0, 44, 8, 8, 21])  # unsorted, repeats
        op = solvers.DampedHessianOperator(spec, theta, x, y, 0.05)
        dense = np.column_stack([op.matvec_batch(e, rows)
                                 for e in np.eye(theta.size)])
        np.testing.assert_allclose(
            dense, _oracle(spec, theta, x[rows]) + 0.05 * np.eye(theta.size),
            rtol=1e-6, atol=1e-9,
        )

    def test_operators_from_the_same_inputs_agree_bytewise(self):
        spec = Mlp(input_dim=4, hidden_dims=(8, 3), l2_coeff=0.01)
        rng, theta, x, y = _instance(11, spec, n=50)
        v = rng.standard_normal(theta.size)
        rows = rng.permutation(50)[:20]
        first, second = (
            solvers.DampedHessianOperator(spec, theta, x, y, 0.05,
                                          hvp_batch_size=16)
            for _ in range(2)
        )
        assert first.matvec(v).tobytes() == second.matvec(v).tobytes()
        assert (first.matvec_batch(v, rows).tobytes()
                == second.matvec_batch(v, rows).tobytes())


def _cast(factors, dtype):
    return models.GgnFactors(*([a.astype(dtype) for a in arrays]
                               for arrays in (factors.inputs,
                                              factors.jacobians)),
                             factors.h.astype(dtype))


class TestFactorCache:
    @pytest.mark.parametrize("n", [1, 2047, 2049, 5000])
    def test_float32_blocks_are_the_one_sweep_cast(self, n):
        spec = Mlp(input_dim=6, hidden_dims=(16, 8), l2_coeff=0.01)
        _, theta, x, y = _instance(12, spec, n=n)
        blocked = models.build_ggn_factors(spec, theta, x, y, np.float32)
        whole = _cast(models.build_ggn_factors(spec, theta, x, y),
                      np.float32)
        for got, want in zip(blocked.inputs + blocked.jacobians + [blocked.h],
                             whole.inputs + whole.jacobians + [whole.h]):
            assert got.dtype == np.float32 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_products_across_block_edges_are_the_one_sweep_cast(self):
        spec = Mlp(input_dim=6, hidden_dims=(16, 8), l2_coeff=0.01)
        rng, theta, x, y = _instance(13, spec, n=5000)
        blocked = models.build_ggn_factors(spec, theta, x, y, np.float32)
        whole = _cast(models.build_ggn_factors(spec, theta, x, y),
                      np.float32)
        v = rng.standard_normal(theta.size)
        edge = models.FACTOR_BLOCK
        for rows in (None, slice(edge - 100, edge + 100),
                     slice(1000, 4500), rng.permutation(5000)[:700],
                     np.array([edge - 1, edge, 2 * edge, edge - 1, 4999])):
            got, want = (models.ggn_from_factors(spec, f, v, rows)
                         for f in (blocked, whole))
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [
        Mlp(20, (64, 64), 0.01), LogisticRegression(20, 0.01),
    ], ids=["mlp", "logreg"])
    def test_float32_products_agree_with_float64(self, spec):
        rng, theta, x, y = _instance(14, spec, n=3000)
        theta *= 0.3
        v = rng.standard_normal(theta.size)
        rows = rng.permutation(3000)[:512]
        single, double = (
            solvers.DampedHessianOperator(spec, theta, x, y, 2e-2,
                                          hvp_batch_size=1024, dtype=dtype)
            for dtype in (np.float32, np.float64))
        for got, want in ((single.matvec(v), double.matvec(v)),
                          (single.matvec_batch(v, rows),
                           double.matvec_batch(v, rows))):
            assert got.dtype == np.float64
            assert got.tobytes() != want.tobytes()
            assert (np.linalg.norm(got - want)
                    <= 1e-6 * np.linalg.norm(want))

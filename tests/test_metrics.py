"""Metric tests against brute-force oracles and the published RI values."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfcvr import metrics, models
from dfcvr.errors import DataFormatError


def _brute_force_auc(scores, labels):
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


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


def _random_scored_set(rng, m, ties=False):
    scores = rng.random(m)
    if ties:
        scores = np.round(scores, 1)
    labels = (rng.random(m) < 0.3).astype(np.float64)
    if labels.sum() == 0:
        labels[0] = 1.0
    if labels.sum() == m:
        labels[0] = 0.0
    return scores, labels


class TestAuc:
    def test_perfect_ranking(self):
        assert metrics.auc(np.array([0.9, 0.1]), np.array([1.0, 0.0])) == 1.0

    def test_all_ties_give_half(self):
        scores = np.full(10, 0.4)
        labels = np.array([1.0] * 4 + [0.0] * 6)
        assert metrics.auc(scores, labels) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        for trial in range(30):
            scores, labels = _random_scored_set(
                rng, int(rng.integers(5, 200)), ties=trial % 2 == 0
            )
            np.testing.assert_allclose(
                metrics.auc(scores, labels),
                _brute_force_auc(scores, labels),
                rtol=0, atol=1e-12,
            )

    def test_single_class_is_an_error(self):
        with pytest.raises(DataFormatError, match="AUC needs"):
            metrics.auc(np.array([0.5, 0.6]), np.array([1.0, 1.0]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scores, labels = _random_scored_set(rng, 60)
            base = metrics.auc(scores, labels)
            np.testing.assert_allclose(
                metrics.auc(scores**2, labels), base, atol=1e-12
            )
            np.testing.assert_allclose(
                metrics.auc(0.5 * scores + 0.25, labels), base, atol=1e-12
            )


@st.composite
def _ranked_sets(draw):
    """Labels, each row's rank among ten score levels, and two strictly
    increasing sets of levels: reading the ranks through one set and
    then the other is a strictly monotone map of the scores."""
    m = draw(st.integers(2, 60))
    ranks = np.array(draw(st.lists(st.integers(0, 9), min_size=m,
                                   max_size=m)))
    labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                    min_size=m, max_size=m)))
    assume(0.0 < labels.sum() < m)
    levels = st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10,
                      unique=True)
    return ranks, labels, np.sort(draw(levels)), np.sort(draw(levels))


@settings(max_examples=200, deadline=None)
@given(case=_ranked_sets())
def test_auc_is_invariant_under_strictly_monotone_maps(case):
    ranks, labels, before, after = case
    assert metrics.auc(after[ranks], labels) == metrics.auc(before[ranks],
                                                            labels)


class TestPrauc:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        assert metrics.prauc(scores, labels) == 1.0

    def test_single_positive_ranked_last(self):
        m = 8
        scores = np.linspace(0.9, 0.1, m)
        labels = np.zeros(m)
        labels[-1] = 1.0
        np.testing.assert_allclose(
            metrics.prauc(scores, labels), 1.0 / m, rtol=1e-12
        )

    def test_matches_threshold_sweep(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            scores, labels = _random_scored_set(rng, int(rng.integers(5, 200)))
            np.testing.assert_allclose(
                metrics.prauc(scores, labels),
                _threshold_sweep_prauc(scores, labels),
                rtol=0, atol=1e-10,
            )

    def test_no_positive_is_an_error(self):
        with pytest.raises(DataFormatError, match="PRAUC needs"):
            metrics.prauc(np.array([0.5, 0.6]), np.array([0.0, 0.0]))

    def test_tie_break_is_deterministic_by_index(self):
        scores = np.array([0.5, 0.5, 0.5])
        labels = np.array([0.0, 1.0, 0.0])
        # tied scores rank by input index: the positive sits at rank 2
        np.testing.assert_allclose(metrics.prauc(scores, labels), 0.5)

    def test_both_metrics_hit_one_iff_strict_separation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scores, labels = _random_scored_set(rng, 50)
            separated = scores[labels == 1.0].min() > scores[
                labels == 0.0
            ].max()
            hits_one = (
                metrics.auc(scores, labels) == 1.0
                and metrics.prauc(scores, labels) == 1.0
            )
            assert separated == hits_one


class TestLogLoss:
    def test_half_scores_give_ln2(self):
        scores = np.full(6, 0.5)
        labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(
            metrics.log_loss(scores, labels), np.log(2.0), rtol=1e-12
        )

    def test_perfect_confident_hits_clip_floor(self):
        scores = np.array([1.0, 0.0, 1.0])
        labels = np.array([1.0, 0.0, 1.0])
        ll = metrics.log_loss(scores, labels)
        assert 0.0 < ll < 2e-6
        np.testing.assert_allclose(ll, -np.log1p(-1e-7), rtol=1e-8)

    def test_agrees_with_model_bce_loss(self):
        rng = np.random.default_rng(24)
        spec = models.LogisticRegression(input_dim=1, l2_coeff=0.0)
        params = np.array([1.0, 0.0])
        for _ in range(20):
            scores = rng.uniform(0.01, 0.99, size=30)
            labels = (rng.random(30) < 0.5).astype(np.float64)
            # a pass-through model: logit(x) = x, so x = logit(score)
            logits = np.log(scores / (1.0 - scores))
            per_sample = [
                models.loss_and_grad(
                    spec, params, np.array([[z]]), np.array([y])
                )[0]
                for z, y in zip(logits, labels)
            ]
            np.testing.assert_allclose(
                metrics.log_loss(scores, labels),
                np.mean(per_sample),
                rtol=1e-12,
            )

    def test_moving_one_score_toward_label_decreases_loss(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            scores, labels = _random_scored_set(rng, 20)
            scores = np.clip(scores, 0.05, 0.95)
            i = int(rng.integers(0, 20))
            moved = scores.copy()
            moved[i] += (0.02 if labels[i] == 1.0 else -0.02)
            assert metrics.log_loss(moved, labels) < metrics.log_loss(
                scores, labels
            )


class TestRi:
    def test_endpoints(self):
        assert metrics.ri(0.5, 0.5, 0.7) == 0.0
        assert metrics.ri(0.7, 0.5, 0.7) == 1.0

    def test_published_values(self):
        np.testing.assert_allclose(
            metrics.ri(0.8411, 0.8353, 0.8419), 0.8788, atol=5e-4
        )
        np.testing.assert_allclose(
            metrics.ri(0.6491, 0.6398, 0.6513), 0.8087, atol=5e-4
        )

    def test_degenerate_denominator_is_undefined(self):
        assert metrics.ri(0.6, 0.5, 0.5 + 5e-10) is None

    def test_lower_is_better_metrics_work_unchanged(self):
        # log-loss improvements: vanilla 0.40 -> method 0.31 vs retrain 0.30
        np.testing.assert_allclose(metrics.ri(0.31, 0.40, 0.30), 0.9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            m_f, m_v, m_r = rng.random(3)
            if abs(m_r - m_v) <= 1e-6:
                continue
            base = metrics.ri(m_f, m_v, m_r)
            scale = float(rng.uniform(0.5, 3.0))
            shift = float(rng.uniform(-1.0, 1.0))
            shifted = metrics.ri(
                scale * m_f + shift, scale * m_v + shift, scale * m_r + shift
            )
            np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestReportContainers:
    def test_ri_block_requires_both_references(self):
        mm = metrics.MethodMetrics(auc=0.8, prauc=0.6, log_loss=0.4)
        assert metrics.ri_block({"vanilla": mm, "ifdfm": mm}) == {}
        block = metrics.ri_block(
            {
                "vanilla": metrics.MethodMetrics(0.80, 0.60, 0.40),
                "retrain": metrics.MethodMetrics(0.84, 0.64, 0.36),
                "ifdfm": metrics.MethodMetrics(0.83, 0.63, 0.37),
            }
        )
        np.testing.assert_allclose(block["ifdfm"]["auc"], 0.75)
        np.testing.assert_allclose(block["ifdfm"]["log_loss"], 0.75)

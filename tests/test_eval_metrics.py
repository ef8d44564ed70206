"""Tests for evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.metrics import (
    accuracy,
    brier_score,
    confusion_matrix,
    labeling_accuracy,
    mask_excluding,
    posterior_agreement,
    roc_auc,
)


class TestAccuracy:
    def test_basic(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0, 1]))


class TestPosteriorAgreement:
    def test_bounds_and_half_overlap(self):
        one_hot = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert posterior_agreement(one_hot, one_hot) == 1.0
        assert posterior_agreement(one_hot, one_hot[::-1]) == 0.0
        assert posterior_agreement(one_hot, np.full((2, 2), 0.5)) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            posterior_agreement(np.ones((2, 2)) / 2, np.ones((3, 2)) / 2)


class TestLabelingAccuracy:
    def test_excludes_dev(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.2, 0.8]])
        truth = np.array([0, 1, 1, 1])
        assert labeling_accuracy(probs, truth) == pytest.approx(0.75)
        assert labeling_accuracy(probs, truth, exclude=np.array([2])) == pytest.approx(1.0)

    def test_mask_excluding(self):
        mask = mask_excluding(5, np.array([1, 3]))
        np.testing.assert_array_equal(mask, [True, False, True, False, True])
        np.testing.assert_array_equal(mask_excluding(3, None), [True] * 3)


class TestConfusion:
    def test_matrix(self):
        cm = confusion_matrix(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_diagonal_sum_is_correct_count(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, 50)
        pred = rng.integers(0, 3, 50)
        cm = confusion_matrix(pred, truth, 3)
        assert np.trace(cm) == (pred == truth).sum()


class TestBrier:
    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert brier_score(probs, np.array([0, 1])) == pytest.approx(0.0)

    def test_uniform_prediction(self):
        probs = np.full((4, 2), 0.5)
        assert brier_score(probs, np.zeros(4, dtype=np.int64)) == pytest.approx(0.5)


def _naive_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == pytest.approx(1.0)

    def test_inverted(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == pytest.approx(0.0)

    def test_random_is_half(self):
        rng = np.random.default_rng(1)
        scores = rng.random(4000)
        labels = rng.integers(0, 2, 4000)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.05)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_implementation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pytest.approx(_naive_auc(scores, labels))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

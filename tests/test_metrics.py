import math

import numpy as np
import pytest

from smd.metrics import accuracy, ece, metric_triple
from smd.network import nll_loss


class TestAccuracy:
    def test_all_correct_one_hot(self):
        probs = np.eye(4)
        assert accuracy(probs, np.arange(4)) == 1.0

    def test_uniform_ties_break_to_class_zero(self):
        probs = np.full((6, 3), 1.0 / 3.0)
        assert accuracy(probs, np.zeros(6, int)) == 1.0
        assert accuracy(probs, np.ones(6, int)) == 0.0

    def test_three_of_four(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 0, 1, 1])) == 0.75

    def test_accuracy_plus_error_is_one(self, rng):
        probs = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, size=50)
        acc = accuracy(probs, labels)
        err = float((probs.argmax(axis=1) != labels).mean())
        assert acc + err == 1.0


class TestEce:
    def test_confident_and_correct_is_zero(self):
        probs = np.array([[1.0, 0.0]] * 5)
        assert ece(probs, np.zeros(5, int)) == 0.0

    def test_single_sample_gap(self):
        assert ece(np.array([[0.8, 0.2]]), np.array([0])) == pytest.approx(0.2, abs=1e-12)

    def test_perfectly_calibrated_bins(self):
        # bin (0.6, 0.667]: confidence 0.65, accuracy 13/20 = 0.65
        probs = np.array([[0.65, 0.35]] * 20)
        labels = np.array([0] * 13 + [1] * 7)
        assert ece(probs, labels) == pytest.approx(0.0, abs=1e-12)

    def test_bin_edges_right_inclusive(self):
        # confidence exactly 1/15 falls in bin 0, not bin 1; with 2 classes
        # max confidence is >= 0.5, so probe the boundary at 8/15 instead
        conf = 8.0 / 15.0
        probs = np.array([[conf, 1 - conf]])
        assert ece(probs, np.array([0])) == pytest.approx(1 - conf, abs=1e-12)

    def test_bounded_by_one(self, rng):
        probs = rng.dirichlet(np.ones(4), size=100)
        labels = rng.integers(0, 4, size=100)
        assert 0.0 <= ece(probs, labels) <= 1.0


class TestMetricTriple:
    def test_perfect_predictor(self):
        probs = np.eye(3)
        triple = metric_triple(probs, np.arange(3))
        assert list(triple) == ["accuracy", "nll", "ece"]  # the report's metric block order
        assert triple["accuracy"] == 1.0
        assert triple["nll"] == pytest.approx(0.0, abs=1e-9)
        assert triple["ece"] == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_class_labels_all_zero(self):
        probs = np.full((8, 2), 0.5)
        triple = metric_triple(probs, np.zeros(8, int))
        assert triple["accuracy"] == 1.0  # tie-break rule
        assert triple["nll"] == pytest.approx(math.log(2), abs=1e-9)
        assert triple["ece"] == pytest.approx(0.5, abs=1e-9)

    def test_permutation_invariance(self, rng):
        probs = rng.dirichlet(np.ones(3), size=40)
        labels = rng.integers(0, 3, size=40)
        perm = rng.permutation(40)
        a = metric_triple(probs, labels)
        b = metric_triple(probs[perm], labels[perm])
        assert a["accuracy"] == b["accuracy"]
        assert a["nll"] == pytest.approx(b["nll"], abs=1e-12)
        assert a["ece"] == pytest.approx(b["ece"], abs=1e-12)


class TestNllEdgeCases:
    def test_uniform_k_class(self):
        for k in (2, 3, 10):
            probs = np.full((5, k), 1.0 / k)
            assert nll_loss(probs, np.zeros(5, int)) == pytest.approx(math.log(k), abs=1e-9)

    def test_nonnegative_after_clamp(self, rng):
        probs = rng.dirichlet(np.ones(3), size=30)
        assert nll_loss(probs, rng.integers(0, 3, size=30)) >= 0.0

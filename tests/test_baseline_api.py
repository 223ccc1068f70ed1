"""Tests for the shared baseline utilities (numpy k-means etc.)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.api import assign_nearest, kmeans_np, pairwise_sq_dists


class TestPairwise:
    def test_matches_naive(self):
        g = np.random.default_rng(1)
        A, B = g.random((10, 3)), g.random((7, 3))
        d2 = pairwise_sq_dists(A, B)
        naive = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
        assert np.allclose(d2, naive)

    def test_nonnegative(self):
        g = np.random.default_rng(2)
        A = g.random((50, 2)) * 1000
        assert (pairwise_sq_dists(A, A) >= 0).all()

    def test_self_distance_zero(self):
        g = np.random.default_rng(3)
        A = g.random((20, 4))
        assert np.allclose(np.diag(pairwise_sq_dists(A, A)), 0, atol=1e-8)


class TestKMeansNp:
    def test_perfect_blobs(self):
        g = np.random.default_rng(4)
        X = np.vstack([g.normal(c, 0.05, (100, 2)) for c in [(0, 0), (5, 5), (0, 5)]])
        y = np.repeat([0, 1, 2], 100)
        labels, centers = kmeans_np(X, 3, seed=1)
        from repro.metrics.ami import ami

        assert ami(y, labels) == pytest.approx(1.0)
        assert centers.shape == (3, 2)

    def test_deterministic(self):
        g = np.random.default_rng(5)
        X = g.random((100, 2))
        l1, _ = kmeans_np(X, 4, seed=9)
        l2, _ = kmeans_np(X, 4, seed=9)
        assert np.array_equal(l1, l2)

    def test_k_capped_at_n(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels, centers = kmeans_np(X, 5, seed=0)
        assert len(centers) == 2
        assert set(labels) == {0, 1}

    def test_labels_in_range(self):
        g = np.random.default_rng(6)
        X = g.random((50, 3))
        labels, _ = kmeans_np(X, 4, seed=2)
        assert labels.min() >= 0 and labels.max() < 4

    def test_no_empty_clusters_on_separable_data(self):
        g = np.random.default_rng(7)
        X = np.vstack([g.normal(c, 0.1, (50, 2)) for c in [(0, 0), (9, 9)]])
        labels, _ = kmeans_np(X, 2, seed=0)
        assert len(np.unique(labels)) == 2


class TestAssignNearest:
    def test_noise_assigned_to_closest(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [0.2, 0.1], [4.9, 4.9]])
        labels = np.array([0, 0, 1, 1, -1, -1])
        out = assign_nearest(X, labels)
        assert out.tolist() == [0, 0, 1, 1, 0, 1]

    def test_no_noise_passthrough(self):
        X = np.random.default_rng(8).random((10, 2))
        labels = np.arange(10) % 3
        assert np.array_equal(assign_nearest(X, labels), labels)

    def test_all_noise_single_cluster(self):
        X = np.random.default_rng(9).random((10, 2))
        labels = np.full(10, -1)
        out = assign_nearest(X, labels)
        assert (out == 0).all()

    def test_original_labels_not_mutated(self):
        X = np.random.default_rng(10).random((5, 2))
        labels = np.array([0, 1, -1, 0, 1])
        _ = assign_nearest(X, labels)
        assert labels[2] == -1

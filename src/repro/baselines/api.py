"""Shared utilities for the baseline clusterers.

All baselines implement ``labels = algo(X, ...)`` on a dense float array
(rows aligned with the caller's ids) and return integer labels with -1
for noise, matching AdaWave's convention so one harness can score all of
them with AMI.

The numpy k-means here (k-means++ init, Lloyd iterations, seeded) is a
substrate used by DipMeans, STSC, RIC and the harness's noise-assignment
post-pass; the headline "k-means" baseline of the tables is the
Spark-native ``pyspark.ml`` one in ``baselines/kmeans.py``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["kmeans_np", "assign_nearest", "pairwise_sq_dists"]


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) matrix of squared Euclidean distances."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    d = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d, 0.0, out=d)
    return d


def _kmeanspp_init(X: np.ndarray, k: int, g: np.random.Generator) -> np.ndarray:
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[g.integers(n)]
    d2 = pairwise_sq_dists(X, centers[:1]).ravel()
    for i in range(1, k):
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[i] = X[g.choice(n, p=p)]
        d2 = np.minimum(d2, pairwise_sq_dists(X, centers[i : i + 1]).ravel())
    return centers


def kmeans_np(
    X: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = 100,
    n_init: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ init; returns (labels, centers).

    Deterministic in ``seed``; best of ``n_init`` restarts by inertia.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    k = min(k, n)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for r in range(n_init):
        g = np.random.default_rng(seed + 1000 * r)
        centers = _kmeanspp_init(X, k, g)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iter):
            d2 = pairwise_sq_dists(X, centers)
            new_labels = d2.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for j in range(k):
                pts = X[labels == j]
                if len(pts):
                    centers[j] = pts.mean(axis=0)
                else:  # re-seed empty cluster at the farthest point
                    centers[j] = X[d2.min(axis=1).argmax()]
        inertia = float(pairwise_sq_dists(X, centers).min(axis=1).sum())
        if best is None or inertia < best[0]:
            best = (inertia, labels.copy(), centers.copy())
    assert best is not None
    return best[1], best[2]


def assign_nearest(X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Assign label -1 points to the nearest labeled cluster's centroid.

    This is the paper's Table-I post-pass ("run the k-means iteration on
    the final AdaWave result to assign any detected noise objects to a
    'true' cluster"). If everything is noise, one cluster of everything.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    mask = labels >= 0
    if not mask.any():
        return np.zeros_like(labels)
    if mask.all():
        return labels
    ks = np.unique(labels[mask])
    centers = np.vstack([X[labels == j].mean(axis=0) for j in ks])
    d2 = pairwise_sq_dists(X[~mask], centers)
    labels[~mask] = ks[d2.argmin(axis=1)]
    return labels

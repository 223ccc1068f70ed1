"""DipMeans baseline (Kalogeratos & Likas, NIPS 2012), from scratch.

Incremental k-means wrapper that estimates k: starting from k=1, each
cluster is tested for unimodality — every member is a "viewer" whose
vector of distances to the other members gets a dip test; if more than a
``_VIEWER_FRAC`` share of viewers see multimodality (p <= ``_ALPHA``), the
cluster is a split candidate. The candidate with the highest share is
split in two (2-means on its members) and the process repeats until no
candidate remains.

Distances within large clusters are subsampled (``_MAX_VIEWERS`` viewers,
``_MAX_TARGETS`` targets) to keep the O(|c|^2) dip stage bounded; this is
an implementation cap, not an algorithmic change.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.api import kmeans_np, pairwise_sq_dists
from repro.stats.dip import dip_pvalue, dip

__all__ = ["dipmeans"]

_ALPHA = 0.01  # dip-test significance level per viewer
_VIEWER_FRAC = 0.01  # split when more than this share of viewers sees multimodality
_MAX_VIEWERS = 100
_MAX_TARGETS = 500


def _split_score(members: np.ndarray, g: np.random.Generator) -> float:
    """Fraction of sampled viewers whose distance vector is multimodal."""
    m = len(members)
    if m < 8:
        return 0.0
    viewers = members if m <= _MAX_VIEWERS else members[g.choice(m, _MAX_VIEWERS, replace=False)]
    targets = members if m <= _MAX_TARGETS else members[g.choice(m, _MAX_TARGETS, replace=False)]
    d2 = pairwise_sq_dists(viewers, targets)
    hits = 0
    for row in np.sqrt(d2):
        if dip_pvalue(dip(row), row.size) <= _ALPHA:
            hits += 1
    return hits / len(viewers)


def dipmeans(X: np.ndarray, *, max_k: int = 20, seed: int = 23) -> np.ndarray:
    """Cluster with automatically estimated k; labels 0..k-1 (no noise)."""
    X = np.asarray(X, dtype=np.float64)
    g = np.random.default_rng(seed)
    labels = np.zeros(len(X), dtype=np.int64)
    k = 1
    while k < max_k:
        scores = [_split_score(X[labels == j], g) for j in range(k)]
        j_best = int(np.argmax(scores))
        if scores[j_best] <= _VIEWER_FRAC:
            break
        # split cluster j_best with 2-means, then refine globally
        idx = np.flatnonzero(labels == j_best)
        sub, _ = kmeans_np(X[idx], 2, seed=seed + k)
        labels[idx[sub == 1]] = k
        k += 1
        labels, _ = kmeans_np(X, k, seed=seed)  # global refinement
    return labels

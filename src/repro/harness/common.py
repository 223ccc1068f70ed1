"""Shared experiment runner: one entry point per algorithm of the paper.

``run_algo(spark, algo, X, y, ...)`` runs a named algorithm and returns
``(labels, seconds)``. Conventions shared by all experiments:

- AdaWave runs its row-sized steps in Spark and its grid-sized steps on
  the driver; k-means/EM run on Spark MLlib; the remaining comparators
  are the from-scratch numpy implementations.
- O(n^2)-ish comparators are fitted on a capped subsample and extended to
  the remaining points by nearest labeled neighbour (``_CAPS`` below,
  logged via the returned ``capped`` flag) — the paper ran the authors'
  single-node implementations, we care about the comparative shape.
- The correct k is supplied to k-means/EM/STSC exactly where the paper
  does ("we similarly set the correct k ... to ensure the best AMI").
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.api import assign_nearest
from repro.baselines.dbscan import dbscan_sweep
from repro.baselines.dipmeans import dipmeans
from repro.baselines.em import em_spark
from repro.baselines.kmeans import kmeans_spark
from repro.baselines.ric import ric
from repro.baselines.skinnydip import skinnydip
from repro.baselines.stsc import stsc
from repro.core.adawave import adawave, auto_params
from repro.datasets.synthetic import to_spark

__all__ = ["ALGORITHMS", "run_algo", "AlgoResult"]

# fit-size caps for the super-linear comparators (see DESIGN.md § 5 /
# EXPERIMENTS.md "caps"): algorithm -> max points fitted directly.
# DBSCAN's cap is dimension-dependent: the d<=3 grid path is near-linear,
# and subsampling would *change its answer* — thinning the data lowers
# the noise density below the percolation point, hiding exactly the
# collapse the paper reports at high noise percentages.
_CAPS = {
    "dbscan": 20_000,  # d > 3 (chunked O(n^2) brute force); 100k for d <= 3
    "skinnydip": 50_000,
    "dipmeans": 8_000,
    "stsc": 20_000,  # stsc additionally subsamples to 2000 internally
    "ric": 20_000,
}


def _cap_for(algo: str, d: int) -> int | None:
    if algo == "dbscan" and d <= 3:
        return 100_000
    return _CAPS.get(algo)

ALGORITHMS = ("adawave", "skinnydip", "dbscan", "em", "kmeans", "stsc", "dipmeans", "ric")


@dataclass
class AlgoResult:
    labels: np.ndarray
    seconds: float
    capped: bool = False


def _extend_labels(X: np.ndarray, sample: np.ndarray, sub_labels: np.ndarray) -> np.ndarray:
    """1-NN extension of labels fitted on X[sample] to every row of X."""
    labels = np.empty(len(X), dtype=np.int64)
    labels[sample] = sub_labels
    rest = np.setdiff1d(np.arange(len(X)), sample)
    S = X[sample]
    ss = (S * S).sum(axis=1)
    for s in range(0, len(rest), 4096):
        chunk = rest[s : s + 4096]
        B = X[chunk]
        d2 = (B * B).sum(axis=1)[:, None] + ss[None, :] - 2.0 * (B @ S.T)
        labels[chunk] = sub_labels[d2.argmin(axis=1)]
    return labels


def run_algo(
    spark: SparkSession,
    algo: str,
    X: np.ndarray,
    y: np.ndarray,
    *,
    k_true: int,
    eval_mask: np.ndarray | None = None,
    assign_noise: bool = False,
    seed: int = 0,
    adawave_kwargs: dict | None = None,
) -> AlgoResult:
    """Run one algorithm; returns labels aligned to rows of X and wall time.

    ``eval_mask`` is forwarded to DBSCAN's eps sweep (its selection metric
    must match the experiment's). ``assign_noise=True`` applies the
    paper's Table-I post-pass mapping noise labels to the nearest cluster.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = len(X)
    cap = _cap_for(algo, X.shape[1])
    capped = cap is not None and n > cap
    g = np.random.default_rng(seed + 97)
    sample = np.sort(g.choice(n, cap, replace=False)) if capped else np.arange(n)
    Xs, ys = X[sample], y[sample]

    t0 = time.perf_counter()
    if algo == "adawave":
        df = to_spark(spark, X)
        feats = [f"x{j}" for j in range(X.shape[1])]
        kw = adawave_kwargs or {}
        d = X.shape[1]
        if "scale" in kw or d <= 4:
            candidates = [kw.pop("scale", None)] if "scale" in kw else [None]
        else:
            # mid/high-d small-data regime: the right grid granularity
            # depends on the (unknown) class spread — try the auto scale
            # and its power-of-two neighbours, keep whichever resolves the
            # most clusters (an unsupervised criterion: a too-coarse grid
            # merges classes, a too-fine one shatters them into pruned dust)
            auto_scale = auto_params(d, n)[0]
            candidates = sorted({max(2, auto_scale // 2), auto_scale, auto_scale * 2})
        best = None
        for sc in candidates:
            out, model = adawave(df, feats, scale=sc, keep_model=True, **kw)
            if best is None or model.n_clusters > best[1].n_clusters:
                best = (out, model)
        out = best[0]
        pdf = out.select("id", "cluster").toPandas().sort_values("id")
        labels = pdf["cluster"].to_numpy(dtype=np.int64)
    elif algo == "kmeans":
        labels = kmeans_spark(spark, X, k_true, seed=seed + 7)
    elif algo == "em":
        labels = em_spark(spark, X, k_true, seed=seed + 11)
    elif algo == "dbscan":
        em_ = None if eval_mask is None else eval_mask[sample]
        # the paper's eps grid {0.01..0.2} presumes unit-scaled data; map
        # each dimension to [0,1] and widen the grid with dimensionality
        # (unit-cube diameters grow as sqrt(d))
        lo, hi = Xs.min(axis=0), Xs.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        Xn = (Xs - lo) / span
        eps_grid = np.arange(0.01, 0.201, 0.01) * np.sqrt(max(1.0, X.shape[1] / 2.0))
        sub, _eps, _score = dbscan_sweep(Xn, ys, eval_mask=em_, eps_grid=eps_grid)
        labels = _extend_labels(X, sample, sub) if capped else sub
    elif algo == "skinnydip":
        sub = skinnydip(Xs)
        labels = _extend_labels(X, sample, sub) if capped else sub
    elif algo == "stsc":
        sub = stsc(Xs, seed=seed + 31)
        labels = _extend_labels(X, sample, sub) if capped else sub
    elif algo == "dipmeans":
        sub = dipmeans(Xs, seed=seed + 23)
        labels = _extend_labels(X, sample, sub) if capped else sub
    elif algo == "ric":
        sub = ric(Xs, seed=seed + 41)
        labels = _extend_labels(X, sample, sub) if capped else sub
    else:
        raise ValueError(f"unknown algorithm {algo!r}; known: {ALGORITHMS}")
    seconds = time.perf_counter() - t0

    if assign_noise and (labels < 0).any():
        labels = assign_nearest(X, labels)
    return AlgoResult(labels=labels, seconds=seconds, capped=capped)

"""Fig. 10: runtime growth with dataset size at 75 % noise.

The paper compares its Python AdaWave against R/Java baselines and says
to read only the *asymptotic trends*; we do the same within one process:
AdaWave (Spark), k-means (MLlib), EM (MLlib), DBSCAN (ours, one eps, no
sweep — the sweep is an accuracy protocol, not a runtime one) and
SkinnyDip (ours). n is scaled by inflating the five synthetic clusters
with the noise percentage fixed at 75 %, exactly the paper's protocol.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.dbscan import dbscan
from repro.baselines.skinnydip import skinnydip
from repro.datasets.synthetic import paper_synthetic
from repro.harness.common import run_algo

__all__ = ["run_fig10", "DEFAULT_SIZES"]

DEFAULT_SIZES = (8_000, 16_000, 32_000, 64_000)
FIG10_ALGOS = ("adawave", "kmeans", "em", "dbscan", "skinnydip")


def _fit_seconds(
    spark: SparkSession, algo: str, X: np.ndarray, y: np.ndarray, seed: int
) -> float:
    """Wall-clock seconds of one fit of ``algo`` on ``X``.

    DBSCAN and SkinnyDip are called directly with one fixed setting:
    ``run_algo``'s eps sweep and fit-size caps belong to the accuracy
    protocol, and would time a different amount of work at each n.
    """
    if algo not in ("dbscan", "skinnydip"):
        return run_algo(spark, algo, X, y, k_true=5, seed=seed).seconds
    t0 = time.perf_counter()
    if algo == "dbscan":
        dbscan(X, eps=0.02, min_pts=8)
    else:
        skinnydip(X)
    return time.perf_counter() - t0


def run_fig10(
    spark: SparkSession,
    *,
    total_sizes: tuple[int, ...] = DEFAULT_SIZES,
    algorithms: tuple[str, ...] = FIG10_ALGOS,
    gamma: float = 0.75,
    seed: int = 0,
) -> pd.DataFrame:
    """One row per (n, algorithm) with wall-clock seconds."""
    rows = []
    for i, n_total in enumerate(total_sizes):
        n_per_cluster = max(1, int(n_total * (1 - gamma) / 5))
        X, y = paper_synthetic(gamma, n_per_cluster=n_per_cluster, seed=seed)
        if i == 0:
            # Warm-up: one untimed fit of every algorithm on the first
            # size's data, so JVM/codegen start-up and each MLlib
            # estimator's first call land in no timed call.
            for algo in algorithms:
                _fit_seconds(spark, algo, X, y, seed)
        for algo in algorithms:
            secs = _fit_seconds(spark, algo, X, y, seed)
            rows.append({"n": len(X), "algorithm": algo, "seconds": round(secs, 3)})
    return pd.DataFrame(rows)

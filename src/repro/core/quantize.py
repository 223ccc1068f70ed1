"""Step 1 of AdaWave: quantize the feature space into a sparse grid.

This is the "grid labeling" data structure of the paper (Section IV-A):
only cells with non-zero density are materialized, which is what lets the
algorithm scale past 2-3 dimensions. In Spark it is a pure Catalyst plan:
one aggregate for the row count and the min/max of every dimension, a
projection computing the integer cell coordinate per dimension, and a
``groupBy(cells).count()``.

The per-object cell coordinates are also returned (``assign_cells``) —
AdaWave's final step joins cluster labels back onto them.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.wavelet import cell_cols

__all__ = ["GridSpec", "fit_grid", "assign_cells", "grid_densities"]


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension [min, max] bounds plus the number of intervals.

    ``n_rows`` is the row count the bounds were fitted on (None for a
    hand-built spec). Bounds fitted on no rows are NaN.
    """

    features: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    scale: int
    n_rows: int | None = None

    @property
    def d(self) -> int:
        return len(self.features)

    def width(self, j: int) -> float:
        span = self.maxs[j] - self.mins[j]
        # A constant dimension still needs a non-zero cell width.
        return (span if span > 0 else 1.0) / self.scale


def fit_grid(
    df: DataFrame, features: list[str], scale: int | Callable[[int], int]
) -> GridSpec:
    """Row count and per-dimension bounds with a single aggregate pass.

    ``scale`` is the number of intervals, or a rule that picks it from the
    row count.
    """
    if not features:
        raise ValueError("no feature columns given")
    aggs = [F.count(F.lit(1)).alias("n")]
    for f in features:
        aggs += [F.min(f).alias(f"min_{f}"), F.max(f).alias(f"max_{f}")]
    row = df.agg(*aggs).first()
    n = int(row["n"])
    if callable(scale):
        scale = scale(n)
    if scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    # the min/max of no rows is NULL
    mins = tuple(math.nan if n == 0 else float(row[f"min_{f}"]) for f in features)
    maxs = tuple(math.nan if n == 0 else float(row[f"max_{f}"]) for f in features)
    return GridSpec(tuple(features), mins, maxs, scale, n)


def assign_cells(df: DataFrame, spec: GridSpec) -> DataFrame:
    """Add integer cell-coordinate columns ``c0..c{d-1}`` to ``df``.

    The right-open interval convention of the paper means the maximum value
    of a dimension would land in cell ``scale``; it is clamped into the last
    cell, matching WaveCluster.
    """
    out = df
    for j, f in enumerate(spec.features):
        cell = F.floor((F.col(f) - F.lit(spec.mins[j])) / F.lit(spec.width(j)))
        cell = F.least(F.greatest(cell, F.lit(0)), F.lit(spec.scale - 1))
        out = out.withColumn(f"c{j}", cell.cast("int"))
    return out


def grid_densities(cells: DataFrame, d: int) -> DataFrame:
    """Sparse grid: one row per occupied cell with its object count."""
    return (
        cells.groupBy(*cell_cols(d))
        .agg(F.count(F.lit(1)).cast("double").alias("density"))
    )

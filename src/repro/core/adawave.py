"""AdaWave: adaptive wavelet clustering (the paper's core contribution).

Pipeline (paper Algorithm 1): the N-sized steps run in Spark, the grid-sized
steps (M ≪ N occupied cells) on the driver.

1. quantize the feature space into a sparse grid  (`core.quantize`, Spark;
   the grid is collected once)
2. low-pass DWT of the sparse grid                (`core.wavelet`, driver)
3. drop near-zero coefficients, then adaptively threshold the sorted
   density curve ("elbow theory")                 (`core.threshold`, driver)
4. connected components over surviving cells      (`core.components`, driver)
5. lookup table: transformed cell -> label, original cell -> transformed
   cell is ``c >> levels``; labels join back onto the objects  (Spark)

One fit runs two Spark actions on its input — the row count and bounds
aggregate, and the grid collect; the label join runs with the caller's
action on the result.

There is one configuration per dimensionality (the paper's notion of
"parameter-free"): `auto_params` picks the grid scale, the levels and the
wavelet — `scale=128` and CDF(2,2) for the 2-D experiments; coarser grids
and the fanout-1 Haar filter for higher d, because an L-tap filter
multiplies the sparse-cell count by up to ceil(L/2) per dimension pass.
Only the scale can be overridden.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.components import connected_components
from repro.core.quantize import GridSpec, assign_cells, fit_grid, grid_densities
from repro.core.threshold import elbow_threshold
from repro.core.wavelet import cell_cols, dwt_sparse

__all__ = ["AdaWaveModel", "adawave", "auto_params"]

_EPS_COEF = 1e-9  # "wavelet coefficients close to zero" cutoff (paper step 2)
# components with less than this share of the surviving density mass are
# folded back into noise (see `adawave`)
_MIN_COMPONENT_FRAC = 0.02


def auto_params(d: int, n: int | None = None) -> tuple[int, int, str]:
    """(scale, levels, wavelet) defaults by dimensionality and data size.

    2-D uses the paper's default scale=128 with a one-level CDF(2,2)
    transform — shrunk towards sqrt(n) when the dataset is small, so cell
    densities stay statistically meaningful (with the paper's ~30k-point
    benchmark this stays exactly 128). Higher dimensions use coarser grids
    (cell count would otherwise exceed the point count) and Haar, whose
    fanout of one keeps the sparse transform size bounded by the input.
    """
    if d <= 2:
        scale = 128
        if n is not None and n > 0:
            # round *up*: a too-fine grid degrades gracefully (sparser
            # cells), a too-coarse one merges adjacent clusters outright
            scale = int(min(128, max(16, 2 ** int(np.ceil(np.log2(max(4.0, np.sqrt(n))))))))
        return scale, 1, "cdf2.2"
    if d <= 4:
        return 16, 1, "haar"
    if d <= 10:
        # more data supports a finer grid: occupied-cell count is bounded
        # by n, and the finer grid resolves offsets the coarse one merges;
        # with only a few hundred points, cells must stay coarse or every
        # point becomes its own cell
        n_ = n or 0
        return (16 if n_ >= 5000 else 8 if n_ >= 500 else 4), 1, "haar"
    return 4, 1, "haar"


@dataclass
class AdaWaveModel:
    """Everything AdaWave derived from the data, for inspection/tests."""

    spec: GridSpec
    scale: int
    levels: int
    wavelet: str
    threshold: float
    n_clusters: int
    n_grid_cells: int
    n_transformed_cells: int
    n_kept_cells: int
    densities_sorted: np.ndarray = field(repr=False)


def adawave(
    df: DataFrame,
    features: list[str],
    *,
    scale: int | None = None,
    keep_model: bool = False,
) -> DataFrame | tuple[DataFrame, AdaWaveModel]:
    """Cluster ``df`` on ``features``; returns ``df`` + ``cluster`` column.

    Noise objects get cluster ``-1``; clusters are labeled ``0..k-1`` in
    first-appearance order of their cells in the lexicographically sorted
    grid collection (deterministic). Surviving cells are connected with
    Chebyshev adjacency for d <= 3 and face adjacency above that. Components
    carrying less than 2 % of the surviving density mass are folded back
    into noise — the grid-level analogue of the paper's "further eliminate the
    noise grids" (randomness in dense noise always leaves a few isolated
    above-threshold cells; the paper reports exactly 5+noise clusters, so
    its implementation necessarily prunes these too). An empty ``df`` gives
    an empty result and no clusters. ``scale`` overrides the grid scale;
    the levels and the wavelet always come from :func:`auto_params`. With
    ``keep_model=True`` also returns the fitted :class:`AdaWaveModel`.
    """
    d = len(features)
    _, levels, wavelet = auto_params(d)

    # -- step 1: quantize (Spark), then collect the sparse grid ------------
    spec = fit_grid(
        df, features, scale if scale is not None else lambda n: auto_params(d, n)[0]
    )
    cells = assign_cells(df, spec)
    gpdf = grid_densities(cells, d).toPandas()
    tcols = cell_cols(d)
    coords, grid_dens = gpdf[tcols].to_numpy(), gpdf["density"].to_numpy()
    del gpdf  # free the frame before the transform: it bounds driver peak RSS
    n_grid = len(grid_dens)

    # -- steps 2-3 (driver): transform, coefficient denoising, adaptive
    # threshold ------------------------------------------------------------
    tcoords, tdens = dwt_sparse(coords, grid_dens, wavelet, levels)
    n_transformed = len(tdens)
    nonzero = tdens > _EPS_COEF
    tcoords, tdens = tcoords[nonzero], tdens[nonzero]
    dens = np.sort(tdens)[::-1].copy()
    # 2-D noisy grids have a dominant signal/noise corner (stage 1); coarse
    # high-d grids have no uniform-noise plateau, and the first corner would
    # amputate minority clusters — cut at the second, gentler corner instead
    # (the paper's literal three-segment read)
    t = elbow_threshold(dens, stage=1 if d <= 2 else 2)
    keep = tdens > t
    # rows stay lexsorted as dwt_sparse returns them: label numbering
    # follows that order, so it is deterministic
    kcoords, kdens = tcoords[keep], tdens[keep]

    # -- step 4: connected components over surviving cells -----------------
    if len(kcoords):
        labels = connected_components(kcoords)
        # prune spurious micro-components back into noise, by density mass
        # (not cell count: a legitimate cluster may occupy one cell when the
        # grid is coarse, but it carries a large share of the total mass)
        mass = np.zeros(int(labels.max()) + 1)
        np.add.at(mass, labels, kdens)
        ok = mass[labels] >= _MIN_COMPONENT_FRAC * mass.sum()
        kcoords = kcoords[ok]
        _, labels = np.unique(labels[ok], return_inverse=True)
        n_clusters = int(labels.max()) + 1 if len(labels) else 0
    else:
        labels = np.array([], dtype=np.int64)
        n_clusters = 0

    # -- step 5: lookup table + label join (distributed) -------------------
    shift = 2**levels
    mapped = cells
    for cj in tcols:
        mapped = mapped.withColumn(f"t_{cj}", (F.col(cj) / shift).cast("long"))
    if len(labels):
        lut = pd.DataFrame(kcoords, columns=tcols).assign(__cl=labels)
        lut = df.sparkSession.createDataFrame(lut)
        cond = [mapped[f"t_{cj}"] == lut[cj] for cj in tcols]
        joined = mapped.join(lut, cond, "left")
        labeled = joined.withColumn(
            "cluster", F.coalesce(F.col("__cl"), F.lit(-1)).cast("long")
        )
    else:
        labeled = mapped.withColumn("cluster", F.lit(-1).cast("long"))
    drop = [f"t_{cj}" for cj in tcols] + tcols + ["__cl"]
    out = labeled.drop(*[c for c in drop if c in labeled.columns])

    if not keep_model:
        return out
    model = AdaWaveModel(
        spec=spec,
        scale=spec.scale,
        levels=levels,
        wavelet=wavelet,
        threshold=float(t),
        n_clusters=n_clusters,
        n_grid_cells=n_grid,
        n_transformed_cells=n_transformed,
        n_kept_cells=len(kcoords),
        densities_sorted=dens,
    )
    return out, model

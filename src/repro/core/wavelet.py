"""Wavelet filter banks and the sparse d-dimensional low-pass DWT.

AdaWave only ever keeps the *average* subband (the LL…L approximation), so
the transform reduces to: convolve with the low-pass analysis filter and
downsample by 2, once per (dimension x level) — Mallat's algorithm
restricted to the scale space. The container has no PyWavelets, so the
analysis low-pass coefficients are hard-coded from the literature.

Two implementations, cross-checked in tests:

- :func:`dwt_dense` — numpy reference on a dense d-dim density array.
- :func:`dwt_sparse` — the production path on the sparse ``{cell: density}``
  grid, on the driver in numpy: per (dimension x level) each non-zero cell
  is spread over the filter taps, taps whose output index is non-integral
  are dropped (the downsample-by-2 parity check), and contributions to the
  same output cell are summed. The grid has M ≪ N cells (one per occupied
  cell), so it is collected once and transformed without Spark.

Filters are center-aligned so that the dominant tap maps original cell
``i`` to transformed cell ``floor(i / 2)`` — which is exactly the lookup
table AdaWave needs to map objects back from the transformed space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Wavelet", "WAVELETS", "get_wavelet", "dwt_dense", "dwt_sparse", "cell_cols"]

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class Wavelet:
    """A low-pass analysis filter with a center tap for phase alignment.

    ``taps[center]`` is the tap that keeps cell ``i`` at output ``i // 2``;
    output index for tap ``m`` is ``(i + center - m) / 2`` when integral.
    """

    name: str
    taps: tuple[float, ...]
    center: int

    @property
    def max_fanout(self) -> int:
        """Upper bound on output cells one input cell can touch per pass."""
        return (len(self.taps) + 1) // 2


WAVELETS: dict[str, Wavelet] = {
    # Haar: the only filter with fanout 1 — mandatory for high-d data,
    # since fanout^d otherwise blows up the sparse grid.
    "haar": Wavelet("haar", (1.0 / _SQRT2, 1.0 / _SQRT2), 0),
    # Daubechies-2 (4-tap). "Daubechies" in the paper's Section IV-B.
    "db2": Wavelet(
        "db2",
        (
            (1 + np.sqrt(3.0)) / (4 * _SQRT2),
            (3 + np.sqrt(3.0)) / (4 * _SQRT2),
            (3 - np.sqrt(3.0)) / (4 * _SQRT2),
            (1 - np.sqrt(3.0)) / (4 * _SQRT2),
        ),
        1,
    ),
    # Cohen-Daubechies-Feauveau (2,2): the 5/3 LeGall analysis low-pass.
    "cdf2.2": Wavelet(
        "cdf2.2",
        (
            -0.125 * _SQRT2,
            0.25 * _SQRT2,
            0.75 * _SQRT2,
            0.25 * _SQRT2,
            -0.125 * _SQRT2,
        ),
        2,
    ),
    # Cohen-Daubechies-Feauveau (4,2): 9-tap analysis low-pass
    # (coefficients as in bior2.4's decomposition filter).
    "cdf4.2": Wavelet(
        "cdf4.2",
        (
            0.033145630368119419 * 1.0,
            -0.066291260736238838 * 1.0,
            -0.17677669529663689 * 1.0,
            0.41984465132951254 * 1.0,
            0.99436891104358249 * 1.0,
            0.41984465132951254 * 1.0,
            -0.17677669529663689 * 1.0,
            -0.066291260736238838 * 1.0,
            0.033145630368119419 * 1.0,
        ),
        4,
    ),
}


def get_wavelet(name: str | Wavelet) -> Wavelet:
    """Resolve a wavelet by name (or pass through a Wavelet instance)."""
    if isinstance(name, Wavelet):
        return name
    try:
        return WAVELETS[name]
    except KeyError:
        raise ValueError(f"unknown wavelet {name!r}; available: {sorted(WAVELETS)}") from None


def cell_cols(d: int) -> list[str]:
    """Canonical names of the grid-coordinate columns for d dimensions."""
    return [f"c{i}" for i in range(d)]


def _dwt_dense_1d(
    a: np.ndarray, w: Wavelet, axis: int, origin: int
) -> tuple[np.ndarray, int]:
    """Low-pass + downsample along one axis of a dense array (zero padding).

    ``origin`` is the true grid coordinate of array index 0 on this axis —
    it must be carried across levels because the downsample-by-2 parity is
    defined on *coordinates*, not array indices (the sparse path works
    in coordinates natively). Returns (array, new origin).
    """
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    coords = origin + np.arange(n)
    # reachable output coordinates: k = (i + center - m) / 2, parity-valid;
    # the smallest is ceil((first_coord + center - (L-1)) / 2)
    lo = int(coords[0]) + w.center - (len(w.taps) - 1)
    k_min = -((-lo) // 2)
    k_max = (int(coords[-1]) + w.center) // 2
    out = np.zeros((k_max - k_min + 1,) + a.shape[1:], dtype=np.float64)
    for idx, i in enumerate(coords):
        for m, h in enumerate(w.taps):
            num = int(i) + w.center - m
            if num % 2 == 0:
                k = num // 2
                if k_min <= k <= k_max:
                    out[k - k_min] += h * a[idx]
    return np.moveaxis(out, 0, axis), k_min


def dwt_dense(
    a: np.ndarray, wavelet: str | Wavelet = "haar", levels: int = 1
) -> np.ndarray:
    """Reference d-dim approximation-subband DWT on a dense density array.

    Returns only the density values (the coordinate origin of index 0 is
    internal); tests compare value multisets against the sparse path.
    """
    w = get_wavelet(wavelet)
    out = np.asarray(a, dtype=np.float64)
    origins = [0] * out.ndim
    for _ in range(levels):
        for axis in range(out.ndim):
            out, origins[axis] = _dwt_dense_1d(out, w, axis, origins[axis])
    return out


def _sum_duplicates(coords: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge equal rows of ``coords``, summing their ``values``; rows come out sorted."""
    if not len(coords):
        return coords, values
    # lexsort + run boundaries, not np.unique(axis=0): on a 154k-cell 6-d
    # grid the unique-based kernel took 2.4 s (vs 0.5 s) and raised the
    # driver's peak RSS by about 27 %.
    order = np.lexsort(coords.T[::-1])
    coords, values = coords[order], values[order]
    starts = np.flatnonzero(np.r_[True, (coords[1:] != coords[:-1]).any(axis=1)])
    return coords[starts], np.add.reduceat(values, starts)


def dwt_sparse(
    coords: np.ndarray,
    density: np.ndarray,
    wavelet: str | Wavelet = "haar",
    levels: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse approximation-subband DWT of a quantized grid.

    ``coords`` is an (M, d) integer array of distinct occupied cells and
    ``density`` their (M,) densities. Returns the transformed grid in the
    same form, rows sorted lexicographically, coordinates in ``coords``'
    dtype. Transformed coordinates relate to originals by
    ``t_j = c_j >> levels`` for the dominant tap (the lookup-table mapping).
    """
    w = get_wavelet(wavelet)
    out_c = np.asarray(coords)
    out_v = np.asarray(density, dtype=np.float64)
    for _ in range(levels):
        for j in range(out_c.shape[1]):
            num = out_c[:, j] + w.center
            parts_c, parts_v = [], []
            for m, h in enumerate(w.taps):
                sel = (num - m) % 2 == 0
                c = out_c[sel]
                c[:, j] = (num[sel] - m) // 2
                parts_c.append(c)
                parts_v.append(out_v[sel] * h)
            out_c, out_v = _sum_duplicates(np.concatenate(parts_c), np.concatenate(parts_v))
    return out_c, out_v

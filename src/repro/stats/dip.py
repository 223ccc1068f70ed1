"""Hartigan & Hartigan (1985) dip test of unimodality, from scratch.

The container has no scipy/diptest, so this is a 0-indexed Python port of
the classic Fortran/C algorithm (Hartigan's AS 217 as revised in Martin
Maechler's ``diptest`` package): the dip statistic is the maximum
difference between the empirical CDF and the closest unimodal CDF,
computed exactly via greatest-convex-minorant / least-concave-majorant
fits over a shrinking modal interval.

``dip(x)`` returns the statistic; ``diptest(x)`` also returns a p-value
against the uniform null and the modal interval — both of which SkinnyDip
and DipMeans need.

The null distribution is a committed table, as R's ``diptest`` ships
``qDiptab``: ``dip_null.npy`` holds, for each reference size in
``_REF_SIZES``, the sorted dips of ``_N_BOOT`` uniform samples drawn by
:func:`_boot_table`. It is loaded once at import. Regenerate it with::

    PYTHONPATH=src python -c "import numpy as np, repro.stats.dip as m; np.save(m._NULL_PATH, np.stack([m._boot_table(n) for n in m._REF_SIZES]))"
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["dip", "diptest", "dip_pvalue"]

_REF_SIZES = (50, 200, 1000, 4000)
_N_BOOT = 1000
_SEED = 17
_NULL_PATH = Path(__file__).with_name("dip_null.npy")
# row i: the sorted null dips at sample size _REF_SIZES[i]
_NULL = np.load(_NULL_PATH)


def dip(x: np.ndarray, *, sort: bool = True) -> float:
    """Dip statistic of a 1-D sample. Always in [1/(2n), 0.25]."""
    d, _, _ = _dip_full(np.asarray(x, dtype=np.float64), sort=sort)
    return d


def diptest(x: np.ndarray, *, sort: bool = True) -> tuple[float, float, tuple[int, int]]:
    """Return ``(dip, p_value, (lo, hi))``.

    ``(lo, hi)`` are indices into the *sorted* sample delimiting the modal
    interval the algorithm converged to. The p-value is the fraction of
    same-size uniform samples whose dip is at least as large (the committed
    null table, see :func:`dip_pvalue`).
    """
    xs = np.asarray(x, dtype=np.float64)
    d, lo, hi = _dip_full(xs, sort=sort)
    return d, dip_pvalue(d, xs.size), (lo, hi)


def dip_pvalue(d: float, n: int) -> float:
    """P-value of a dip value for sample size n under uniformity.

    The null table holds exact simulated dips only at a few reference
    sizes; other sizes use the asymptotic sqrt(n)-scaling of the dip
    distribution (dip * sqrt(n) converges in law — the same interpolation
    R's ``dip.test``/qDiptab relies on) from the nearest size in log scale.
    """
    if n < 4:
        return 1.0
    i = int(np.argmin(np.abs(np.log(_REF_SIZES) - np.log(n))))
    table = _NULL[i]
    idx = np.searchsorted(table, d * np.sqrt(n / _REF_SIZES[i]), side="left")
    return float((table.size - idx) / table.size)


def _boot_table(n: int) -> np.ndarray:
    """Sorted dips of ``_N_BOOT`` uniform samples of size n: one null-table row.

    The reference generator of ``dip_null.npy`` (about 30 s of pure Python
    on one core at n = 4000); nothing calls it at run time.
    """
    g = np.random.default_rng(_SEED + n)
    u = g.random((_N_BOOT, n))
    u.sort(axis=1)
    return np.sort(np.array([_dip_full(row, sort=False)[0] for row in u]))


def _dip_full(x: np.ndarray, *, sort: bool = True) -> tuple[float, int, int]:
    """Core algorithm. Returns (dip, low, high) with low/high sorted-indices."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    if n < 1:
        raise ValueError("dip of empty sample")
    if sort:
        x = np.sort(x, kind="mergesort")
    if n <= 3 or x[0] == x[n - 1]:
        # Degenerate: the lower bound of the statistic.
        return (0.0 if n == 1 else 1.0 / (2.0 * n)), 0, n - 1

    low, high = 0, n - 1
    dip_value = 1.0 / (2.0 * n)

    # mn[j]: rightmost index < j joined to j on the greatest convex minorant.
    mn = np.zeros(n, dtype=np.int64)
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            mnmnj = mn[mnj]
            if mnj == 0 or (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj

    # mj[k]: leftmost index > k joined to k on the least concave majorant.
    mj = np.zeros(n, dtype=np.int64)
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            mjmjk = mj[mjk]
            if mjk == n - 1 or (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    gcm = np.zeros(n, dtype=np.int64)
    lcm = np.zeros(n, dtype=np.int64)

    while True:
        # Change points of the GCM from high down to low.
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        l_gcm = i + 1  # number of valid entries in gcm
        ig = l_gcm - 1
        ix = l_gcm - 2

        # Change points of the LCM from low up to high.
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        l_lcm = i + 1
        ih = l_lcm - 1
        iv = 1

        # Largest distance between the GCM and the LCM within [low, high].
        d = 0.0
        if l_gcm != 2 or l_lcm != 2:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    # next change point is on the LCM
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (x[lcmiv] - x[gcmi1]) * (gcmix - gcmi1) / (
                        x[gcmix] - x[gcmi1]
                    )
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    # next change point is on the GCM
                    lcmiv1 = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmiv1]) * (lcmiv - lcmiv1) / (x[lcmiv] - x[lcmiv1]) - (
                        gcmix - lcmiv1 - 1
                    )
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm - 1:
                    iv = l_lcm - 1
                if gcm[ix] == lcm[iv]:
                    break
        else:
            d = 1.0

        if d < dip_value * 2.0 * n:
            break

        # Max deviation of the empirical CDF below the GCM chords in
        # [gcm[l_gcm-1] .. gcm[ig]] ...
        dip_l = 0.0
        for j in range(ig, l_gcm - 1):
            max_t = 1.0
            jb = gcm[j + 1]
            je = gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                C = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * C
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t

        # ... and above the LCM chords in [lcm[ih] .. lcm[l_lcm-1]].
        dip_u = 0.0
        for j in range(ih, l_lcm - 1):
            max_t = 1.0
            jb = lcm[j]
            je = lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                C = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * C - (jj - jb - 1)
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        dip_new = max(dip_l, dip_u) / (2.0 * n)
        if dip_value < dip_new:
            dip_value = dip_new

        new_low = gcm[ig]
        new_high = lcm[ih]
        if low == new_low and high == new_high:
            break
        low, high = int(new_low), int(new_high)

    return float(dip_value), int(low), int(high)

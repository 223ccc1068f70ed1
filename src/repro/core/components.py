"""Step 4 of AdaWave: connected components over surviving grid cells.

After threshold filtering the transformed grid set is small by
construction (M ≪ N — the paper's complexity argument rests on it), so
components are found on the driver with a union-find over a hash set of
cells. The adjacency rule is fixed by the dimensionality:

- d <= 3: Chebyshev, all 3^d - 1 neighbours (8-connectivity in 2-D, as
  WaveCluster uses) — only sensible for small d.
- d > 3: face, cells sharing a (d-1)-face, i.e. coordinates differing by 1
  in exactly one dimension — O(M·d) lookups, usable at any d.

``connected_components`` returns a label per input cell, 0..k-1.
"""
from __future__ import annotations

from itertools import product

import numpy as np

__all__ = ["UnionFind", "connected_components"]


class UnionFind:
    """Array-based disjoint-set with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def connected_components(cells: np.ndarray) -> np.ndarray:
    """Label connected components of a set of integer grid cells.

    ``cells`` is an (M, d) integer array of distinct cell coordinates;
    adjacency is Chebyshev for d <= 3 and face above that. Returns an (M,)
    int array of component labels numbered 0..k-1 in order of first
    appearance (deterministic for a deterministic input order).
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ValueError("cells must be (M, d)")
    m, d = cells.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    index = {tuple(row): i for i, row in enumerate(cells.tolist())}
    if len(index) != m:
        raise ValueError("duplicate cells in input")

    if d <= 3:  # Chebyshev
        offsets = [o for o in product((-1, 0, 1), repeat=d) if any(o) and o > tuple([0] * d)]
        # only "positive" half of the offsets: each pair checked once
    else:  # face
        offsets = [tuple(int(i == j) for i in range(d)) for j in range(d)]

    uf = UnionFind(m)
    for cell, i in index.items():
        for off in offsets:
            nb = tuple(c + o for c, o in zip(cell, off))
            j = index.get(nb)
            if j is not None:
                uf.union(i, j)

    # Renumber roots to 0..k-1 in first-appearance order.
    labels = np.empty(m, dtype=np.int64)
    remap: dict[int, int] = {}
    for i in range(m):
        r = uf.find(i)
        if r not in remap:
            remap[r] = len(remap)
        labels[i] = remap[r]
    return labels

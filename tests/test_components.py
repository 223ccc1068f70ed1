"""Unit tests for union-find and grid connected components."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.components import UnionFind, connected_components


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert len({uf.find(i) for i in range(4)}) == 4

    def test_union_merges(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) == uf.find(3)
        assert uf.find(0) != uf.find(2)

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        uf.union(2, 3)
        assert len({uf.find(i) for i in range(5)}) == 1

    def test_idempotent_union(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(0, 1)
        assert uf.find(0) == uf.find(1)


class TestConnectedComponents:
    def test_empty(self):
        assert connected_components(np.zeros((0, 2), dtype=int)).size == 0

    def test_single_cell(self):
        assert connected_components(np.array([[5, 5]])).tolist() == [0]

    def test_two_adjacent_cells_face(self):
        cells = np.array([[0, 0], [0, 1]])
        labels = connected_components(cells)
        assert labels[0] == labels[1]

    def test_two_separate_blocks(self):
        cells = np.array([[0, 0], [0, 1], [10, 10], [10, 11]])
        labels = connected_components(cells)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_ring_is_one_component(self):
        # discretized circle: consecutive cells are chebyshev-adjacent
        theta = np.linspace(0, 2 * np.pi, 100)
        cells = np.unique(
            np.column_stack([np.round(10 + 8 * np.cos(theta)), np.round(10 + 8 * np.sin(theta))]
                            ).astype(int),
            axis=0,
        )
        labels = connected_components(cells)
        assert len(set(labels)) == 1

    def test_l_shape_one_component(self):
        cells = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]])
        assert len(set(connected_components(cells))) == 1

    def test_labels_are_dense_from_zero(self):
        cells = np.array([[0, 0], [5, 5], [9, 9], [5, 6]])
        labels = connected_components(cells)
        assert set(labels) == set(range(len(set(labels))))

    def test_first_appearance_order(self):
        cells = np.array([[0, 0], [5, 5], [0, 1]])
        labels = connected_components(cells)
        assert labels.tolist() == [0, 1, 0]

    def test_high_dimensional_face(self):
        d = 12
        a = np.zeros((3, d), dtype=int)
        a[1, 0] = 1  # face neighbour of a[0]
        a[2, :] = 7  # far away
        labels = connected_components(a)
        assert labels[0] == labels[1] != labels[2]

    def test_auto_picks_by_dimension(self):
        diag2 = np.array([[0, 0], [1, 1]])
        assert len(set(connected_components(diag2))) == 1  # chebyshev
        diag3 = np.array([[0, 0, 0], [1, 1, 1]])
        assert len(set(connected_components(diag3))) == 1  # chebyshev up to d=3
        diag4 = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        assert len(set(connected_components(diag4))) == 2  # face from d=4
        diag5 = np.zeros((2, 5), dtype=int)
        diag5[1] = 1
        assert len(set(connected_components(diag5))) == 2  # face

    def test_duplicates_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            connected_components(np.array([[1, 1], [1, 1]]))

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError, match="M, d"):
            connected_components(np.array([1, 2, 3]))

    def test_grid_line_components_count(self):
        # 3 separate horizontal strips
        cells = np.array([[x, y] for y in (0, 5, 10) for x in range(4)])
        labels = connected_components(cells)
        assert len(set(labels)) == 3

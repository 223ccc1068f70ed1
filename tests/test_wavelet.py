"""Unit tests for the wavelet filter banks and sparse/dense DWT paths."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.wavelet import WAVELETS, cell_cols, dwt_dense, dwt_sparse, get_wavelet

ALL_WAVELETS = sorted(WAVELETS)


class TestFilterBanks:
    @pytest.mark.parametrize("name", ALL_WAVELETS)
    def test_lowpass_sum_is_sqrt2(self, name):
        # every orthonormal/biorthogonal analysis low-pass sums to sqrt(2)
        w = WAVELETS[name]
        assert sum(w.taps) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    @pytest.mark.parametrize("name", ["haar", "db2"])
    def test_orthonormal_filters_unit_energy(self, name):
        w = WAVELETS[name]
        assert sum(h * h for h in w.taps) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", ALL_WAVELETS)
    def test_center_in_range(self, name):
        w = WAVELETS[name]
        assert 0 <= w.center < len(w.taps)

    def test_haar_fanout_one(self):
        assert WAVELETS["haar"].max_fanout == 1

    @pytest.mark.parametrize("name,fanout", [("db2", 2), ("cdf2.2", 3), ("cdf4.2", 5)])
    def test_fanouts(self, name, fanout):
        assert WAVELETS[name].max_fanout == fanout

    def test_get_wavelet_by_name_and_passthrough(self):
        w = get_wavelet("haar")
        assert get_wavelet(w) is w

    def test_get_wavelet_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown wavelet"):
            get_wavelet("sym9")

    def test_cell_cols(self):
        assert cell_cols(3) == ["c0", "c1", "c2"]


class TestDenseDWT:
    def test_haar_1d_pairs_average(self):
        # haar low-pass of [a, b] -> (a + b)/sqrt(2) at the paired index
        a = np.array([2.0, 4.0, 6.0, 8.0])
        out = dwt_dense(a, "haar", levels=1)
        nz = out[out != 0]
        assert np.allclose(sorted(nz), sorted([(2 + 4) / np.sqrt(2), (6 + 8) / np.sqrt(2)]))

    def test_haar_mass_scaling(self):
        # each haar pass multiplies the total mass by 1/sqrt(2) per dim
        g = np.random.default_rng(0)
        a = g.random((8, 8))
        out = dwt_dense(a, "haar", levels=1)
        assert out.sum() == pytest.approx(a.sum() / 2.0)  # two dims

    def test_levels_shrink(self):
        a = np.ones((16, 16))
        out = dwt_dense(a, "haar", levels=2)
        assert out.shape == (4, 4)

    @pytest.mark.parametrize("name", ALL_WAVELETS)
    def test_constant_signal_stays_flat_inside(self, name):
        # a constant region maps to a constant region (per pass scaled by
        # sum(taps at each parity) = sqrt(2)/... for haar exactly)
        a = np.ones(64)
        out = dwt_dense(a, name, levels=1)
        interior = out[4:-4]
        assert np.allclose(interior, interior[0])

    def test_2d_peak_spreads(self):
        # a single spike spreads over the filter footprint; its largest
        # coefficient is spike * (center tap)^2 for an even-aligned spike
        a = np.zeros((16, 16))
        a[8, 8] = 100.0
        out = dwt_dense(a, "cdf2.2", levels=1)
        assert out.max() == pytest.approx(100.0 * (0.75 * np.sqrt(2)) ** 2)
        assert (np.abs(out) > 1e-12).sum() > 1  # it did spread


class TestSparseSparkDWT:
    """The sparse DWT (``dwt_sparse``) against the dense oracle.

    The class keeps the name it had when the sparse transform ran in Spark,
    so the test ids stay stable.
    """

    @staticmethod
    def sparse(a):
        """(coords, densities) of the non-zero cells of a dense array."""
        coords = np.argwhere(a != 0)
        return coords, a[tuple(coords.T)]

    @pytest.mark.parametrize("name", ALL_WAVELETS)
    @pytest.mark.parametrize("levels", [1, 2])
    def test_sparse_matches_dense_values(self, name, levels):
        g = np.random.default_rng(hash((name, levels)) % 2**31)
        a = np.where(g.random((12, 12)) < 0.3, g.random((12, 12)) * 10, 0.0)
        if a.sum() == 0:
            a[3, 3] = 5.0
        dense = dwt_dense(a, name, levels=levels)
        _, dens = dwt_sparse(*self.sparse(a), name, levels=levels)
        got = np.sort(dens[np.abs(dens) > 1e-9])
        want = np.sort(dense[np.abs(dense) > 1e-9].ravel())
        assert np.allclose(got, want, atol=1e-9), f"{name} L{levels}"

    def test_haar_output_count_never_grows(self):
        g = np.random.default_rng(1)
        a = np.where(g.random((16, 16)) < 0.1, 1.0, 0.0)
        n_in = int((a != 0).sum())
        coords, _ = dwt_sparse(*self.sparse(a), "haar", levels=1)
        assert len(coords) <= n_in

    def test_1d_sparse(self):
        coords, dens = dwt_sparse(np.array([[0], [1], [5]]), np.array([1.0, 1.0, 2.0]), "haar", 1)
        # cells 0,1 pair into output 0; cell 5 (odd) pairs into output 2
        assert coords[:, 0].tolist() == [0, 2]
        assert np.allclose(dens, [2 / np.sqrt(2), 2 / np.sqrt(2)])

    def test_deterministic(self):
        a = np.zeros((8, 8))
        a[2, 2] = 3.0
        a[5, 6] = 1.0
        c1, v1 = dwt_sparse(*self.sparse(a), "cdf2.2", 1)
        c2, v2 = dwt_sparse(*self.sparse(a), "cdf2.2", 1)
        assert np.array_equal(c1, c2) and np.array_equal(v1, v2)

    def test_3d_haar(self):
        coords = np.array([[0, 0, 0], [1, 1, 1]])
        out_c, out_v = dwt_sparse(coords, np.array([4.0, 4.0]), "haar", 1)
        # both cells map to transformed cell (0,0,0); mass 8 / sqrt(2)^3
        assert out_c.tolist() == [[0, 0, 0]]
        assert out_v[0] == pytest.approx(8.0 / 2 ** 1.5)

    @pytest.mark.parametrize("name", ALL_WAVELETS)
    def test_input_order_insensitive(self, name):
        g = np.random.default_rng(2)
        a = np.where(g.random((10, 10, 3)) < 0.3, g.random((10, 10, 3)), 0.0)
        coords, dens = self.sparse(a)
        perm = g.permutation(len(dens))
        c1, v1 = dwt_sparse(coords, dens, name, 2)
        c2, v2 = dwt_sparse(coords[perm], dens[perm], name, 2)
        assert np.array_equal(c1, c2)
        assert np.allclose(v1, v2, rtol=0, atol=1e-12)

    def test_33d_coarse_grid(self):
        # a scale-4 grid at d=33 has 4**33 > 2**63 cells: grouping must not
        # pack a cell into one integer key
        g = np.random.default_rng(3)
        coords = np.unique(g.integers(0, 4, (500, 33)), axis=0)
        dens = g.random(len(coords)) + 1.0
        out_c, out_v = dwt_sparse(coords, dens, "haar", 1)
        assert out_c.shape[1] == 33 and out_c.max() <= 1
        assert len(np.unique(out_c, axis=0)) == len(out_c)
        assert out_v.sum() == pytest.approx(dens.sum() / 2 ** 16.5)
        # each output cell sums the inputs that halve onto it
        first = np.flatnonzero((coords >> 1 == out_c[0]).all(axis=1))
        assert out_v[0] == pytest.approx(dens[first].sum() / 2 ** 16.5)

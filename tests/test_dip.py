"""Unit tests for the from-scratch Hartigan dip test."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.dip as dip_mod
from repro.stats.dip import dip, dip_pvalue, diptest


class TestDipStatistic:
    def test_bounds(self):
        g = np.random.default_rng(0)
        for n in (4, 10, 50, 500):
            x = g.random(n)
            d = dip(x)
            assert 1.0 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12

    def test_degenerate_constant(self):
        assert dip(np.ones(10)) == pytest.approx(1.0 / 20)

    def test_tiny_samples(self):
        assert dip(np.array([1.0])) == 0.0
        assert dip(np.array([1.0, 2.0])) == pytest.approx(0.25)
        assert dip(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0 / 6)

    def test_shift_scale_invariance(self):
        g = np.random.default_rng(1)
        x = g.normal(0, 1, 300)
        assert dip(x) == pytest.approx(dip(4.2 * x - 17.0), abs=1e-12)

    def test_sorted_flag_consistency(self):
        g = np.random.default_rng(2)
        x = g.random(200)
        assert dip(np.sort(x), sort=False) == pytest.approx(dip(x))

    def test_bimodal_much_larger_than_unimodal(self):
        g = np.random.default_rng(3)
        uni = g.normal(0, 1, 400)
        bi = np.concatenate([g.normal(-4, 0.3, 200), g.normal(4, 0.3, 200)])
        assert dip(bi) > 5 * dip(uni)

    def test_two_point_masses_approach_quarter(self):
        x = np.concatenate([np.full(500, 0.0), np.full(500, 1.0)])
        # jitter to avoid exact ties dominating
        g = np.random.default_rng(4)
        x = x + g.normal(0, 1e-6, x.size)
        assert dip(x) == pytest.approx(0.25, abs=0.01)

    def test_separation_monotonicity(self):
        g = np.random.default_rng(5)
        base = g.normal(0, 1, 300)
        dips = []
        for sep in (0.0, 2.0, 4.0, 8.0):
            x = np.concatenate([base, g.normal(sep, 1, 300)])
            dips.append(dip(x))
        assert dips[-1] > dips[0]
        assert dips[-1] > 0.1

    @given(st.integers(4, 200), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_bounds_property(self, n, seed):
        g = np.random.default_rng(seed)
        d = dip(g.random(n))
        assert 1.0 / (2 * n) - 1e-12 <= d <= 0.25 + 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_values_no_crash(self, seed):
        g = np.random.default_rng(seed)
        x = g.integers(0, 5, 100).astype(float)  # heavy ties
        d = dip(x)
        assert 0.0 <= d <= 0.25 + 1e-12


class TestDipPValue:
    def test_uniform_high_p(self):
        g = np.random.default_rng(6)
        ps = [diptest(g.random(300))[1] for _ in range(5)]
        assert float(np.median(ps)) > 0.1

    def test_bimodal_low_p(self):
        g = np.random.default_rng(7)
        x = np.concatenate([g.normal(-4, 0.3, 150), g.normal(4, 0.3, 150)])
        _, p, _ = diptest(x)
        assert p < 0.01

    def test_gaussian_not_significant(self):
        g = np.random.default_rng(8)
        _, p, _ = diptest(g.normal(0, 1, 500))
        assert p > 0.2

    def test_pvalue_in_unit_interval(self):
        for d in (0.0, 0.01, 0.05, 0.2, 0.5):
            p = dip_pvalue(d, 100)
            assert 0.0 <= p <= 1.0

    def test_pvalue_monotone_in_dip(self):
        ps = [dip_pvalue(d, 200) for d in (0.005, 0.02, 0.05, 0.1)]
        assert ps == sorted(ps, reverse=True)

    def test_tiny_sample_p_is_one(self):
        assert dip_pvalue(0.2, 3) == 1.0

    def test_committed_null_table_regenerates(self):
        # the smallest row is cheap to rebuild; the others come from the
        # same generator with a larger n (command in the module docstring)
        assert dip_mod._NULL.shape == (len(dip_mod._REF_SIZES), dip_mod._N_BOOT)
        assert dip_mod._REF_SIZES[0] == 50
        assert np.array_equal(dip_mod._boot_table(50), dip_mod._NULL[0])


class TestModalInterval:
    def test_modal_interval_valid_indices(self):
        g = np.random.default_rng(9)
        x = np.sort(g.random(100))
        _, _, (lo, hi) = diptest(x, sort=False)
        assert 0 <= lo <= hi <= 99

    def test_modal_interval_covers_a_mode_of_bimodal(self):
        g = np.random.default_rng(10)
        x = np.sort(
            np.concatenate([g.normal(-5, 0.2, 200), g.normal(5, 0.2, 200)])
        )
        _, _, (lo, hi) = diptest(x, sort=False)
        # the interval should sit inside one of the two modes
        vals = x[[lo, hi]]
        assert (vals < 0).all() or (vals > 0).all()

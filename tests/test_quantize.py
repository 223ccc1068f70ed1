"""Unit tests for grid quantization — including the DuckDB oracle check
that the sparse-grid aggregation is semantically a plain GROUP BY."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.quantize import GridSpec, assign_cells, fit_grid, grid_densities
from repro.datasets.synthetic import to_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def points_df(spark):
    g = np.random.default_rng(0)
    X = g.random((500, 2))
    return to_spark(spark, X).cache()


def grid_of(df, spec):
    return grid_densities(assign_cells(df, spec), spec.d)


def assert_groupby_oracle(df, features, scale):
    """Check the sparse grid of ``df`` against a DuckDB GROUP BY."""
    f0, f1 = features
    spec = fit_grid(df, [f0, f1], scale)
    w0, w1 = spec.width(0), spec.width(1)
    sql = f"""
        SELECT
          LEAST(GREATEST(CAST(FLOOR(({f0} - {spec.mins[0]}) / {w0}) AS BIGINT), 0), {scale - 1}) AS c0,
          LEAST(GREATEST(CAST(FLOOR(({f1} - {spec.mins[1]}) / {w1}) AS BIGINT), 0), {scale - 1}) AS c1,
          CAST(COUNT(*) AS DOUBLE) AS density
        FROM pts GROUP BY 1, 2
    """
    assert_equivalent(grid_of(df, spec), sql, pts=df)


class TestGridSpec:
    def test_width(self):
        spec = GridSpec(("x",), (0.0,), (10.0,), 5)
        assert spec.width(0) == 2.0

    def test_constant_dimension_width_nonzero(self):
        spec = GridSpec(("x",), (3.0,), (3.0,), 4)
        assert spec.width(0) > 0

    def test_d(self):
        spec = GridSpec(("a", "b", "c"), (0,) * 3, (1,) * 3, 8)
        assert spec.d == 3


class TestFitGrid:
    def test_bounds_match_data(self, spark, points_df):
        spec = fit_grid(points_df, ["x0", "x1"], 8)
        pdf = points_df.toPandas()
        assert spec.mins[0] == pytest.approx(pdf.x0.min())
        assert spec.maxs[1] == pytest.approx(pdf.x1.max())

    def test_row_count_from_same_pass(self, points_df):
        assert fit_grid(points_df, ["x0", "x1"], 8).n_rows == 500

    def test_scale_rule_gets_row_count(self, points_df):
        assert fit_grid(points_df, ["x0"], lambda n: n // 100).scale == 5

    def test_empty_input_has_nan_bounds(self, spark):
        spec = fit_grid(spark.createDataFrame([], "x0 double"), ["x0"], 8)
        assert spec.n_rows == 0
        assert np.isnan(spec.mins[0]) and np.isnan(spec.maxs[0])

    def test_bad_scale_raises(self, points_df):
        with pytest.raises(ValueError, match="scale"):
            fit_grid(points_df, ["x0"], 1)

    def test_no_features_raises(self, points_df):
        with pytest.raises(ValueError, match="feature"):
            fit_grid(points_df, [], 8)


class TestAssignCells:
    def test_cells_in_range(self, spark, points_df):
        spec = fit_grid(points_df, ["x0", "x1"], 16)
        out = assign_cells(points_df, spec).toPandas()
        for c in ("c0", "c1"):
            assert out[c].min() >= 0
            assert out[c].max() <= 15

    def test_max_value_clamped_into_last_cell(self, spark):
        pdf = pd.DataFrame({"id": [0, 1, 2], "x0": [0.0, 0.5, 1.0]})
        df = spark.createDataFrame(pdf)
        spec = fit_grid(df, ["x0"], 4)
        out = assign_cells(df, spec).toPandas().sort_values("id")
        assert out.c0.tolist() == [0, 2, 3]

    def test_known_assignment(self, spark):
        pdf = pd.DataFrame({"id": range(4), "x0": [0.0, 0.26, 0.51, 0.76]})
        df = spark.createDataFrame(pdf)
        spec = GridSpec(("x0",), (0.0,), (1.0,), 4)
        out = assign_cells(df, spec).toPandas().sort_values("id")
        assert out.c0.tolist() == [0, 1, 2, 3]


class TestGridDensities:
    def test_total_mass_is_row_count(self, spark, points_df):
        grid = grid_of(points_df, fit_grid(points_df, ["x0", "x1"], 8))
        assert grid.agg(F.sum("density")).first()[0] == points_df.count()

    def test_sparse_only_nonzero(self, spark, points_df):
        grid = grid_of(points_df, fit_grid(points_df, ["x0", "x1"], 64))
        pdf = grid.toPandas()
        assert (pdf.density > 0).all()
        assert len(pdf) <= points_df.count()

    def test_oracle_groupby_equivalence(self, spark, points_df):
        """The sparse grid is exactly a SQL GROUP BY: check with DuckDB."""
        assert_groupby_oracle(points_df, ("x0", "x1"), 8)

    def test_oracle_on_tpch_lineitem(self, spark):
        """Lineitem-like price x quantity table; integer quantities tie on
        coarse cell edges. Oracle-check the grid against DuckDB."""
        g = np.random.default_rng(0)
        li = spark.createDataFrame(pd.DataFrame({
            "l_quantity": g.integers(1, 51, 6000).astype("float64"),
            "l_extendedprice": (g.random(6000) * 90000 + 900).round(2),
        }))
        assert_groupby_oracle(li, ("l_extendedprice", "l_quantity"), 4)

    def test_order_insensitive(self, spark, points_df):
        """Paper property: grid content independent of input row order."""
        spec = fit_grid(points_df, ["x0", "x1"], 8)
        grid1 = grid_of(points_df, spec)
        grid2 = grid_of(points_df.orderBy(F.rand(seed=42)), spec)
        p1 = grid1.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        p2 = grid2.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(p1, p2)

    def test_deterministic(self, spark, points_df):
        g1 = grid_of(points_df, fit_grid(points_df, ["x0", "x1"], 16))
        g2 = grid_of(points_df, fit_grid(points_df, ["x0", "x1"], 16))
        p1 = g1.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        p2 = g2.toPandas().sort_values(["c0", "c1"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(p1, p2)

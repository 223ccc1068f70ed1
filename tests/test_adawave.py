"""End-to-end tests of the AdaWave pipeline (the paper's contribution)."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.adawave import AdaWaveModel, adawave, auto_params
from repro.datasets.synthetic import paper_synthetic, to_spark
from repro.metrics.ami import ami


def _labels(out_df) -> tuple[np.ndarray, np.ndarray]:
    pdf = out_df.select("id", "label", "cluster").toPandas().sort_values("id")
    return pdf["label"].to_numpy(), pdf["cluster"].to_numpy()


@pytest.fixture(scope="module")
def blobs2d(spark):
    g = np.random.default_rng(0)
    X = np.vstack([g.normal(c, 0.03, (400, 2)) for c in [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]])
    y = np.repeat([0, 1, 2], 400)
    return X, y, to_spark(spark, X, y).cache()


class TestAutoParams:
    @pytest.mark.parametrize(
        "d,scale,levels,wavelet",
        [(1, 128, 1, "cdf2.2"), (2, 128, 1, "cdf2.2"), (3, 16, 1, "haar"),
         (6, 4, 1, "haar"), (9, 4, 1, "haar"), (33, 4, 1, "haar")],
    )
    def test_defaults(self, d, scale, levels, wavelet):
        assert auto_params(d) == (scale, levels, wavelet)

    def test_mid_d_scale_grows_with_n(self):
        assert auto_params(9, 20_000)[0] == 16
        assert auto_params(9, 1_000)[0] == 8
        assert auto_params(9, 214)[0] == 4

    def test_2d_scale_adapts_to_small_n(self):
        assert auto_params(2, 1200)[0] < 128
        assert auto_params(2, 30_000)[0] == 128  # the paper's benchmark size
        assert auto_params(2, 10)[0] >= 16


class TestAdaWaveBasics:
    def test_blobs_recovered(self, spark, blobs2d):
        X, y, df = blobs2d
        out, model = adawave(df, ["x0", "x1"], keep_model=True)
        yt, yp = _labels(out)
        assert model.n_clusters == 3
        # AdaWave marks blob fringes as noise on clean data (the paper's
        # documented low-noise weakness); the Table-I noise post-pass
        # restores them — score with it, as the paper does on real data.
        from repro.baselines.api import assign_nearest

        assert ami(yt, assign_nearest(X, yp)) > 0.9

    def test_output_schema_preserved(self, spark, blobs2d):
        _, _, df = blobs2d
        out = adawave(df, ["x0", "x1"])
        assert set(df.columns) | {"cluster"} == set(out.columns)
        assert out.count() == df.count()

    def test_noise_gets_minus_one(self, spark):
        g = np.random.default_rng(1)
        X = np.vstack([g.normal((0.5, 0.5), 0.02, (500, 2)), g.random((500, 2))])
        y = np.r_[np.zeros(500, int), -np.ones(500, int)]
        out = adawave(to_spark(spark, X, y), ["x0", "x1"])
        yt, yp = _labels(out)
        assert (yp == -1).any()
        # noise rows should overwhelmingly map to -1
        assert (yp[yt == -1] == -1).mean() > 0.5

    def test_deterministic(self, spark, blobs2d):
        _, _, df = blobs2d
        _, y1 = _labels(adawave(df, ["x0", "x1"]))
        _, y2 = _labels(adawave(df, ["x0", "x1"]))
        assert (y1 == y2).all()

    def test_order_insensitive(self, spark, blobs2d):
        X, y, df = blobs2d
        shuffled = to_spark(spark, X[::-1].copy(), y[::-1].copy())
        # relabel ids so row identity survives the reversal
        _, y1 = _labels(adawave(df, ["x0", "x1"]))
        _, y2 = _labels(adawave(shuffled, ["x0", "x1"]))
        assert ami(y1, y2[::-1]) == pytest.approx(1.0)

    def test_keep_model_fields(self, spark, blobs2d):
        _, _, df = blobs2d
        out, model = adawave(df, ["x0", "x1"], keep_model=True)
        assert isinstance(model, AdaWaveModel)
        assert model.scale == 64  # auto: sqrt(1200) rounded up to a power of 2
        assert model.levels == 1
        assert model.wavelet == "cdf2.2"
        assert model.n_kept_cells <= model.n_transformed_cells
        assert model.n_clusters >= 1
        assert model.densities_sorted[0] >= model.densities_sorted[-1]

    def test_explicit_params_respected(self, spark, blobs2d):
        _, _, df = blobs2d
        out, model = adawave(
            df, ["x0", "x1"], scale=64, levels=2, wavelet="haar", keep_model=True
        )
        assert (model.scale, model.levels, model.wavelet) == (64, 2, "haar")

    def test_high_d_fanout_guard(self, spark):
        g = np.random.default_rng(2)
        X = g.random((50, 8))
        df = to_spark(spark, X)
        with pytest.raises(ValueError, match="fanout"):
            adawave(df, [f"x{j}" for j in range(8)], wavelet="cdf2.2")

    def test_unknown_threshold_method_raises(self, spark, blobs2d):
        _, _, df = blobs2d
        with pytest.raises(ValueError, match="threshold"):
            adawave(df, ["x0", "x1"], threshold_method="nope")

    def test_two_spark_actions_per_fit(self, spark, blobs2d, monkeypatch):
        # the bounds aggregate and the grid collect; the label join runs
        # only with the caller's action on the result
        from pyspark.sql.classic.dataframe import DataFrame

        _, _, df = blobs2d
        calls, depth = [], [0]

        def counted(name, fn):
            def wrapper(self, *args, **kwargs):
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("collect", "count", "first", "head", "take", "toPandas", "toLocalIterator"):
            monkeypatch.setattr(DataFrame, name, counted(name, getattr(DataFrame, name)))
        out, model = adawave(df, ["x0", "x1"], keep_model=True)
        assert calls == ["first", "toPandas"]
        assert model.n_clusters == 3

    def test_empty_input(self, spark):
        df = spark.createDataFrame([], "id long, x0 double, x1 double")
        out, model = adawave(df, ["x0", "x1"], keep_model=True)
        assert out.columns == ["id", "x0", "x1", "cluster"]
        assert dict(out.dtypes)["cluster"] == "bigint"
        assert out.count() == 0
        assert model.n_clusters == 0
        assert model.n_grid_cells == model.n_kept_cells == 0
        assert adawave(df, ["x0", "x1"]).columns == out.columns

    def test_angle_method_runs(self, spark, blobs2d):
        X, y, df = blobs2d
        out = adawave(df, ["x0", "x1"], threshold_method="angle")
        yt, yp = _labels(out)
        assert len(np.unique(yp[yp >= 0])) >= 1


class TestAdaWaveNoise:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_synthetic_benchmark_quality(self, spark, gamma):
        X, y = paper_synthetic(gamma, n_per_cluster=800, seed=3)
        out, model = adawave(to_spark(spark, X, y), ["x0", "x1"], keep_model=True)
        yt, yp = _labels(out)
        mask = yt >= 0
        score = ami(yt[mask], yp[mask])
        # the paper's Fig. 8 keeps AdaWave well above 0.5 through 80 % noise
        assert score > 0.5, f"gamma={gamma}: AMI={score:.3f}"
        # small-n + dense noise can fragment a cluster or leave a couple of
        # spurious dense clumps; paper-scale runs give exactly 5 (bench)
        assert 3 <= model.n_clusters <= 14

    def test_finds_five_clusters_at_paper_scale_ish(self, spark):
        X, y = paper_synthetic(0.5, n_per_cluster=2000, seed=0)
        out, model = adawave(to_spark(spark, X, y), ["x0", "x1"], keep_model=True)
        assert model.n_clusters == 5

    def test_nested_concentric_rings_separated(self, spark):
        # the concentric rings (labels 2 and 4) must get distinct predicted
        # clusters — the paper's "nested clusters" claim
        X, y = paper_synthetic(0.3, n_per_cluster=2000, seed=0)
        out = adawave(to_spark(spark, X, y), ["x0", "x1"])
        yt, yp = _labels(out)
        inner = yp[(yt == 2) & (yp >= 0)]
        outer = yp[(yt == 4) & (yp >= 0)]
        assert len(inner) and len(outer)
        assert np.bincount(inner).argmax() != np.bincount(outer).argmax()


class TestAdaWaveHighDim:
    def test_3d_blobs(self, spark):
        from repro.baselines.api import assign_nearest

        g = np.random.default_rng(4)
        X = np.vstack([g.normal(c, 0.4, (120, 3)) for c in [(0, 0, 0), (6, 6, 0), (0, 6, 6)]])
        y = np.repeat([0, 1, 2], 120)
        out, model = adawave(to_spark(spark, X, y), ["x0", "x1", "x2"], keep_model=True)
        yt, yp = _labels(out)
        assert model.n_clusters == 3
        assert ami(yt, assign_nearest(X, yp)) > 0.9

    def test_9d_blobs(self, spark):
        from repro.baselines.api import assign_nearest

        g = np.random.default_rng(5)
        centers = g.normal(0, 1, (3, 9)) * 3
        X = np.vstack([g.normal(c, 0.3, (100, 9)) for c in centers])
        y = np.repeat([0, 1, 2], 100)
        out = adawave(to_spark(spark, X, y), [f"x{j}" for j in range(9)])
        yt, yp = _labels(out)
        assert ami(yt, assign_nearest(X, yp)) > 0.8

    def test_33d_runs_with_haar(self, spark):
        from repro.baselines.api import assign_nearest

        # opposite-corner classes: the high-d regime AdaWave's coarse Haar
        # grid is built for — every dimension separates the classes, so no
        # grid edge lands inside a mode (a shared-center dimension would
        # place the halved-bin edge mid-mode and shatter the cells)
        g = np.random.default_rng(6)
        c0 = g.choice([0.0, 3.0], 33)
        centers = np.vstack([c0, 3.0 - c0])
        X = np.vstack([g.normal(c, 0.3, (60, 33)) for c in centers])
        y = np.repeat([0, 1], 60)
        out = adawave(to_spark(spark, X, y), [f"x{j}" for j in range(33)])
        yt, yp = _labels(out)
        assert ami(yt, assign_nearest(X, yp)) > 0.8

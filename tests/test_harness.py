"""Integration tests for the experiment harnesses (reduced sizes)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.harness.__main__ import JOBS
from repro.harness.__main__ import main as harness_main
from repro.harness.common import ALGORITHMS, run_algo
from repro.harness.fig8 import run_fig8
from repro.harness.fig10 import run_fig10
from repro.harness.table1 import PAPER_TABLE1, run_table1, table1_matrix
from repro.harness.table2 import GLASS_ATTRS, PAPER_TABLE2, run_table2
from repro.metrics.ami import ami


@pytest.fixture(scope="module")
def small_noisy(spark):
    from repro.datasets.synthetic import paper_synthetic

    return paper_synthetic(0.5, n_per_cluster=400, seed=1)


class TestRunAlgo:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_every_algorithm_runs(self, spark, algo, small_noisy):
        X, y = small_noisy
        res = run_algo(spark, algo, X, y, k_true=5, eval_mask=y >= 0)
        assert res.labels.shape == (len(X),)
        assert res.seconds > 0

    def test_dbscan_cap_depends_on_dimension(self):
        from repro.harness.common import _cap_for

        assert _cap_for("dbscan", 2) == 100_000  # grid path: keep density
        assert _cap_for("dbscan", 9) == 20_000  # brute-force path
        assert _cap_for("adawave", 2) is None  # never capped
        assert _cap_for("stsc", 2) == 20_000

    def test_unknown_algo_raises(self, spark, small_noisy):
        X, y = small_noisy
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algo(spark, "hdbscan", X, y, k_true=5)

    def test_assign_noise_removes_minus_one(self, spark, small_noisy):
        X, y = small_noisy
        res = run_algo(spark, "adawave", X, y, k_true=5, assign_noise=True)
        assert (res.labels >= 0).all()

    def test_cap_and_extension(self, spark):
        g = np.random.default_rng(2)
        X = np.vstack([g.normal(c, 0.05, (5000, 2)) for c in [(0, 0), (1, 1)]])
        y = np.repeat([0, 1], 5000)
        res = run_algo(spark, "dipmeans", X, y, k_true=2)
        assert res.capped  # 10k > 8k cap
        assert res.labels.shape == (len(X),)
        assert ami(y, res.labels) > 0.9


class TestTable1:
    def test_small_subset(self, spark):
        r = run_table1(spark, datasets=["motor"], algorithms=("adawave", "kmeans"))
        assert set(r.columns) >= {"dataset", "algorithm", "ami", "paper_ami", "seconds"}
        assert len(r) == 2
        assert (r.ami >= 0).all() and (r.ami <= 1).all()
        # motor is the everyone-wins dataset in the paper
        assert (r.ami > 0.9).all()

    def test_matrix_pivot(self, spark):
        r = run_table1(spark, datasets=["motor"], algorithms=("adawave", "kmeans"))
        m = table1_matrix(r)
        assert m.loc["adawave", "motor"] > 0.9

    def test_paper_constants_complete(self):
        for ds, row in PAPER_TABLE1.items():
            assert set(row) == set(ALGORITHMS), ds


class TestTable2:
    def test_correlations(self, spark):
        r = run_table2(spark)
        assert list(r.attribute) == list(GLASS_ATTRS)
        assert r.correlation.abs().max() <= 1.0
        # the strong attributes carry the paper's signs
        by = dict(zip(r.attribute, r.correlation))
        assert by["Mg"] < -0.5
        assert by["Na"] > 0.3
        assert by["Al"] > 0.3
        assert by["Ba"] > 0.3

    def test_paper_constants(self):
        assert set(PAPER_TABLE2) == set(GLASS_ATTRS)


class TestFig8:
    def test_two_gammas_adawave_vs_kmeans(self, spark):
        # n_per_cluster >= ~2000 is where the grid statistics stabilise
        # (k=5 exactly, stable AMI); the paper itself runs 5600
        r = run_fig8(
            spark,
            gammas=(0.3, 0.8),
            algorithms=("adawave", "kmeans"),
            n_per_cluster=2000,
        )
        assert len(r) == 4
        piv = r.pivot(index="algorithm", columns="gamma", values="ami")
        # the paper's headline: AdaWave dominates k-means on this data
        assert (piv.loc["adawave"] > piv.loc["kmeans"]).all()
        assert piv.loc["adawave"].min() > 0.5


class TestFig10:
    def test_runtime_rows(self, spark):
        r = run_fig10(spark, total_sizes=(2000, 4000), algorithms=("adawave", "dbscan"))
        assert len(r) == 4
        assert (r.seconds > 0).all()
        assert sorted(r.n.unique().tolist()) == [2000, 4000]


class TestEntryPoint:
    def test_unknown_job_prints_usage(self, capsys):
        assert harness_main(["nope"]) == 2
        assert "python -m repro.harness" in capsys.readouterr().err

    def test_adawave_job(self, spark, capsys):
        JOBS["adawave"](spark, ["0.5", "400"])
        line = capsys.readouterr().out.strip()
        assert line.startswith("gamma=0.5 n=") and "clusters=5" in line

"""Table I benchmark: AdaWave on each UCI-like dataset + AMI recording.

One pytest-benchmark case per dataset times the AdaWave fit; the final
case runs the full 8-algorithm comparison at reduced roadmap size and
prints the paper-vs-measured matrix (the full-size numbers live in
EXPERIMENTS.md, regenerated with ``python -m repro.harness table1``).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.api import assign_nearest
from repro.core.adawave import adawave
from repro.datasets import uci_like
from repro.datasets.synthetic import to_spark
from repro.harness.table1 import PAPER_TABLE1, run_table1, table1_matrix
from repro.metrics.ami import ami

_BENCH_DATASETS = ["seeds", "iris", "glass", "dumdh", "htru2", "dermatology", "motor", "wholesale"]


@pytest.mark.parametrize("name", _BENCH_DATASETS)
def test_adawave_on_dataset(benchmark, spark, name):
    X, y = uci_like.make(name)
    df = to_spark(spark, X).cache()
    df.count()
    feats = [f"x{j}" for j in range(X.shape[1])]

    def run():
        out = adawave(df, feats)
        pdf = out.select("id", "cluster").toPandas().sort_values("id")
        return pdf["cluster"].to_numpy()

    labels = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    score = ami(y, assign_nearest(X, labels))
    print(f"\n[table1-bench] {name}: adawave AMI={score:.3f} "
          f"(paper: {PAPER_TABLE1[name]['adawave']})")
    df.unpersist()


def test_table1_full_matrix_small(benchmark, spark):
    """All 8 algorithms on the three smallest datasets, timed end-to-end."""
    def run():
        return run_table1(spark, datasets=["motor", "iris", "seeds"])

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[table1-bench] measured vs paper (small datasets):")
    m = table1_matrix(results)
    print(m.to_string())
    assert results.ami.between(-0.1, 1.0).all()

"""Fig. 8 benchmark: the AMI-vs-noise sweep at reduced cluster size.

Each benchmark case runs one noise level with AdaWave + the fast
baselines; the full 8-algorithm sweep at the paper's n_per_cluster=5600
is ``python -m repro.harness fig8`` (results in EXPERIMENTS.md).
"""
from __future__ import annotations

import pytest

from repro.harness.fig8 import run_fig8

_GAMMAS = (0.3, 0.5, 0.8)


@pytest.mark.parametrize("gamma", _GAMMAS)
def test_fig8_noise_level(benchmark, spark, gamma):
    def run():
        return run_fig8(
            spark,
            gammas=(gamma,),
            algorithms=("adawave", "kmeans", "dbscan"),
            n_per_cluster=2000,
        )

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    piv = r.set_index("algorithm")["ami"]
    print(f"\n[fig8-bench] gamma={gamma}: " + "  ".join(f"{a}={v:.3f}" for a, v in piv.items()))
    # the paper's shape: AdaWave on top at every noise level
    assert piv["adawave"] >= piv["kmeans"]
    assert piv["adawave"] > 0.5

"""Command-line entry point for the paper's experiments.

Usage::

    python -m repro.harness table1 [dataset ...]   # Table I: AMI, 9 datasets x 8 algorithms
    python -m repro.harness table2                 # Table II: Glass attribute/class correlations
    python -m repro.harness fig8 [n_per_cluster]   # Fig. 8: AMI vs noise percentage
    python -m repro.harness fig10 [n1 n2 ...]      # Fig. 10: wall time vs n at 75 % noise
    python -m repro.harness adawave [gamma] [n_per_cluster]  # AdaWave on the synthetic benchmark

The session comes from :func:`repro.harness.get_session`.
"""
from __future__ import annotations

import sys

from pyspark.sql import SparkSession

from repro.harness import get_session


def table1(spark: SparkSession, args: list[str]) -> None:
    from repro.harness.table1 import run_table1, table1_matrix

    results = run_table1(spark, datasets=args or None)
    print(results.to_string(index=False))
    print("\n=== measured AMI matrix ===")
    print(table1_matrix(results).to_string())


def table2(spark: SparkSession, args: list[str]) -> None:
    from repro.harness.table2 import run_table2

    print(run_table2(spark).to_string(index=False))


def fig8(spark: SparkSession, args: list[str]) -> None:
    from repro.harness.fig8 import run_fig8

    results = run_fig8(spark, n_per_cluster=int(args[0]) if args else 5600)
    print(results.to_string(index=False))
    print("\n=== AMI by noise level ===")
    print(results.pivot(index="algorithm", columns="gamma", values="ami").to_string())


def fig10(spark: SparkSession, args: list[str]) -> None:
    from repro.harness.fig10 import DEFAULT_SIZES, run_fig10

    results = run_fig10(spark, total_sizes=tuple(int(a) for a in args) or DEFAULT_SIZES)
    print(results.to_string(index=False))
    print("\n=== seconds by n ===")
    print(results.pivot(index="algorithm", columns="n", values="seconds").to_string())


def adawave(spark: SparkSession, args: list[str]) -> None:
    from repro.core.adawave import adawave
    from repro.datasets.synthetic import paper_synthetic, to_spark
    from repro.metrics.ami import ami

    gamma = float(args[0]) if args else 0.5
    npc = int(args[1]) if len(args) > 1 else 5600
    X, y = paper_synthetic(gamma, n_per_cluster=npc)
    out, model = adawave(to_spark(spark, X, y), ["x0", "x1"], keep_model=True)
    pdf = out.select("id", "label", "cluster").toPandas().sort_values("id")
    yt, yp = pdf["label"].to_numpy(), pdf["cluster"].to_numpy()
    mask = yt >= 0
    print(
        f"gamma={gamma} n={len(X)} clusters={model.n_clusters} "
        f"threshold={model.threshold:.3f} grid={model.n_grid_cells} "
        f"kept={model.n_kept_cells} AMI(non-noise)={ami(yt[mask], yp[mask]):.3f}"
    )


JOBS = {"table1": table1, "table2": table2, "fig8": fig8, "fig10": fig10, "adawave": adawave}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in JOBS:
        print(__doc__, file=sys.stderr)
        return 2
    spark = get_session(argv[0])
    try:
        JOBS[argv[0]](spark, argv[1:])
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

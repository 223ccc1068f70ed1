"""Benchmark workloads: seeded inputs, the caller's action, and the checks.

A workload is a list of inputs (one for ``paper2d-1m`` and
``blobs6d-300k``, eight tables for ``uci-small``), the action the caller
takes on each fit's result, and the rules a correct result obeys. Inputs
come from repo generators (``blobs6d`` is generated here), go through
``repro.datasets.synthetic.to_spark``, and are cached and materialised
during set-up. Every input has an ``id`` column ``0..n-1``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.api import assign_nearest
from repro.datasets import uci_like
from repro.datasets.synthetic import paper_synthetic, to_spark
from repro.metrics.ami import ami

# The Table I stand-ins of fixed size (``roadmap`` is left out: it is
# 435k rows and belongs to the row-bound workload's regime).
UCI_TABLES = ("motor", "iris", "seeds", "glass", "wholesale", "dermatology", "dumdh", "htru2")


def blobs6d(seed: int, n: int = 300_000, d: int = 6, k: int = 6,
            sigma: float = 0.03, noise_frac: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """``k`` Gaussian blobs at distinct corners of {0.25, 0.75}^d plus uniform noise.

    Noise is ``noise_frac`` of the ``n`` rows, uniform over the unit cube,
    labelled -1. The corners are drawn from the seed; rows are shuffled.
    """
    g = np.random.default_rng(seed)
    picks = g.choice(2**d, size=k, replace=False)
    corners = ((picks[:, None] >> np.arange(d)) & 1) * 0.5 + 0.25
    per = (n - int(n * noise_frac)) // k
    X = np.vstack([g.normal(0.0, sigma, (per, d)) + c for c in corners] + [g.random((n - per * k, d))])
    y = np.concatenate([np.repeat(np.arange(k), per), np.full(n - per * k, -1)])
    perm = g.permutation(n)
    return X[perm], y[perm]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], list[tuple[str, np.ndarray, np.ndarray]]]
    action: str  # "collect": labels to the driver; "noop": labels stay in Spark
    ami_protocol: str  # "signal": AMI on non-noise rows; "table1": assign_nearest, then AMI
    expect_k: int | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper2d-1m",
            "row-bound: 1M rows, grid capped at 16,384 cells; stats, quantize and label dominate",
            lambda seed: [("paper2d", *paper_synthetic(gamma=0.75, n_per_cluster=50_000, seed=seed))],
            action="collect", ami_protocol="signal", expect_k=5,
        ),
        Workload(
            "blobs6d-300k",
            "grid-bound: ~154k occupied 6-d cells; the wavelet layer dominates, labels stay in Spark",
            lambda seed: [("blobs6d", *blobs6d(seed))],
            action="noop", ami_protocol="signal",
        ),
        Workload(
            "uci-small",
            "overhead-bound: eight small tables, 15-45 Spark jobs per fit; dermatology (d=33) dominates",
            lambda seed: [(t, *uci_like.make(t, seed=seed * 1000 + i)) for i, t in enumerate(UCI_TABLES)],
            action="collect", ami_protocol="table1",
        ),
    )
}


@dataclass
class Input:
    name: str
    df: DataFrame
    features: list[str]
    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)


def build(spark: SparkSession, workload: Workload, seed: int) -> list[Input]:
    """Generate, convert, cache and materialise every input of a workload."""
    inputs = []
    for name, X, y in workload.make(seed):
        df = to_spark(spark, X, y).cache()
        df.count()
        inputs.append(Input(name, df, [f"x{j}" for j in range(X.shape[1])], X, y))
    return inputs


def act(workload: Workload, out: DataFrame):
    """The caller's action on a fit's result; it runs the label plan."""
    if workload.action == "collect":
        return out.select("id", "cluster").toPandas()
    out.write.format("noop").mode("overwrite").save()
    return None


def _collected(pdf) -> np.ndarray:
    return pdf.sort_values("id")["cluster"].to_numpy(dtype=np.int64)


@dataclass
class Checker:
    """Correctness rules of every fit, and each input's reference result.

    A fit is correct when each input ``id`` appears exactly once, every
    ``cluster`` is in ``[-1, k)`` with ``k = model.n_clusters``, its labels
    equal those of the input's first fit, and, where the workload names
    one, ``k`` is the expected cluster count. Checks run outside the timed
    region; for the ``noop`` action they run one aggregate over the result.
    """

    workload: Workload
    ref: dict[str, object] = field(default_factory=dict)
    ami: dict[str, float] = field(default_factory=dict)

    def check(self, inp: Input, out: DataFrame, k: int, result) -> str | None:
        """Return None if the fit is correct, else the reason it is not."""
        wl = self.workload
        if wl.expect_k is not None and k != wl.expect_k:
            return f"found {k} clusters, expected {wl.expect_k}"
        if wl.action == "collect":
            ids = np.sort(result["id"].to_numpy())
            if len(ids) != inp.n or not np.array_equal(ids, np.arange(inp.n)):
                return f"ids are not 0..{inp.n - 1} exactly once"
            labels = _collected(result)
            lo, hi = int(labels.min()), int(labels.max())
            key = labels
        else:
            r = out.agg(
                F.count(F.lit(1)).alias("rows"), F.countDistinct("id").alias("ids"),
                F.min("id").alias("id_lo"), F.max("id").alias("id_hi"),
                F.min("cluster").alias("lo"), F.max("cluster").alias("hi"),
                F.bit_xor(F.xxhash64("id", "cluster")).alias("digest"),
            ).first()
            if (r["rows"], r["ids"], r["id_lo"], r["id_hi"]) != (inp.n, inp.n, 0, inp.n - 1):
                return f"ids are not 0..{inp.n - 1} exactly once"
            lo, hi, key = r["lo"], r["hi"], r["digest"]
            labels = None
        if lo < -1 or hi >= k:
            return f"cluster ids span [{lo}, {hi}], outside [-1, {k})"
        if inp.name not in self.ref:
            self.ref[inp.name] = key
            if labels is None:
                labels = _collected(out.select("id", "cluster").toPandas())
            self.ami[inp.name] = self._ami(inp, labels)
        elif not np.array_equal(np.asarray(self.ref[inp.name]), np.asarray(key)):
            return "labels differ from the first fit's"
        return None

    def _ami(self, inp: Input, labels: np.ndarray) -> float:
        if self.workload.ami_protocol == "table1":
            return float(ami(inp.y, assign_nearest(inp.X, labels)))
        signal = inp.y >= 0
        return float(ami(inp.y[signal], labels[signal]))

    def ami_signal(self) -> float:
        """Mean AMI over the inputs scored so far (one input: its AMI); 0 if none was."""
        return float(np.mean(list(self.ami.values()))) if self.ami else 0.0

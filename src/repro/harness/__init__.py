"""One runner per table/figure of the paper, and the Spark session they share.

``get_session`` builds the one session configuration used by the
``python -m repro.harness`` entry point and by the test suite's ``spark``
fixture: ``SPARK_MASTER`` (default ``local[*]``), ``SPARK_SHUFFLE_PARTITIONS``
(default 64), Arrow on, and broadcast joins off, so joins exercise the
shuffle path at the sizes used here.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

__all__ = ["get_session"]


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )

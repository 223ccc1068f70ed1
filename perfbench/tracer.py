"""Per-layer tracing of ``adawave()``, installed at run time from outside ``src/``.

The tracer wraps the layer functions that ``repro.core.adawave`` binds,
the session's ``createDataFrame``, and the DataFrame actions, and records
one span per call. Layers are named after the modules under
``repro.core``:

==================  ==================================================
``adawave.count``   the auto-scale ``df.count()`` on the input
``quantize.bounds`` ``fit_grid`` and the ``first()`` inside it
``quantize.grid``   ``assign_cells`` + ``grid_densities`` and their action
``wavelet``         ``dwt_spark`` and the ``toPandas`` that runs it
``threshold``       ``elbow_threshold`` / ``angle_threshold`` (driver)
``components``      ``connected_components`` (driver)
``adawave.label``   lookup table, label join, and the caller's action
==================  ==================================================

Spark is lazy, so an action is charged to the layer that built the
DataFrame it runs on: the layer whose function is running when the action
is called, else the layer that returned the DataFrame (a tag on the
object), else ``adawave.other``. A layer's ``plan_s`` is the time inside
its lazy functions, ``exec_s`` the time in its actions. Self time is a
span's duration minus its children's (``fit_grid`` contains ``first()``).

Each action span runs under its own Spark job group, so the jobs, stages
and tasks it caused are read from ``SparkContext.statusTracker()`` after
the fit. A name ``repro.core.adawave`` no longer binds is reported as an
absent layer, not an error, so the tracer outlives layer changes.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYER_FUNCS = {
    "fit_grid": "quantize.bounds",
    "assign_cells": "quantize.grid",
    "grid_densities": "quantize.grid",
    "dwt_spark": "wavelet",
    "elbow_threshold": "threshold",
    "angle_threshold": "threshold",
    "connected_components": "components",
}
ACTIONS = ("count", "first", "toPandas", "collect")
LAYERS = ("adawave.count", "quantize.bounds", "quantize.grid", "wavelet", "threshold",
          "components", "adawave.label", "adawave.other")
_TAG = "_perfbench_layer"
_EPS_COEF = 1e-9  # adawave's "coefficient close to zero" cutoff


@dataclass
class Span:
    layer: str
    kind: str  # "call" (the adawave() call), "plan" (a layer function) or "exec" (an action)
    parent: int | None
    group: str | None = None
    start: float = 0.0
    end: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one fit at a time; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, spark, module):
        from pyspark.sql.classic.dataframe import DataFrame
        from pyspark.sql.readwriter import DataFrameWriter

        self.sc = spark.sparkContext
        self._targets = [(module, n) for n in LAYER_FUNCS] + [(DataFrame, a) for a in ACTIONS] + [
            (DataFrameWriter, "save"), (type(spark), "createDataFrame")]
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.active = False
        self.fit_no = 0
        self._reset()

    def _reset(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for owner, name in self._targets:
            fn = getattr(owner, name, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, name, vars(owner).get(name)))
            setattr(owner, name, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            if orig is None:
                delattr(owner, name)
            else:
                setattr(owner, name, orig)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        if name in LAYER_FUNCS:
            return functools.wraps(fn)(lambda *a, **kw: self._call_layer(fn, name, a, kw))
        if name == "createDataFrame":
            return functools.wraps(fn)(lambda *a, **kw: self._call_lut(fn, a, kw))
        if name == "save":
            return functools.wraps(fn)(lambda w, *a, **kw: self._call_action(fn, name, w._df, (w, *a), kw))
        return functools.wraps(fn)(lambda df, *a, **kw: self._call_action(fn, name, df, (df, *a), kw))

    def _call_layer(self, fn, name, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        layer = LAYER_FUNCS[name]
        with self.span(layer, "plan"):
            result = fn(*args, **kwargs)
        if layer in ("quantize.grid", "wavelet"):
            self.tag(result, layer)
        elif layer == "threshold":
            dens = np.asarray(args[0])
            self._add("threshold.cells_in", dens.size)
            self._add("threshold.kept", int((dens > result).sum()))
        elif layer == "components":
            self._add("components.cells_in", len(args[0]))
            self._add("components.raw", len(np.unique(result)))
        return result

    def _call_lut(self, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        with self.span("adawave.label", "plan"):
            result = fn(*args, **kwargs)
        self.tag(result, "adawave.label")
        return result

    def _call_action(self, fn, name, df, args, kwargs):
        if not self.active or any(self.spans[i].kind == "exec" for i in self.stack):
            return fn(*args, **kwargs)  # untraced, or nested inside another action
        layer = self._layer_of(df)
        with self.span(layer, "exec"):
            result = fn(*args, **kwargs)
        if layer == "quantize.grid" and name == "count":
            self._add("quantize.cells", result)
        elif layer == "wavelet" and name == "toPandas":
            self._add("wavelet.cells_out", len(result))
            if "density" in result.columns:
                self._add("wavelet.nonzero", int((result["density"].to_numpy() > _EPS_COEF).sum()))
        return result

    def _layer_of(self, df) -> str:
        for i in reversed(self.stack):
            if self.spans[i].kind == "plan":
                return self.spans[i].layer
        return vars(df).get(_TAG, "adawave.other")

    # -- recording ---------------------------------------------------------
    def tag(self, df, layer: str) -> None:
        """Charge later actions on this DataFrame object to ``layer``."""
        if df is not None:
            vars(df)[_TAG] = layer

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def fit(self, input_df):
        """Trace one fit: the input's own actions count as ``adawave.count``."""
        self.fit_no += 1
        self._reset()
        self._fit_group = f"perfbench-{self.fit_no}-fit"
        self.sc.setJobGroup(self._fit_group, "perfbench fit")
        self.tag(input_df, "adawave.count")
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    @contextmanager
    def span(self, layer: str, kind: str):
        s = Span(layer, kind, self.stack[-1] if self.stack else None)
        if kind == "exec":
            s.group = f"perfbench-{self.fit_no}-{len(self.spans)}"
            self.sc.setJobGroup(s.group, layer)
        self.spans.append(s)
        self.stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.stack.pop()
            if kind == "exec":
                self.sc.setJobGroup(self._fit_group, "perfbench fit")

    # -- per-fit metrics ---------------------------------------------------
    def _spark_counts(self, groups: list[str]) -> dict[str, int]:
        st = self.sc.statusTracker()
        jobs, stages, tasks, failed = 0, set(), 0, 0
        for g in groups:
            for jid in st.getJobIdsForGroup(g):
                jobs += 1
                info = st.getJobInfo(jid)
                for sid in (info.stageIds if info else []):
                    si = st.getStageInfo(sid)
                    if si is None or sid in stages or si.numCompletedTasks + si.numFailedTasks == 0:
                        continue  # unknown, counted already, or skipped (shuffle reuse)
                    stages.add(sid)
                    tasks += si.numCompletedTasks + si.numFailedTasks
                    failed += si.numFailedTasks
        return {"jobs": jobs, "stages": len(stages), "tasks": tasks, "failed_tasks": failed}

    def fit_metrics(self, model, n_rows: int) -> dict[str, float]:
        """Per-layer metrics of the fit just traced (names as in BENCHMARK.json)."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()  # status store catches up
        spans = self.spans
        self_s = [s.dur - sum(c.dur for c in spans if c.parent == i) for i, s in enumerate(spans)]
        m: dict[str, float] = {}
        for layer in LAYERS:
            execs = [s for s in spans if s.layer == layer and s.kind == "exec"]
            m[f"{layer}.plan_s"] = sum(t for s, t in zip(spans, self_s) if s.layer == layer and s.kind == "plan")
            m[f"{layer}.exec_s"] = sum(s.dur for s in execs)
            for k, v in self._spark_counts([s.group for s in execs]).items():
                m[f"{layer}.{k}"] = v
        # adawave.label.plan_s: the tail of the adawave() call after its last
        # other layer (pruning, lookup table, label join plan)
        call = next((i for i, s in enumerate(spans) if s.kind == "call"), None)
        if call is not None:
            before = [s.end for s in spans if s.parent == call and s.layer != "adawave.label"]
            m["adawave.label.plan_s"] = spans[call].end - max(before, default=spans[call].start)
        m["threshold.self_s"] = m.pop("threshold.plan_s")
        m["components.self_s"] = m.pop("components.plan_s")
        total = self._spark_counts([s.group for s in spans if s.kind == "exec"] + [self._fit_group])
        m.update({f"spark.{k}_per_fit": v for k, v in total.items() if k != "failed_tasks"})
        m["spark.failed_tasks"] = total["failed_tasks"]
        c = self.counts
        m["quantize.cells"] = c.get("quantize.cells", getattr(model, "n_grid_cells", 0))
        m["quantize.cells_per_row"] = m["quantize.cells"] / n_rows if n_rows else 0.0
        m["wavelet.cells_out"] = c.get("wavelet.cells_out", 0)
        m["wavelet.nonzero_frac"] = c["wavelet.nonzero"] / c["wavelet.cells_out"] if c.get("wavelet.cells_out") else 0.0
        m["threshold.cells_in"] = c.get("threshold.cells_in", 0)
        m["threshold.kept_frac"] = c["threshold.kept"] / c["threshold.cells_in"] if c.get("threshold.cells_in") else 0.0
        m["components.cells_in"] = c.get("components.cells_in", 0)
        m["components.raw"] = c.get("components.raw", 0)
        m["components.pruned"] = m["components.raw"] - model.n_clusters if "components.raw" in c else 0
        return m

    def breakdown(self) -> str:
        """One line: seconds per layer (plan + exec) of the fit just traced.

        ``adawave.self`` is the adawave() time outside every layer span.
        """
        spans = self.spans
        top = [s for s in spans if s.kind != "call" and (s.parent is None or spans[s.parent].kind == "call")]
        parts = [f"{layer} {t:.3f}" for layer in LAYERS if (t := sum(s.dur for s in top if s.layer == layer))]
        calls = [i for i, s in enumerate(spans) if s.kind == "call"]
        parts += [f"adawave.self {spans[i].dur - sum(c.dur for c in spans if c.parent == i):.3f}" for i in calls]
        return ", ".join(parts)

#!/usr/bin/env python3
"""AdaWave benchmark: one ``adawave()`` fit on a cached DataFrame plus the
caller's action on its result, in a closed loop (one driver process waits
for each fit before it starts the next).

Run from the repository root:

    python3 perfbench/run.py --workload paper2d-1m --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run that reports the per-layer metrics from
spans recorded around each layer (``tracer.py``), the tracing overhead,
and a ``local[1]`` baseline. Both print every metric by name and unit, the
provenance and the correctness checks; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Metric names and units come from ``BENCHMARK.json``. See README.md.
"""
import time

_T0 = time.perf_counter()  # "process start" for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

DEFAULT_SEED = 0
HELDOUT_SEED = 7919  # never used while a change is written; confirms its claims
MASTER = "local[*]"
DRIVER_MEMORY = "2g"
SESSION_CONF = {  # as conftest.py and jobs/_session.py set them
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
SETUP_REPS = 3  # set-ups per run; setup_s takes the median
MIN_WARM = 2  # warm fits per run, at least, whatever --seconds says
# WARM_UP: one round after the cold fit is not measured. On blobs6d-300k that
# fit is 10-40 % slower than later ones while the JIT compiles, and measuring
# it roughly doubled the run-to-run spread of fit_s_p50 and fit_s_tail.
TRACE_ORDER = (True, False, True)  # traced/untraced rounds, symmetric so drift cancels
WORK = Path(".perfbench_work")  # scratch space inside the checkout, removed at exit


@dataclass
class FitResult:
    input: str
    rows: int
    seconds: float
    error: str | None = None
    k: int | None = None
    layers: dict = field(default_factory=dict)
    breakdown: str = ""


def configure_environment() -> None:
    """Keep every file Spark and the JVMs write inside the work directory."""
    tmp, local = (WORK / "tmp").resolve(), (WORK / "local").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # a fixed heap (-Xms = -Xmx) keeps GC sizing the same from run to run
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory {DRIVER_MEMORY} --driver-java-options -Xms{DRIVER_MEMORY} pyspark-shell")
    sys.path.insert(0, str(Path("src").resolve()))


def start_session(master: str):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench").master(master)
    for k, v in {
        **SESSION_CONF,
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str((WORK / "local").resolve()),
        "spark.sql.warehouse.dir": str((WORK / "warehouse").resolve()),
    }.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown() -> None:
    """Stop Spark, then end the JVM and wait for it."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    if (s := SparkSession.getActiveSession()) is not None:
        s.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def provenance(spark, args) -> dict:
    sc = spark.sparkContext
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "spark": spark.version,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "session": {k: spark.conf.get(k) for k in SESSION_CONF},
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Fewer than 11 samples leave no such percentile; the maximum is reported.
    """
    v = sorted(values)
    if len(v) < 11:
        return v[-1], 100.0
    i = len(v) - 11
    return v[i], 100.0 * (i + 1) / len(v)


class Bench:
    """One run: a workload's inputs, its fits, and their checks."""

    def __init__(self, spark, workload, seed: int):
        from workloads import Checker

        self.spark, self.wl, self.seed = spark, workload, seed
        self.checker = Checker(workload)
        self.fits: list[FitResult] = []

    def build(self):
        from workloads import build

        t = time.perf_counter()
        self.inputs = build(self.spark, self.wl, self.seed)
        return time.perf_counter() - t

    def unpersist(self) -> None:
        for inp in self.inputs:
            inp.df.unpersist(blocking=True)

    def fit(self, inp, tracer=None) -> FitResult:
        """One fit plus the caller's action, timed; then its checks, untimed."""
        from repro.core.adawave import adawave
        from workloads import act

        span = tracer.span if tracer else (lambda *_: nullcontext())
        r = FitResult(inp.name, inp.n, 0.0)
        t0 = time.perf_counter()
        try:
            with tracer.fit(inp.df) if tracer else nullcontext():
                with span("adawave", "call"):
                    out, model = adawave(inp.df, inp.features, keep_model=True)
                if tracer:
                    tracer.tag(out, "adawave.label")
                with span("adawave.label", "exec"):
                    result = act(self.wl, out)
            r.seconds = time.perf_counter() - t0
            r.k = model.n_clusters
            if tracer:
                r.layers = tracer.fit_metrics(model, inp.n)
                r.breakdown = tracer.breakdown()
            r.error = self.checker.check(inp, out, model.n_clusters, result)
        except Exception as e:  # a failed fit is counted, never a crash
            r.seconds = r.seconds or time.perf_counter() - t0
            r.error = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        if r.error:
            print(f"FAILED fit of {inp.name}: {r.error}", file=sys.stderr)
        self.fits.append(r)
        return r

    def round(self, tracer=None) -> list[FitResult]:
        """One fit of every input, starting after the first (which is fitted cold)."""
        return [self.fit(inp, tracer) for inp in self.inputs[1:] + self.inputs[:1]]


def run_untraced(bench: Bench, seconds: float, session_s: float) -> dict:
    builds = []
    for i in range(SETUP_REPS):
        if i:
            bench.unpersist()
        builds.append(bench.build())
    first = bench.fit(bench.inputs[0])
    bench.round()  # JIT warm-up, not measured: see WARM_UP
    warm: list[FitResult] = []
    t = time.perf_counter()
    while time.perf_counter() - t < seconds or len(warm) < MIN_WARM:
        warm += bench.round()
    times = [f.seconds for f in warm]
    tail_s, tail_pct = tail(times)
    print(f"  setup: session {session_s:.3f} s + median of builds {[round(b, 3) for b in builds]}")
    print(f"  warm fits: n={len(times)} {[round(x, 3) for x in times]}; fit_s_tail is p{tail_pct:g} of n={len(times)}")
    return {
        "setup_s": session_s + statistics.median(builds),
        "first_fit_s": first.seconds,
        "fit_s_p50": statistics.median(times),
        "fit_s_tail": tail_s,
        "rows_per_s": sum(f.rows for f in warm) / sum(times),
        "py_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(bench: Bench) -> dict:
    import repro.core.adawave as adawave_module
    from tracer import Tracer

    bench.build()
    bench.fit(bench.inputs[0])  # cold fit: sets the reference labels
    bench.round()  # JIT warm-up, not measured: see WARM_UP
    tracer = Tracer(bench.spark, adawave_module)
    traced, untraced = [], []
    for on in TRACE_ORDER:
        if not on:
            untraced += bench.round()
            continue
        tracer.install()
        try:
            traced += bench.round(tracer)
        finally:
            tracer.uninstall()
    if tracer.absent:
        print(f"  absent layers (names not bound): {', '.join(tracer.absent)}")
    for f in traced:
        print(f"  traced fit [{f.input}] {f.seconds:.3f} s: {f.breakdown}")
    ok = [f.layers for f in traced if f.layers]
    m = {k: statistics.median(d[k] for d in ok) for k in ok[0]} if ok else {}
    m["trace.overhead_s"] = statistics.median(f.seconds for f in traced) - statistics.median(
        f.seconds for f in untraced)
    m["ami_signal"] = bench.checker.ami_signal()

    # single-core baseline: same JVM, a fresh local[1] context, same inputs
    bench.unpersist()
    bench.spark.stop()
    bench.spark = start_session("local[1]")
    bench.build()
    single = bench.round()
    m["spark.parallel_speedup"] = statistics.mean(f.seconds for f in single) / statistics.mean(
        f.seconds for f in untraced)
    print(f"  local[1] fits {[round(f.seconds, 3) for f in single]} vs {MASTER} "
          f"{[round(f.seconds, 3) for f in untraced]}")
    m["spark.jvm_peak_rss_mb"] = jvm_peak_rss_mb(bench.spark)
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (Path("BENCHMARK.json").is_file() and (Path("src") / "repro" / "core" / "adawave.py").is_file()):
        print("perfbench: run from the repository root (needs BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    configure_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        spark = start_session(MASTER)
        session_s = time.perf_counter() - _T0
        print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
        print("provenance " + json.dumps(provenance(spark, args)))
        bench = Bench(spark, wl, args.seed)
        values = run_traced(bench) if args.trace else run_untraced(bench, args.seconds, session_s)
    finally:
        shutdown()
        shutil.rmtree(WORK, ignore_errors=True)

    failed = sum(1 for f in bench.fits if f.error)
    # a metric is missing only when every traced fit failed; the result then says correct: false
    metrics = {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]} for s in spec}
    for name, v in metrics.items():
        print(f"  {name:<28} {v['value']:.6g} {v['unit']}")
    ks = {f.input: f.k for f in bench.fits}
    print(f"  ami_signal {bench.checker.ami_signal():.4f}; clusters found {ks}")
    print(f"  checks: fail_frac {failed / len(bench.fits):g} ({failed} of {len(bench.fits)} fits failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.fits), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: oracle-checked WIREFRAME query latency.

    python3 perfbench/run.py --workload wf-snowflake --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each Table-1 query of the workload
is evaluated with ``wireframe.count_embeddings`` only after the previous
one returned, and every result is checked against a DuckDB count of the
same conjunctive query over the same generated triples (computed once per
seed, outside timing). Whole passes over the workload's queries are run
until ``--seconds`` have elapsed, so every query has the same number of
samples.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run that prints the per-layer metrics: it times untraced passes, traced
passes that re-create ``wireframe.run`` call by call under spans
(``layers.py``), and a PG direct-join pass on the same queries, and runs an
untimed stats pass for the counts that repeat exactly. The last line of
stdout is one JSON object; the full record (metadata, per-query values,
spans) is written to ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"

# Data and engine settings, recorded in every result. SF 0.01 (about 21k
# triples) keeps a run, three set-ups included, near one minute: WF
# latency is dominated by its ~100 Spark jobs per snowflake query, not by
# data volume, so a larger SF mostly lengthens set-up.
SF = 0.01
SETUPS = 3  # setup_s is the median of this many full set-ups per run
WARMUP_QUERIES = 1  # untimed WF calls before the timed passes
QUERY_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 120.0
MASTER = f"local[{min(4, os.cpu_count() or 1)}]"
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = 4
# Serial GC sizes the heap from allocation alone (not from pause timing),
# which keeps peak_rss_mb steady on a host whose CPU time is shared.
JAVA_OPTIONS = "-XX:+UseSerialGC"

WORKLOADS = {
    "wf-snowflake": ("S1", "S2", "S3", "S4", "S5"),
    "wf-diamond": ("D6", "D7", "D8", "D9", "D10"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_min": "1/min",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, kind). "count" metrics repeat exactly for a
# given seed and commit; cite them as counts, not as timings.
PER_LAYER = {
    "rdf.yago_lite.generate_s": ("s", "timing"),
    "rdf.triple_store.materialize_s": ("s", "timing"),
    "rdf.triple_store.bytes_per_triple": ("B/triple", "count"),
    "core.catalog.build_s": ("s", "timing"),
    "core.catalog.jobs": ("count", "count"),
    "core.planner.plan_s": ("s", "timing"),
    "core.planner.walks_qerror_max": ("ratio", "count"),
    "core.triangulate.triangulate_s": ("s", "timing"),
    "core.answer_graph.phase1_s": ("s", "timing"),
    "core.answer_graph.jobs": ("count", "count"),
    "core.answer_graph.stages": ("count", "count"),
    "core.answer_graph.extension_walks": ("count", "count"),
    "core.answer_graph.ag_edges": ("count", "count"),
    "core.answer_graph.ag_triples": ("count", "count"),
    "core.answer_graph.survival_ratio": ("ratio", "count"),
    "core.answer_graph.fixpoint_gap": ("ratio", "count"),
    "core.answer_graph.cached_rdds_leaked": ("count", "count"),
    "core.defactorize.phase2_s": ("s", "timing"),
    "core.defactorize.jobs": ("count", "count"),
    "core.defactorize.embeddings_per_ag_edge": ("ratio", "count"),
    "core.wireframe.query_jobs": ("count", "count"),
    "core.wireframe.query_stages": ("count", "count"),
    "baselines.direct_join.query_s": ("s", "timing"),
    "baselines.direct_join.jobs": ("count", "count"),
    "baselines.direct_join.stages": ("count", "count"),
    "baselines.direct_join.work_tuples": ("count", "count"),
    "experiments.workcount.work_tuples": ("count", "count"),
    "trace.overhead_s": ("s", "timing"),
    "trace.coverage": ("ratio", "timing"),
    "trace.mirror_mismatches": ("count", "count"),
}


@dataclass
class Call:
    """One oracle-checked query evaluation."""

    query: str
    phase: str  # warmup | stats | untraced | traced | pg
    seconds: float
    result: int | None
    expected: int
    error: str | None = None
    jobs: int | None = None
    stages: int | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result == self.expected


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; with fewer than eleven samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def mem_total_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def wf(triples, catalog, q):
    """The timed WF call: full evaluation, caches released."""
    from repro.core import wireframe

    return lambda: wireframe.count_embeddings(triples, q, catalog)


def pg(triples, catalog, q):
    """The PG direct-join reference call."""
    from repro.baselines import pg_sim

    return lambda: pg_sim(triples, q, catalog).count()


class Bench:
    """State of one benchmark run: the Spark session and what it measured."""

    def __init__(self, args: argparse.Namespace, work: Path):
        from repro.core.queries_table1 import PAPER_TABLE1

        self.args = args
        self.work = work
        by_name = {r.query.name: r.query for r in PAPER_TABLE1}
        self.queries = [by_name[n] for n in WORKLOADS[args.workload]]
        self.spark = None
        self.calls: list[Call] = []
        self.setups: list[dict] = []
        self.pdf = None
        self.expected: dict[str, int] = {}
        self.ticks0 = cpu_ticks()

    # -- data, oracle, set-up -------------------------------------------
    def oracle(self) -> None:
        """Expected result count per query, from DuckDB (untimed)."""
        import duckdb

        from repro.rdf.yago_lite import yago_lite_pdf

        self.pdf = yago_lite_pdf(sf=SF, seed=self.args.seed)
        con = duckdb.connect()
        try:
            con.register("triples", self.pdf)
            for q in self.queries:
                sql = f"SELECT COUNT(*) FROM ({q.to_sql()})"
                self.expected[q.name] = con.execute(sql).fetchone()[0]
        finally:
            con.close()

    def _session(self):
        from pyspark.sql import SparkSession

        s = (
            SparkSession.builder.appName("perfbench")
            .master(MASTER)
            .config("spark.driver.memory", DRIVER_MEMORY)
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.extraJavaOptions", JAVA_OPTIONS)
            .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", "-1")
            .config("spark.sql.adaptive.autoBroadcastJoinThreshold", "-1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .getOrCreate()
        )
        s.sparkContext.setLogLevel("ERROR")
        return s

    def setup(self, i: int):
        """One full set-up: session start, generation, Parquet store,
        catalog. Returns (triples, catalog)."""
        from layers import job_counts, owned_call
        from repro.core.catalog import build_catalog
        from repro.rdf import triple_store
        from repro.rdf.yago_lite import yago_lite

        if self.spark is not None:
            self.spark.stop()
        path = self.work / f"store-{i}"
        t0 = time.perf_counter()
        self.spark = self._session()
        t1 = time.perf_counter()
        df = yago_lite(self.spark, sf=SF, seed=self.args.seed)
        t2 = time.perf_counter()
        triples = triple_store.materialize(self.spark, df, str(path))
        t3 = time.perf_counter()
        sc = self.spark.sparkContext
        catalog, group = owned_call(sc, lambda: build_catalog(triples), SETUP_TIMEOUT_S)
        t4 = time.perf_counter()
        jobs, stages = job_counts(sc, group)
        self.setups.append(
            {
                "setup_s": t4 - t0,
                "session_s": t1 - t0,
                "generate_s": t2 - t1,
                "materialize_s": t3 - t2,
                "catalog_s": t4 - t3,
                "catalog_jobs": jobs,
                "catalog_stages": stages,
                "store_bytes": dir_bytes(path),
            }
        )
        return triples, catalog

    # -- calls --------------------------------------------------------------
    def call(self, q, phase: str, fn, *, count_jobs: bool = False) -> Call:
        """Time one oracle-checked evaluation under a benchmark-owned job group."""
        from layers import Timeout, job_counts, owned_call

        sc = self.spark.sparkContext
        group, result, error = None, None, None
        t0 = time.perf_counter()
        try:
            result, group = owned_call(sc, fn, QUERY_TIMEOUT_S)
        except Timeout as e:
            error = f"timeout: {e}"
        except Exception as e:  # noqa: BLE001 - every failure is counted, none skipped
            error = f"{type(e).__name__}: {e}"[:500]
        dt = time.perf_counter() - t0
        c = Call(q.name, phase, dt, result, self.expected[q.name], error)
        if count_jobs and group is not None:
            c.jobs, c.stages = job_counts(sc, group)
        self.calls.append(c)
        return c

    # -- runs ---------------------------------------------------------------
    def run(self) -> dict:
        self.oracle()
        for i in range(SETUPS):
            triples, catalog = self.setup(i)
            if i:
                shutil.rmtree(self.work / f"store-{i - 1}", ignore_errors=True)
        if self.args.trace:
            return self.run_traced(triples, catalog)
        return self.run_untraced(triples, catalog)

    def run_untraced(self, triples, catalog) -> dict:
        for q in self.queries[:WARMUP_QUERIES]:
            self.call(q, "warmup", wf(triples, catalog, q))
        t0 = time.perf_counter()
        passes = 0
        while True:
            for q in self.queries:
                self.call(q, "untraced", wf(triples, catalog, q))
            passes += 1
            if time.perf_counter() - t0 >= self.args.seconds:
                break
        wall = time.perf_counter() - t0
        timed = [c for c in self.calls if c.phase == "untraced"]
        lat = [c.seconds for c in timed]
        tail_v, tail_p, n = tail(lat)
        metrics = {
            "setup_s": median_of([s["setup_s"] for s in self.setups]),
            "queries_per_min": 60.0 * sum(c.ok for c in timed) / wall,
            "latency_p50_s": median_of(lat),
            "latency_tail_s": tail_v,
            "peak_rss_mb": self.peak_rss_mb(),
        }
        return {
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            "passes": passes,
            "timed_wall_s": wall,
            "latency_tail_percentile": tail_p,
            "latency_samples": n,
        }

    def run_traced(self, triples, catalog) -> dict:
        from layers import Tracer

        stats = {q.name: self.stats(triples, catalog, q) for q in self.queries}
        tracer = Tracer(self.spark.sparkContext)
        t0 = time.perf_counter()
        passes = 0
        while True:
            for j, q in enumerate(self.queries):
                # alternate which of the pair runs first, so neither is
                # systematically the warmer one in trace.overhead_s
                if (j + passes) % 2:
                    self.traced_call(tracer, triples, catalog, q, stats[q.name])
                self.call(q, "untraced", wf(triples, catalog, q), count_jobs=True)
                if not (j + passes) % 2:
                    self.traced_call(tracer, triples, catalog, q, stats[q.name])
                self.call(q, "pg", pg(triples, catalog, q), count_jobs=True)
            passes += 1
            if time.perf_counter() - t0 >= self.args.seconds:
                break
        wall = time.perf_counter() - t0
        per_query = {q.name: self.per_query(tracer, stats[q.name], q.name) for q in self.queries}
        metrics = self.layer_metrics(per_query)
        return {
            "metrics": {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()},
            "kinds": {k: PER_LAYER[k][1] for k in metrics},
            "passes": passes,
            "timed_wall_s": wall,
            "per_query": per_query,
            "spans": tracer.to_json(),
            "trace_stale": metrics["trace.mirror_mismatches"] > 0,
        }

    def traced_call(self, tracer, triples, catalog, q, stats: dict) -> None:
        """One traced WF evaluation; records the AG edge counts it built and
        the cached RDDs it left behind in ``stats``."""
        from layers import traced_wireframe

        before = self.persistent_rdds()
        error, result, dt = None, None, 0.0
        try:
            result, sizes, top = traced_wireframe(tracer, triples, q, catalog)
            dt = top.duration
            stats["ag_edges"] = sum(sizes.values())
        except Exception as e:  # noqa: BLE001 - counted as a failed call
            error = f"{type(e).__name__}: {e}"[:500]
        tracer.resolve()
        # RDDs this call cached and did not release; older ones that Spark's
        # cleaner frees meanwhile are not counted against it
        stats.setdefault("cached_rdds_leaked", []).append(
            len(self.persistent_rdds() - before)
        )
        self.calls.append(Call(q.name, "traced", dt, result, self.expected[q.name], error))

    def persistent_rdds(self) -> set[str]:
        ids = self.spark.sparkContext._jsc.getPersistentRDDs().keySet().toString()
        return {x.strip() for x in ids.strip("[]").split(",") if x.strip()}

    def stats(self, triples, catalog, q) -> dict:
        """Untimed counts that repeat exactly for a seed and commit, from
        ``wireframe.run(instrument=True)`` (AG at the node-burnback fixpoint,
        as in the Table-1 harness). Also warms WF up on the query."""
        from repro.core import wireframe
        from repro.core.cardinality import Estimator
        from repro.experiments.workcount import baseline_work, wireframe_work

        box: dict = {}

        def instrumented() -> int:
            r = wireframe.run(triples, q, catalog, instrument=True)
            try:
                box.update(
                    order=r.plan.order,
                    walks=dict(r.ag.extension_walks),
                    fixpoint=dict(r.ag_edge_counts),
                    ag_triples=r.ag_triples,
                )
                return r.embedding_count
            finally:
                r.unpersist()

        c = self.call(q, "stats", instrumented)
        if c.error is not None:
            raise RuntimeError(f"stats pass failed on {q.name}: {c.error}")
        order, walks = box["order"], box["walks"]
        est = Estimator(catalog, q)
        qerr = 1.0
        for k, i in enumerate(order):
            e = max(est.extension_walks(frozenset(order[:k]), i), 1.0)
            a = max(float(walks[i]), 1.0)
            qerr = max(qerr, e / a, a / e)
        return {
            "order": list(order),
            "extension_walks": sum(walks.values()),
            "ag_edges_fixpoint": sum(box["fixpoint"].values()),
            "ag_triples": box["ag_triples"],
            "walks_qerror_max": qerr,
            "work_tuples": wireframe_work(box["fixpoint"], walks).total,
            "pg_work_tuples": baseline_work(self.pdf, q, catalog, "PG").total,
        }

    def per_query(self, tracer, stats: dict, name: str) -> dict:
        from layers import PHASE1, PHASE2, PLAN, QUERY, TRIANGULATE

        tops = [s for s in tracer.spans if s.name == QUERY and s.query == name]
        layer: dict[str, list[float]] = {}
        jobs: dict[str, int] = {}
        stages: dict[str, int] = {}
        coverage = []
        for top in tops:
            kids = tracer.children(top)
            for k in kids:
                layer.setdefault(k.name, []).append(k.duration)
                jobs[k.name], stages[k.name] = k.jobs, k.stages
            coverage.append(1.0 - tracer.self_time(top) / top.duration)
        untraced = [c for c in self.calls if c.query == name and c.phase == "untraced"]
        traced = [c for c in self.calls if c.query == name and c.phase == "traced"]
        ref = [c for c in self.calls if c.query == name and c.phase == "pg"]
        traced_jobs = {t.jobs + sum(k.jobs for k in tracer.children(t)) for t in tops}
        mirror_ok = all(c.ok for c in untraced + traced) and {
            u.jobs for u in untraced
        } == traced_jobs
        med = {k: median_of(v) for k, v in layer.items()}
        return {
            **stats,
            "expected": self.expected[name],
            "plan_s": med.get(PLAN, 0.0),
            "triangulate_s": med.get(TRIANGULATE, 0.0),
            "phase1_s": sum(med.get(k, 0.0) for k in PHASE1),
            "phase1_jobs": sum(jobs.get(k, 0) for k in PHASE1),
            "phase1_stages": sum(stages.get(k, 0) for k in PHASE1),
            "phase2_s": sum(med.get(k, 0.0) for k in PHASE2),
            "phase2_jobs": sum(
                v for k, v in jobs.items() if k.startswith("core.defactorize.")
            ),
            "layer_s": med,
            "layer_jobs": jobs,
            "layer_stages": stages,
            "traced_s": median_of([c.seconds for c in traced]),
            "untraced_s": median_of([c.seconds for c in untraced]),
            "query_jobs": untraced[0].jobs if untraced else None,
            "query_stages": untraced[0].stages if untraced else None,
            "traced_jobs": sorted(traced_jobs),
            "coverage": median_of(coverage),
            "pg_s": median_of([c.seconds for c in ref]),
            "pg_jobs": ref[0].jobs if ref else None,
            "pg_stages": ref[0].stages if ref else None,
            "mirror_ok": mirror_ok,
        }

    def layer_metrics(self, per_query: dict) -> dict[str, float]:
        """Workload aggregates: means per query, except the ratios, which
        are taken over the workload's totals, and the q-error maximum."""
        rows = list(per_query.values())

        def mean(key: str) -> float:
            return statistics.fmean(float(r[key]) for r in rows)

        def total(key: str) -> float:
            return float(sum(r[key] for r in rows))

        s0 = self.setups
        return {
            "rdf.yago_lite.generate_s": median_of([s["generate_s"] for s in s0]),
            "rdf.triple_store.materialize_s": median_of([s["materialize_s"] for s in s0]),
            "rdf.triple_store.bytes_per_triple": s0[-1]["store_bytes"] / len(self.pdf),
            "core.catalog.build_s": median_of([s["catalog_s"] for s in s0]),
            "core.catalog.jobs": float(s0[-1]["catalog_jobs"]),
            "core.planner.plan_s": mean("plan_s"),
            "core.planner.walks_qerror_max": max(r["walks_qerror_max"] for r in rows),
            "core.triangulate.triangulate_s": mean("triangulate_s"),
            "core.answer_graph.phase1_s": mean("phase1_s"),
            "core.answer_graph.jobs": mean("phase1_jobs"),
            "core.answer_graph.stages": mean("phase1_stages"),
            "core.answer_graph.extension_walks": mean("extension_walks"),
            "core.answer_graph.ag_edges": mean("ag_edges"),
            "core.answer_graph.ag_triples": mean("ag_triples"),
            "core.answer_graph.survival_ratio": total("ag_edges")
            / total("extension_walks"),
            "core.answer_graph.fixpoint_gap": total("ag_edges")
            / total("ag_edges_fixpoint"),
            "core.answer_graph.cached_rdds_leaked": statistics.fmean(
                x for r in rows for x in r["cached_rdds_leaked"]
            ),
            "core.defactorize.phase2_s": mean("phase2_s"),
            "core.defactorize.jobs": mean("phase2_jobs"),
            "core.defactorize.embeddings_per_ag_edge": total("expected")
            / total("ag_edges"),
            "core.wireframe.query_jobs": mean("query_jobs"),
            "core.wireframe.query_stages": mean("query_stages"),
            "baselines.direct_join.query_s": mean("pg_s"),
            "baselines.direct_join.jobs": mean("pg_jobs"),
            "baselines.direct_join.stages": mean("pg_stages"),
            "baselines.direct_join.work_tuples": mean("pg_work_tuples"),
            "experiments.workcount.work_tuples": mean("work_tuples"),
            "trace.overhead_s": statistics.fmean(
                r["traced_s"] - r["untraced_s"] for r in rows
            ),
            "trace.coverage": mean("coverage"),
            "trace.mirror_mismatches": float(sum(not r["mirror_ok"] for r in rows)),
        }

    # -- teardown -------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """Peak resident memory of this driver plus its Spark JVM."""
        jvm = self.spark.sparkContext._gateway.proc.pid
        return vm_hwm_mb(os.getpid()) + vm_hwm_mb(jvm)

    def metadata(self) -> dict:
        import duckdb
        import pyspark

        steal, total = cpu_ticks()
        return {
            "nproc": os.cpu_count(),
            "mem_total_mb": mem_total_mb(),
            "spark_master": MASTER,
            "driver_memory": DRIVER_MEMORY,
            "shuffle_partitions": SHUFFLE_PARTITIONS,
            "java_options": JAVA_OPTIONS,
            # share of CPU time the hypervisor gave to other guests during
            # the run; a high value marks a run measured on a busy host
            "host_steal_share": (steal - self.ticks0[0]) / max(total - self.ticks0[1], 1),
            "pyspark": pyspark.__version__,
            "duckdb": duckdb.__version__,
            "python": sys.version.split()[0],
            "sf": SF,
            "seed": self.args.seed,
            "triples": len(self.pdf),
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
            "setups": SETUPS,
            "warmup_queries": WARMUP_QUERIES if not self.args.trace else "stats pass",
            "query_timeout_s": QUERY_TIMEOUT_S,
            "workload": self.args.workload,
            "queries": [q.name for q in self.queries],
            "clients": 1,
            "loop": "closed",
        }

    def close(self) -> None:
        """Stop Spark and wait for its JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is None:
            return
        proc = gateway.proc
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits at EOF on its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # keep every temporary file of Python, the Spark launcher and the JVM
    # inside the checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}"
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    sys.path.insert(0, str(ROOT / "src"))

    bench = Bench(args, work)
    try:
        out = bench.run()
        meta = bench.metadata()
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    calls = bench.calls
    failed = [c for c in calls if not c.ok]
    record = {
        "metadata": meta,
        "failed_share": len(failed) / len(calls),
        "setups": bench.setups,
        "calls": [asdict(c) for c in calls],
        **{k: v for k, v in out.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# perfbench {tag}: SF {SF}, {meta['triples']} triples, {MASTER}, "
          f"{out['passes']} pass(es) in {out['timed_wall_s']:.1f} s, "
          f"host steal {meta['host_steal_share']:.1%}")
    for k, (v, u) in out["metrics"].items():
        print(f"{k} = {v:.6g} {u}")
    print(f"failed_share = {len(failed) / len(calls):.6g} share "
          f"({len(failed)} of {len(calls)} calls)")
    if "latency_samples" in out:
        print(f"latency_tail_s is p{out['latency_tail_percentile']:.1f} "
              f"of {out['latency_samples']} samples")
    if out.get("trace_stale"):
        print("TRACE STALE: the traced mirror of wireframe.run disagrees with "
              "the untraced call; per-layer numbers are not trustworthy")
    for c in failed:
        print(f"FAILED {c.phase} {c.query}: got {c.result}, expected {c.expected}, "
              f"error {c.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing of the program's layers.

Spans are recorded by the benchmark around calls into public functions of
``repro``; the program itself is not instrumented. Every span runs under
its own Spark job group, so the jobs and stages a layer launched are read
back from ``statusTracker()`` after the span ends (outside its interval).
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark import SparkContext
from pyspark.sql import DataFrame

from repro.core import answer_graph as agmod
from repro.core import defactorize, planner, triangulate
from repro.core.catalog import Catalog
from repro.core.query import QueryGraph

_JOB_GROUP = "spark.jobGroup.id"


def job_counts(sc: SparkContext, group: str) -> tuple[int, int]:
    """(jobs, stages) Spark ran under ``group``; works with the UI disabled."""
    tracker = sc.statusTracker()
    ids = tracker.getJobIdsForGroup(group)
    stages = 0
    for j in ids:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages += len(info.stageIds)
    return len(ids), stages


class Timeout(Exception):
    """The call's job group was cancelled after the per-call budget."""


def owned_call(sc: SparkContext, fn, timeout_s: float):
    """``(result, group)`` of ``fn()`` run under a new job group owned by
    the caller; the group is cancelled if ``fn`` outlives ``timeout_s``.

    Runs on the calling thread, so no call is ever abandoned: a cancelled
    job raises in ``fn`` and that is reported as ``Timeout``.
    """
    group = f"perfbench-{uuid.uuid4().hex[:12]}"
    fired = threading.Event()

    def cancel() -> None:
        fired.set()
        sc.cancelJobGroup(group)

    timer = threading.Timer(timeout_s, cancel)
    sc.setJobGroup(group, "perfbench call", True)
    timer.start()
    try:
        return fn(), group
    except Exception as e:
        if fired.is_set():
            raise Timeout(f"cancelled after {timeout_s:.0f}s") from e
        raise
    finally:
        timer.cancel()
        timer.join()
        sc.setLocalProperty(_JOB_GROUP, None)


@dataclass
class Span:
    id: int
    name: str
    query: str | None
    parent: int | None
    start: float
    end: float = 0.0
    group: str = ""
    jobs: int = 0
    stages: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder; one job group per span."""

    sc: SparkContext
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter)

    @contextmanager
    def span(self, name: str, query: str | None = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(
            len(self.spans),
            name,
            query if query is not None else (parent.query if parent else None),
            parent.id if parent else None,
            0.0,
            group=f"perfbench-{uuid.uuid4().hex[:12]}",
        )
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(s.group, name, False)
        s.start = time.perf_counter() - self._t0
        try:
            yield s
        finally:
            s.end = time.perf_counter() - self._t0
            self._stack.pop()
            if parent is not None:
                self.sc.setJobGroup(parent.group, parent.name, False)
            else:
                self.sc.setLocalProperty(_JOB_GROUP, None)

    def resolve(self) -> None:
        """Fill jobs/stages of every closed span (call outside timed code)."""
        for s in self.spans:
            if s.group:
                s.jobs, s.stages = job_counts(self.sc, s.group)
                s.group = ""

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it covered by child spans."""
        return span.duration - sum(c.duration for c in self.children(span))

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "query": s.query,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "jobs": s.jobs,
                "stages": s.stages,
            }
            for s in self.spans
        ]


# Layer spans of one WIREFRAME query, in ``wireframe.run``'s call order.
# A query's phase 1 is its AG build plus ``edge_counts`` (the build is lazy;
# ``edge_counts`` is the first action and runs every extension and sweep);
# phase 2 is ``embeddings`` plus the final ``count``.
PLAN = "core.planner.plan"
TRIANGULATE = "core.triangulate.triangulate_query"
BUILD = "core.answer_graph.build_answer_graph"
EDGE_COUNTS = "core.answer_graph.edge_counts"
GREEDY = "core.defactorize.greedy_order"
EMBEDDINGS = "core.defactorize.embeddings"
COUNT = "core.defactorize.count"
UNPERSIST = "core.answer_graph.unpersist"
QUERY = "core.wireframe.query"
PHASE1 = (BUILD, EDGE_COUNTS)
PHASE2 = (EMBEDDINGS, COUNT)


def traced_wireframe(
    tr: Tracer, triples: DataFrame, query: QueryGraph, catalog: Catalog
) -> tuple[int, dict[int, int], Span]:
    """``wireframe.count_embeddings`` re-created call by call under spans;
    returns the embedding count, the AG edge counts and the query span.

    Must stay in step with ``wireframe.run``; the benchmark's mirror check
    compares its result and total job count with the untraced call.
    """
    with tr.span(QUERY, query.name) as top:
        with tr.span(PLAN):
            p = planner.plan(query, catalog)
        with tr.span(TRIANGULATE):
            triangulate.triangulate_query(query, catalog)
        with tr.span(BUILD):
            ag = agmod.build_answer_graph(triples, query, p.order)
        try:
            with tr.span(EDGE_COUNTS):
                sizes = ag.edge_counts()
            with tr.span(GREEDY):
                order = defactorize.greedy_order(ag, sizes)
            with tr.span(EMBEDDINGS):
                emb = defactorize.embeddings(ag, order)
            with tr.span(COUNT):
                n = emb.count()
        finally:
            with tr.span(UNPERSIST):
                ag.unpersist()
    return n, sizes, top

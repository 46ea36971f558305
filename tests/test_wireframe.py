"""End-to-end WIREFRAME: correctness vs oracle, factorization invariants."""
from __future__ import annotations

import uuid

import duckdb
import pytest

from repro.core import wireframe
from repro.core.queries_table1 import ALL_QUERIES, DIAMONDS, SNOWFLAKES
from repro.oracle import assert_equivalent

SMALL = [q for q in ALL_QUERIES if q.name not in ("S2", "S3", "S4")]
BIG = [q for q in ALL_QUERIES if q.name in ("S2", "S3", "S4")]


def _expected_count(triples_pdf, q) -> int:
    con = duckdb.connect()
    con.register("triples", triples_pdf)
    return con.execute(f"SELECT COUNT(*) FROM ({q.to_sql()})").fetchone()[0]


@pytest.mark.parametrize("q", SMALL, ids=lambda q: q.name)
def test_wireframe_matches_oracle(triples, triples_pdf, catalog, q):
    r = wireframe.run(triples, q, catalog)
    assert_equivalent(r.embedding_df, q.to_sql(), triples=triples_pdf)
    r.unpersist()


@pytest.mark.parametrize("q", BIG, ids=lambda q: q.name)
def test_wireframe_matches_oracle_count(triples, triples_pdf, catalog, q):
    assert wireframe.count_embeddings(triples, q, catalog) == _expected_count(
        triples_pdf, q
    )


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_instrumented_run_fields(triples, triples_pdf, catalog, q):
    r = wireframe.run(triples, q, catalog, instrument=True)
    try:
        assert r.embedding_count == _expected_count(triples_pdf, q)
        assert r.ag_triples is not None and r.ag_triples > 0
        assert set(r.ag_edge_counts) == set(range(len(q.edges)))
        assert r.ag_triples <= sum(r.ag_edge_counts.values())
        assert (r.triangulation is None) == q.is_tree()
    finally:
        r.unpersist()


@pytest.mark.parametrize("q", SNOWFLAKES, ids=lambda q: q.name)
def test_snowflake_ag_much_smaller_than_embeddings(triples, catalog, q):
    """The paper's core claim: |AG| << |embeddings| for snowflakes.

    At the SF=0.01 test scale S5's fan-through is barely populated (its
    embedding count collapses to ~60), so it only gets the weak bound;
    at bench scale (SF=0.1) all five are 15x-394x (EXPERIMENTS.md).
    """
    r = wireframe.run(triples, q, catalog, instrument=True)
    try:
        if q.name == "S5":
            assert r.ag_triples <= 2 * r.embedding_count
        else:
            assert r.ag_triples < r.embedding_count
    finally:
        r.unpersist()


def test_ag_not_larger_than_data(triples, catalog):
    n = triples.count()
    r = wireframe.run(triples, SNOWFLAKES[0], catalog, instrument=True)
    try:
        assert r.ag_triples <= n
    finally:
        r.unpersist()


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_edge_burnback_shrinks_ag_preserves_result(triples, triples_pdf, catalog, q):
    base = wireframe.run(triples, q, catalog, instrument=True)
    eb = wireframe.run(triples, q, catalog, instrument=True, use_edge_burnback=True)
    try:
        assert eb.embedding_count == base.embedding_count == _expected_count(
            triples_pdf, q
        )
        assert eb.ag_triples <= base.ag_triples
    finally:
        base.unpersist()
        eb.unpersist()


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_edge_burnback_yields_ideal_ag(triples, catalog, q):
    """After edge burnback every AG edge participates in an embedding."""
    r = wireframe.run(triples, q, catalog, instrument=True, use_edge_burnback=True)
    try:
        emb = r.embedding_df
        for i, e in enumerate(q.edges):
            used = emb.select(e.src, e.dst).distinct().count()
            assert r.ag_edge_counts[i] == used, (q.name, i)
    finally:
        r.unpersist()


def test_edge_burnback_rejected_for_trees(triples, catalog):
    with pytest.raises(ValueError):
        wireframe.run(triples, SNOWFLAKES[0], catalog, use_edge_burnback=True)


def test_count_embeddings_repeatable(triples, catalog):
    """Repeated evaluations are deterministic and leave no stale state."""
    a = wireframe.count_embeddings(triples, DIAMONDS[0], catalog)
    b = wireframe.count_embeddings(triples, DIAMONDS[0], catalog)
    assert a == b > 0


def test_count_embeddings_releases_caches(spark, triples, catalog):
    """Every checkpointed AG relation is released after the final count.
    Compared as id sets: Spark's cleaner may free older RDDs meanwhile."""
    jsc = spark.sparkContext._jsc

    def cached() -> set[int]:
        return set(jsc.getPersistentRDDs().keySet().toArray())

    before = cached()
    wireframe.count_embeddings(triples, SNOWFLAKES[0], catalog)
    assert cached() - before == set()


def test_snowflake_job_budget(spark, triples, catalog):
    """S1 runs in at most 40 Spark jobs (36: one broadcast job per
    semijoin and per defactorization join, plus the counts), so per-step
    shuffle jobs cannot creep back into phase 1 unnoticed."""
    sc = spark.sparkContext
    group = f"job-budget-{uuid.uuid4().hex[:8]}"
    sc.setJobGroup(group, "S1 job budget")
    try:
        wireframe.count_embeddings(triples, SNOWFLAKES[0], catalog)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 40

"""Answer-graph generation: edge extension + node burnback (+ edge burnback).

Phase 1 of the paper's evaluation model. Given a plan (a connected order
of query edges), each query edge is materialized as the set of matching
data edges that satisfy the join constraints with the current answer
graph (*edge extension*, a predicate scan semijoined with the bound node
sets), and nodes that fail to extend are removed with removals cascading
backwards through previously materialized edges (*node burnback*).

Spark realization: extension and burnback are broadcast ``left_semi``
joins of an edge relation with one column of a neighbouring relation.
The extension pass runs in plan order. For a tree CQ the plan order
induces a rooted join tree — an edge's parent is the most recent earlier
edge bound to their shared variable — and node burnback is one bottom-up
and one top-down pass of single-sided semijoins along it: the Yannakakis
full reducer, whose result is the full semijoin reduction, the **ideal
answer graph** (iAG). For cyclic CQs burnback runs in *sweeps* (backward,
forward, …) that semijoin both endpoints of every edge and monotonically
shrink toward the node-burnback fixpoint (reachable with
``to_fixpoint=True``). Any prefix of passes is sound — no edge that
participates in an embedding is ever removed — so phase 2 stays correct
regardless of convergence, exactly as in the paper where node burnback
alone leaves a correct but possibly non-ideal AG.

``edge_burnback`` implements the paper's §4 edge-burnback mechanism over
a triangulated cycle: chords are maintained as intersections of the
join-projections of their triangles' opposite sides, and every side is
semijoined against the join of the other two, to fixpoint — restoring the
iAG for cyclic CQs (the paper describes this but evaluates without it;
our Table-1 harness follows the paper and disables it).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from py4j.protocol import Py4JError
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.query import QueryGraph
from repro.core.triangulate import Triangulation
from repro.rdf import triple_store


@dataclass
class AnswerGraph:
    """Phase-1 output: one reduced edge relation per query edge.

    ``edges[i]`` has exactly two columns named after the i-th query
    edge's variables (subject column first).
    """

    query: QueryGraph
    edges: dict[int, DataFrame]
    order: tuple[int, ...]
    extension_walks: dict[int, int] = field(default_factory=dict)
    sweeps_run: int = 0
    _checkpoints: list = field(default_factory=list)  # JVM RDDs to release

    def edge_counts(self) -> dict[int, int]:
        """Materialized size of each reduced edge relation.

        One Spark job for all edges (a tagged union + groupBy), not one
        count per edge — burnback convergence checks call this per sweep
        and per-action overhead dominates at small AG sizes.
        """
        parts = [
            df.select(F.lit(i).alias("__edge")) for i, df in self.edges.items()
        ]
        tagged = parts[0]
        for p in parts[1:]:
            tagged = tagged.unionByName(p)
        rows = tagged.groupBy("__edge").count().collect()
        counts = {i: 0 for i in self.edges}
        counts.update({r["__edge"]: r["count"] for r in rows})
        return counts

    def triple_count(self) -> int:
        """#distinct data-graph triples in the AG (the paper's AG size).

        Two query edges with the same label can match the same data edge;
        the AG is a sub*graph*, so those count once.
        """
        parts = [
            df.select(
                F.col(self.query.edges[i].src).alias("s"),
                F.lit(self.query.edges[i].label).alias("p"),
                F.col(self.query.edges[i].dst).alias("o"),
            )
            for i, df in self.edges.items()
        ]
        out = parts[0]
        for p in parts[1:]:
            out = out.unionByName(p)
        return out.distinct().count()

    def persist(self, df: DataFrame) -> DataFrame:
        """Cache *and truncate the lineage of* an intermediate relation.

        Burnback is iterative; without truncation every pass multiplies
        the logical-plan tree (each edge references the previous pass's
        relations of its neighbours) and Catalyst analysis time grows
        exponentially with the pass count. ``localCheckpoint`` replaces
        the plan with a cached-RDD leaf; ``eager=False`` keeps laziness so
        untimed work is never forced early.
        """
        out = df.localCheckpoint(eager=False)
        self._checkpoints.append(out._jdf.queryExecution().logical().rdd())
        return out

    def unpersist(self) -> None:
        """Release every checkpointed relation; call after the last action.

        ``DataFrame.unpersist`` does nothing on a ``localCheckpoint``: the
        cache belongs to the RDD behind the plan's ``LogicalRDD`` leaf, so
        that RDD is unpersisted. The AG's relations are unusable after.
        """
        for rdd in self._checkpoints:
            try:
                rdd.unpersist(False)
            except Py4JError:  # the session stopped and took its caches
                pass
        self._checkpoints.clear()


def _scan(triples: DataFrame, query: QueryGraph, i: int) -> DataFrame:
    e = query.edges[i]
    return triple_store.scan(triples, e.label).select(
        F.col("s").alias(e.src), F.col("o").alias(e.dst)
    )


def _semi(df: DataFrame, other: DataFrame, var: str) -> DataFrame:
    """Semijoin with the ``var`` column of another AG relation. AG
    relations are bounded by the AG size — the very quantity the paper
    shows to be tiny — so the column is broadcast explicitly: burnback
    never shuffles the edge relations. It is not deduplicated: a
    broadcast ``left_semi`` join tolerates duplicate keys, and a
    ``distinct`` would cost a shuffle job per step. (The session disables
    *automatic* broadcasting so the baselines' large data-data joins
    exercise the shuffle path; this hint is the WF operator design, not a
    global setting.) The join moves ``var`` to the front; the select
    restores ``df``'s column order."""
    return df.join(F.broadcast(other.select(var)), on=var, how="left_semi").select(
        *df.columns
    )


def _sweep(
    ag: AnswerGraph,
    indices: list[int],
    bound: dict[str, DataFrame],
    walks: dict[int, int] | None = None,
) -> None:
    """One two-sided pass: semijoin every edge with the relation last
    bound to each of its variables, then bind both variables to the
    result (the cascade). ``walks``, if given, receives each edge's size."""
    for i in indices:
        e = ag.query.edges[i]
        df = ag.edges[i]
        for v in e.vars():
            if v in bound:
                df = _semi(df, bound[v], v)
        df = ag.persist(df)
        ag.edges[i] = df
        if walks is not None:
            walks[i] = df.count()
        for v in e.vars():
            bound[v] = df


def _reduce_tree(ag: AnswerGraph, passes: int) -> None:
    """Node burnback on a tree CQ: the Yannakakis full reducer.

    The join tree is the one the plan order induces: an edge's parent is
    the most recent earlier edge bound to their shared variable (the
    relation it was extended from). Pass 1 semijoins each edge with its
    children, leaves first; pass 2 semijoins each edge with its reduced
    parent, root first. After both, every data edge left in the AG takes
    part in some embedding.
    """
    parent: dict[int, tuple[int, str]] = {}
    last: dict[str, int] = {}
    for i in ag.order:
        vs = ag.query.edges[i].vars()
        for v in vs:
            if v in last:
                parent[i] = (last[v], v)
        for v in vs:
            last[v] = i
    if passes >= 1:  # bottom-up
        for i in reversed(ag.order):
            kids = [(c, v) for c, (p, v) in parent.items() if p == i]
            if kids:
                df = ag.edges[i]
                for c, v in kids:
                    df = _semi(df, ag.edges[c], v)
                ag.edges[i] = ag.persist(df)
        ag.sweeps_run += 1
    if passes >= 2:  # top-down
        for i in ag.order:
            if i in parent:
                p, v = parent[i]
                ag.edges[i] = ag.persist(_semi(ag.edges[i], ag.edges[p], v))
        ag.sweeps_run += 1


def build_answer_graph(
    triples: DataFrame,
    query: QueryGraph,
    order: tuple[int, ...] | None = None,
    *,
    sweeps: int | None = None,
    to_fixpoint: bool = False,
    max_sweeps: int = 12,
    instrument: bool = False,
) -> AnswerGraph:
    """Run phase 1 and return the (persisted) answer graph.

    ``order`` must be a connected left-deep order (defaults to textual
    order). ``sweeps`` counts burnback passes after the extension pass;
    0 means extension only. Trees default to 2, the bottom-up and
    top-down passes of the full reducer, which give the iAG; more passes
    would change nothing, so they are not run, and neither is a
    ``to_fixpoint`` loop. Cyclic queries default to 3 two-sided sweeps,
    and ``to_fixpoint`` iterates them until edge counts stop changing
    (the true node-burnback fixpoint; one job per sweep). ``instrument``
    records per-edge extension sizes — the paper's *edge walks* — during
    the extension pass.
    """
    k = len(query.edges)
    order = tuple(order) if order is not None else tuple(range(k))
    if not query.is_connected_order(list(order)):
        raise ValueError(f"not a connected left-deep order for {query.name}: {order}")

    ag = AnswerGraph(query, {i: _scan(triples, query, i) for i in order}, order)
    bound: dict[str, DataFrame] = {}

    # Edge extension in plan order, with interleaved forward burnback.
    _sweep(ag, list(order), bound, ag.extension_walks if instrument else None)
    ag.sweeps_run = 1

    if query.is_tree():
        _reduce_tree(ag, 2 if sweeps is None else sweeps)
        return ag

    if sweeps is None:
        sweeps = 3
    if to_fixpoint:
        prev = tuple(sorted(ag.edge_counts().items()))
        backward = True
        for _ in range(max_sweeps):
            _sweep(ag, list(reversed(order)) if backward else list(order), bound)
            ag.sweeps_run += 1
            backward = not backward
            cur = tuple(sorted(ag.edge_counts().items()))
            if cur == prev:
                break
            prev = cur
    else:
        directions = [list(reversed(order)), list(order)]
        for s in range(sweeps):
            _sweep(ag, directions[s % 2], bound)
            ag.sweeps_run += 1
    return ag


# ---------------------------------------------------------------------------
# Edge burnback over a triangulated cycle (paper §4, beyond their experiments)
# ---------------------------------------------------------------------------


def _side_relation(ag: AnswerGraph, u: str, w: str) -> DataFrame | None:
    """The AG relation for cycle side (u, w), as a two-column DF, if (u, w)
    is a query edge (in either direction)."""
    for i, e in enumerate(ag.query.edges):
        if {e.src, e.dst} == {u, w}:
            return ag.edges[i].select(u, w)
    return None


def edge_burnback(
    ag: AnswerGraph,
    tri: Triangulation,
    *,
    max_rounds: int = 10,
) -> AnswerGraph:
    """Cull spurious edges from a cyclic CQ's AG, restoring the iAG.

    Chords are materialized as the intersection over their triangles of
    the join-projection of the opposite two sides; then every triangle
    side is semijoined with the join of the other two sides, iterating to
    fixpoint; finally node burnback re-cascades the shrunken node sets.
    Only single-cycle queries (our diamonds) are supported — the workload
    has no multi-cycle CQs.
    """
    query = ag.query

    # side registry: var pair -> relation; query edges first, then chords.
    def pair_key(u: str, w: str) -> tuple[str, str]:
        return (u, w) if u <= w else (w, u)

    sides: dict[tuple[str, str], DataFrame] = {}
    is_chord: dict[tuple[str, str], bool] = {}
    for a, b, c in tri.triangles:
        for u, w in ((a, b), (b, c), (a, c)):
            key = pair_key(u, w)
            if key in sides:
                continue
            rel = _side_relation(ag, u, w)
            if rel is not None:
                sides[key] = rel
                is_chord[key] = False
    # chords: intersection of the join-projections across their triangles
    for u, w in tri.chords:
        key = pair_key(u, w)
        parts = []
        for a, b, c in tri.triangles:
            if {u, w} <= {a, b, c}:
                (m,) = {a, b, c} - {u, w}
                s1 = sides.get(pair_key(u, m))
                s2 = sides.get(pair_key(m, w))
                if s1 is None or s2 is None:
                    continue
                parts.append(s1.join(s2, on=m).select(u, w).distinct())
        if not parts:
            raise ValueError(f"chord {u},{w} has no fully-based triangle")
        rel = parts[0]
        for p in parts[1:]:
            rel = rel.intersect(p)
        sides[key] = ag.persist(rel)
        is_chord[key] = True

    def counts() -> tuple[tuple[tuple[str, str], int], ...]:
        return tuple(sorted((k, df.count()) for k, df in sides.items()))

    prev = counts()
    for _ in range(max_rounds):
        for a, b, c in tri.triangles:
            for u, w in ((a, b), (b, c), (a, c)):
                (m,) = {a, b, c} - {u, w}
                key, k1, k2 = pair_key(u, w), pair_key(u, m), pair_key(m, w)
                support = sides[k1].join(sides[k2], on=m).select(u, w).distinct()
                sides[key] = ag.persist(sides[key].join(support, on=[u, w], how="left_semi"))
        cur = counts()
        if cur == prev:
            break
        prev = cur

    # fold the reduced sides back into the AG's query-edge relations
    for i, e in enumerate(query.edges):
        key = pair_key(e.src, e.dst)
        if key in sides and not is_chord[key]:
            ag.edges[i] = sides[key].select(e.src, e.dst)

    # node burnback re-cascade with the shrunken node sets
    bound = {v: ag.edges[query.incident(v)[0]] for v in query.variables}
    for _ in range(2):
        _sweep(ag, list(ag.order), bound)
        _sweep(ag, list(reversed(ag.order)), bound)
        ag.sweeps_run += 2
    return ag

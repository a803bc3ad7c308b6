"""Logical plans and the algorithm router.

KSpot's key architectural observation (§III): "there exists no
universal algorithm that is optimized for both classes of queries,
rather there is a pool of data processing algorithms for each class",
so the system "executes a different query processing algorithm based on
the query semantics". :func:`make_plan` is that router: it classifies a
validated query and assigns the algorithm —

* snapshot top-k (current readings, grouped)           → **MINT**
* historic top-k, horizontally fragmented (per-group
  window aggregates computable locally)                → **MINT** over
  windowed readings
* historic top-k, vertically fragmented (``GROUP BY
  epoch``: a time instant's score needs *all* nodes)   → **TJA**
* non-ranking queries                                  → **TAG**

Baselines (centralized, naive, TPUT, FILA) can be forced via the
``algorithm`` override for the experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import PlanError
from .ast_nodes import AggregateCall, Predicate, Query
from .parser import parse
from .validator import Schema, validate

#: Default epoch length when the query omits EPOCH DURATION (TinyDB
#: samples about once per second by default).
DEFAULT_EPOCH_SECONDS = 1.0


class QueryClass(enum.Enum):
    """The paper's query taxonomy (§I)."""

    SNAPSHOT = "snapshot"
    HISTORIC_HORIZONTAL = "historic_horizontal"
    HISTORIC_VERTICAL = "historic_vertical"
    AGGREGATE = "aggregate"  # non-ranking (plain TAG) queries


class Algorithm(enum.Enum):
    """Execution strategies available to the engine."""

    MINT = "mint"
    TJA = "tja"
    TAG = "tag"
    CENTRALIZED = "centralized"
    NAIVE = "naive"
    TPUT = "tput"
    FILA = "fila"


#: Default routing table (query class → algorithm), §III.
DEFAULT_ROUTING = {
    QueryClass.SNAPSHOT: Algorithm.MINT,
    QueryClass.HISTORIC_HORIZONTAL: Algorithm.MINT,
    QueryClass.HISTORIC_VERTICAL: Algorithm.TJA,
    QueryClass.AGGREGATE: Algorithm.TAG,
}

#: Which algorithms may execute which query class (override guard).
_COMPATIBLE = {
    QueryClass.SNAPSHOT: {Algorithm.MINT, Algorithm.TAG,
                          Algorithm.CENTRALIZED, Algorithm.NAIVE,
                          Algorithm.FILA},
    QueryClass.HISTORIC_HORIZONTAL: {Algorithm.MINT, Algorithm.TAG,
                                     Algorithm.CENTRALIZED, Algorithm.NAIVE},
    QueryClass.HISTORIC_VERTICAL: {Algorithm.TJA, Algorithm.TPUT,
                                   Algorithm.CENTRALIZED},
    QueryClass.AGGREGATE: {Algorithm.TAG, Algorithm.CENTRALIZED},
}


@dataclass(frozen=True)
class LogicalPlan:
    """Everything the execution engine needs, resolved.

    Attributes:
        query_class: The paper's taxonomy bucket.
        algorithm: Execution strategy (routed or overridden).
        k: Ranking depth; None for non-ranking queries.
        agg_func: Ranking/primary aggregate (``AVG``…); ``AVG`` for
            ungrouped ranking queries (one reading per node, so the
            average *is* the reading).
        attribute: The sensed attribute being aggregated.
        group_key: ``roomid``-style cluster key, ``nodeid``, or
            ``epoch`` for vertical queries.
        epoch_seconds: Length of one acquisition round.
        window_epochs: History window length in epochs (historic only).
        continuous: Whether the query re-evaluates every epoch.
        lifetime_epochs: Total epochs to run, when LIFETIME was given.
        where: Optional acquisition predicate.
    """

    query_class: QueryClass
    algorithm: Algorithm
    k: int | None
    agg_func: str
    attribute: str
    group_key: str
    epoch_seconds: float
    window_epochs: int | None = None
    continuous: bool = False
    lifetime_epochs: int | None = None
    where: Predicate | None = None


def classify(query: Query) -> QueryClass:
    """Assign a validated query to the paper's taxonomy."""
    if not query.is_top_k:
        return QueryClass.AGGREGATE
    if query.group_by == "epoch":
        return QueryClass.HISTORIC_VERTICAL
    if query.history is not None:
        return QueryClass.HISTORIC_HORIZONTAL
    return QueryClass.SNAPSHOT


def _ranking_aggregate(query: Query, schema: Schema) -> AggregateCall:
    aggregates = query.aggregates
    if aggregates:
        return aggregates[0]
    # Ungrouped ranking over a bare attribute: one reading per node.
    sensed = [c.name for c in query.plain_columns if c.name in schema.sensed]
    if not sensed:
        raise PlanError(
            "the query selects no sensed attribute and no aggregate")
    return AggregateCall("AVG", sensed[0])


def make_plan(query: Query, schema: Schema,
              algorithm: Algorithm | None = None) -> LogicalPlan:
    """Validate, classify and route a query into a logical plan.

    Args:
        query: Parsed query AST.
        schema: Deployment schema to validate against.
        algorithm: Optional override of the routing table (used by the
            baseline experiments). Must be compatible with the query
            class.
    """
    validate(query, schema)
    query_class = classify(query)
    routed = algorithm or DEFAULT_ROUTING[query_class]
    if routed not in _COMPATIBLE[query_class]:
        raise PlanError(
            f"algorithm {routed.value} cannot execute "
            f"{query_class.value} queries"
        )
    epoch_seconds = (query.epoch.seconds if query.epoch is not None
                     else DEFAULT_EPOCH_SECONDS)
    aggregate = _ranking_aggregate(query, schema)
    if aggregate.func == "COUNT" and aggregate.argument == "*":
        attribute = next(iter(sorted(schema.sensed)), "")
    else:
        attribute = aggregate.argument
    window_epochs = None
    if query.history is not None:
        window_epochs = query.history.epochs(epoch_seconds)
    lifetime_epochs = None
    if query.lifetime is not None:
        lifetime_epochs = query.lifetime.epochs(epoch_seconds)
    return LogicalPlan(
        query_class=query_class,
        algorithm=routed,
        k=query.top_k,
        agg_func=aggregate.func,
        attribute=attribute,
        group_key=query.group_by or "nodeid",
        epoch_seconds=epoch_seconds,
        window_epochs=window_epochs,
        continuous=query.epoch is not None,
        lifetime_epochs=lifetime_epochs,
        where=query.where,
    )


def compile_query(text: str, schema: Schema,
                  algorithm: Algorithm | None = None
                  ) -> tuple[Query, LogicalPlan]:
    """Full front-end pipeline: text → (AST, logical plan)."""
    query = parse(text)
    return query, make_plan(query, schema, algorithm=algorithm)

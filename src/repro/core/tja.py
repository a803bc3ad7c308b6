"""TJA: the Threshold Join Algorithm for historic top-k queries (§III-B).

TJA answers queries over *vertically fragmented* historic data — "Find
the K time instances with the highest average temperature during the
last 3 months" — where an object's (time instant's) score needs a
contribution from every sensor, so no node can prune alone. The three
phases, as the paper sketches them:

1. **Lower Bound (LB)**: the sink collects the hierarchical *union* of
   every node's local top-k object ids (``L_sink``, o ≥ K ids).
2. **Hierarchical Joining (HJ)**: ``L_sink`` floods down; each node
   ships its exact partial score for every candidate, merged (joined)
   in-network, together with its local k-th value — the threshold that
   upper-bounds every object it did *not* nominate.
3. **Clean-Up (CL)**: candidates now have exact scores; any non-
   candidate is bounded by the combined thresholds. If that bound
   clears the k-th candidate the answer is certified; otherwise one
   expansion round nominates every local value above the k-th
   candidate score — after which nothing outside the expanded
   candidate set can beat it — and the join repeats.

Object scores combine across nodes with the same partial-aggregate
algebra MINT uses, so TJA here supports AVG / SUM / MIN / MAX ranking.

Switch-and-prove: on a deployment whose ``Network.hot`` is set each
phase runs as one fused pass over ``Network.converge_cast_plan()``
rows that ships every reply's ``wire_size`` in one
``Network.ship_edges`` call and builds no message. LB and the CL
expansion share one union pass; the join pass
holds one ``(values, count)`` row per subtree, because aligned
windows give every partial of a subtree one count, and folds a
child's row in with one ``map`` of ``Aggregate.combine``.
A deployment built inside the oracle ``hotpath.reference_path()``
(or over a lossy radio) runs the first-principles phases, which build
every message and ship it through ``Network.send_up``;
``tests/test_hotpath_equivalence.py`` proves the two byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Callable, Mapping

from ..errors import ProtocolError, ValidationError
from ..network.messages import (
    CandidateSetMessage,
    ControlMessage,
    JoinReplyMessage,
    LBReplyMessage,
    ObjectScore,
    QueryMessage,
    WireMessage,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .results import RankedItem, rank_key


class _Lifts(dict):
    """reading → ``from_value(reading).value``, filled on first use.

    Readings are ADC-quantized, so a join pass lifts the same few
    hundred values over and over; a hit is one dict lookup in C."""

    def __init__(self, from_value: Callable[[float], Partial]):
        super().__init__()
        self._from_value = from_value

    def __missing__(self, reading: float) -> float:
        value = self[reading] = self._from_value(reading).value
        return value


@dataclass(frozen=True)
class TjaResult:
    """Outcome of one TJA execution.

    Attributes:
        items: The exact top-k (object id = epoch), best first.
        candidates: Size of the final candidate set |L|.
        cleanup_rounds: Expansion rounds the CL phase needed (0 or 1).
        per_phase_bytes: Payload bytes attributed to each phase.
    """

    items: tuple[RankedItem, ...]
    candidates: int
    cleanup_rounds: int
    per_phase_bytes: Mapping[str, int] = field(default_factory=dict)


class Tja:
    """One-shot execution over each node's buffered history window."""

    name = "tja"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 series: Mapping[int, Mapping[int, float]]):
        """Args:
            network: Deployed simulator (routing tree + cost models).
            aggregate: Score combiner across nodes (AVG in the paper's
                example).
            k: Ranking depth.
            series: node id → {object id (epoch) → local value}. Every
                participating node must cover the same object ids (the
                dense sliding window of §III-B).
        """
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.series = {node: dict(column) for node, column in series.items()}
        participants = [n for n in self.series if self.series[n]]
        if not participants:
            raise ValidationError("TJA needs at least one non-empty series")
        universe = set(self.series[participants[0]])
        for node in participants[1:]:
            if self.series[node].keys() != universe:
                raise ValidationError(
                    "TJA requires aligned history windows "
                    "(same object ids on every node)"
                )
        self.universe = universe

    # ------------------------------------------------------------------
    # Local computations
    # ------------------------------------------------------------------

    def _local_top_k(self, node_id: int) -> list[int]:
        column = self.series.get(node_id, {})
        ranked = sorted(column.items(),
                        key=lambda item: rank_key(item[0], item[1]))
        return [object_id for object_id, _ in ranked[:self.k]]

    def _local_threshold(self, node_id: int) -> float | None:
        """The node's k-th highest local value (bounds non-nominees)."""
        column = self.series.get(node_id, {})
        if not column:
            return None
        ranked = sorted(column.values(), reverse=True)
        return ranked[min(self.k, len(ranked)) - 1]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _lower_bound_phase(self) -> set[int]:
        """Hierarchical union of local top-k ids."""
        unions: dict[int, set[int]] = {}
        l_sink: set[int] = set()
        with self.network.stats.phase("LB"):
            self.network.flood_down(QueryMessage(query_id=2))
            for node_id in self.network.converge_cast_order():
                nominated = set(self._local_top_k(node_id))
                for child in self.network.tree.children(node_id):
                    nominated |= unions.get(child, set())
                message = LBReplyMessage(object_ids=tuple(sorted(nominated)))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    l_sink |= nominated
                else:
                    unions[node_id] = nominated
        return l_sink

    def _join_phase(self, candidates: set[int], phase_name: str = "HJ",
                    include_threshold: bool = True,
                    ) -> tuple[dict[int, Partial], Partial | None]:
        """Flood the candidate set, join exact partials hierarchically.

        Returns the joined partial per candidate and the combined
        threshold partial (each node's k-th local value folded with the
        aggregate algebra — the upper bound for unseen objects).
        """
        ordered = tuple(sorted(candidates))
        joined: dict[int, Partial] = {}
        threshold: Partial | None = None
        partials: dict[int, dict[int, Partial]] = {}
        thresholds: dict[int, Partial] = {}
        with self.network.stats.phase(phase_name):
            self.network.flood_down(CandidateSetMessage(object_ids=ordered))
            for node_id in self.network.converge_cast_order():
                local: dict[int, Partial] = {}
                column = self.series.get(node_id, {})
                for object_id in ordered:
                    if object_id in column:
                        local[object_id] = self.aggregate.from_value(
                            column[object_id])
                local_threshold = self._local_threshold(node_id)
                combined_threshold = (
                    self.aggregate.from_value(local_threshold)
                    if local_threshold is not None else None)
                for child in self.network.tree.children(node_id):
                    for object_id, partial in partials.get(child, {}).items():
                        existing = local.get(object_id)
                        local[object_id] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                    child_threshold = thresholds.get(child)
                    if child_threshold is not None:
                        combined_threshold = (
                            child_threshold if combined_threshold is None
                            else self.aggregate.merge(combined_threshold,
                                                      child_threshold))
                items = tuple(
                    ObjectScore(object_id, partial.value, partial.count)
                    for object_id, partial in sorted(local.items())
                )
                message = JoinReplyMessage(
                    items=items,
                    threshold_value=(combined_threshold.value
                                     if combined_threshold else 0.0),
                    threshold_count=(combined_threshold.count
                                     if combined_threshold else 0),
                )
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    for object_id, partial in local.items():
                        existing = joined.get(object_id)
                        joined[object_id] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                    if combined_threshold is not None:
                        threshold = (
                            combined_threshold if threshold is None
                            else self.aggregate.merge(threshold,
                                                      combined_threshold))
                else:
                    partials[node_id] = local
                    if combined_threshold is not None:
                        thresholds[node_id] = combined_threshold
        if not include_threshold:
            threshold = None
        return joined, threshold

    def _expansion_tau(self, tau: float) -> float:
        """Per-node nomination threshold that certifies the expansion.

        For AVG/MIN/MAX, an object with every local value ≤ τ scores
        ≤ τ. For SUM the per-node threshold must be τ/n (the TPUT
        argument): n values each ≤ τ/n sum to ≤ τ.
        """
        if self.aggregate.func == "SUM":
            participants = max(1, sum(1 for s in self.series.values() if s))
            return tau / participants
        return tau

    def _expansion_phase(self, tau: float, known: set[int]) -> set[int]:
        """CL expansion: nominate every local value above the threshold."""
        tau = self._expansion_tau(tau)
        unions: dict[int, set[int]] = {}
        extra: set[int] = set()
        with self.network.stats.phase("CL"):
            self.network.flood_down(
                ControlMessage(label="cl_threshold", size=8))
            for node_id in self.network.converge_cast_order():
                nominated = {
                    object_id
                    for object_id, value in self.series.get(node_id, {}).items()
                    if value > tau and object_id not in known
                }
                for child in self.network.tree.children(node_id):
                    nominated |= unions.get(child, set())
                message = LBReplyMessage(object_ids=tuple(sorted(nominated)))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    extra |= nominated
                else:
                    unions[node_id] = nominated
        return extra

    # ------------------------------------------------------------------
    # Hot path: one fused pass per phase over the converge-cast plan
    # ------------------------------------------------------------------

    # repro: hot
    def _local_rankings(self) -> tuple[dict[int, set[int]],
                                       dict[int, Partial]]:
        """Each mote's local top-k ids and lifted k-th value, from one
        sort of its window (:meth:`_local_top_k` and
        :meth:`_local_threshold` sort it twice).

        Every column covers the universe, so ordering the universe by
        label once and then each column stably by value, descending,
        gives :func:`rank_key` order without a Python key function."""
        k = self.k
        labelled = sorted(self.universe, key=str)
        kth = min(k, len(labelled)) - 1
        value_of = itemgetter(0)
        object_of = itemgetter(1)
        from_value = self.aggregate.from_value
        tops: dict[int, set[int]] = {}
        thresholds: dict[int, Partial] = {}
        for node_id, column in self.series.items():
            if not column:
                continue
            ranked = sorted(zip(map(column.__getitem__, labelled), labelled),
                            key=value_of, reverse=True)
            tops[node_id] = set(map(object_of, ranked[:k]))
            thresholds[node_id] = from_value(ranked[kth][0])
        return tops, thresholds

    def _nominations_above(self, tau: float,
                           known: set[int]) -> dict[int, set[int]]:
        """Each mote's CL nominations: its values above the expansion
        threshold, minus the ``known`` candidates."""
        tau = self._expansion_tau(tau)
        return {
            node_id: {object_id for object_id, value in column.items()
                      if value > tau and object_id not in known}
            for node_id, column in self.series.items()
        }

    # repro: hot
    def _union_pass(self, phase: str, flood: WireMessage,
                    nominations: dict[int, set[int]]) -> set[int]:
        """The LB phase or the CL expansion: flood, then converge-cast
        the union of every mote's ``nominations`` (consumed) and return
        the sink's union. Every mote ships its subtree's union size as
        one ``lb_reply``, empty ones included, and the pass ships them
        in one :meth:`Network.ship_edges` call (nothing in the loop can
        raise, so no edge is left unshipped)."""
        network = self.network
        wire_size = LBReplyMessage.wire_size
        nominated_by = nominations.get
        unions: dict[int, set[int]] = {}
        l_sink: set[int] = set()
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        with network.stats.phase(phase):
            network.flood_down(flood)
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                nominated = nominated_by(node_id)
                if nominated is None:
                    nominated = set()
                for child in children:
                    # A live child precedes its (non-sink) parent in
                    # the plan and always ships its union.
                    nominated |= unions[child]
                ship((node_id, parent, wire_size(len(nominated))))
                if to_sink:
                    l_sink |= nominated
                else:
                    unions[node_id] = nominated
            network.ship_edges(LBReplyMessage.kind, edges)
        return l_sink

    # repro: hot
    def _join_pass(self, candidates: set[int], phase: str,
                   thresholds: Mapping[int, Partial],
                   ) -> tuple[dict[int, Partial], Partial | None]:
        """The HJ phase or the CL join: flood the candidates, then
        converge-cast one ``(values, count)`` row per subtree.

        ``values`` lines up with the sorted candidates and is None for
        a subtree without a participant. Aligned windows give all of a
        subtree's partials one count, so a child's row folds in with
        one ``map`` of ``Aggregate.combine``: own values first, then
        the children in plan order, as :meth:`_join_phase` merges each
        object. ``thresholds`` (each mote's lifted k-th value; empty
        for the CL join, which drops the threshold) fold as scalar
        partials. The sink rebuilds ``{object: Partial}`` once. The
        replies ship in one :meth:`Network.ship_edges` call, as in
        :meth:`_union_pass`."""
        network = self.network
        aggregate = self.aggregate
        combine = aggregate.combine
        merge = aggregate.merge
        ordered = tuple(sorted(candidates))
        lift = _Lifts(aggregate.from_value).__getitem__
        column_of = self.series.get
        threshold_of = thresholds.get
        full = JoinReplyMessage.wire_size(len(ordered))
        empty = JoinReplyMessage.wire_size(0)
        rows: dict[int, tuple[list[float] | None, int, Partial | None]] = {}
        sink_values: list[float] | None = None
        sink_count = 0
        threshold: Partial | None = None
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        with network.stats.phase(phase):
            network.flood_down(CandidateSetMessage(object_ids=ordered))
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                column = column_of(node_id)
                if column:
                    values = list(map(lift, map(column.__getitem__,
                                                ordered)))
                    count = 1
                else:
                    values = None
                    count = 0
                bound = threshold_of(node_id)
                for child in children:
                    child_values, child_count, child_bound = rows[child]
                    if child_count:
                        values = (child_values if values is None
                                  else list(map(combine, values,
                                                child_values)))
                        count += child_count
                    if child_bound is not None:
                        bound = (child_bound if bound is None
                                 else merge(bound, child_bound))
                ship((node_id, parent, full if count else empty))
                if not to_sink:
                    rows[node_id] = (values, count, bound)
                    continue
                if count:
                    sink_values = (values if sink_values is None
                                   else list(map(combine, sink_values,
                                                 values)))
                    sink_count += count
                if bound is not None:
                    threshold = (bound if threshold is None
                                 else merge(threshold, bound))
            network.ship_edges(JoinReplyMessage.kind, edges)
        if sink_values is None:
            return {}, threshold
        return (dict(zip(ordered, map(Partial, sink_values,
                                      repeat(sink_count)))),
                threshold)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def execute(self) -> TjaResult:
        """Run LB → HJ → CL and return the certified exact top-k."""
        before = dict(self.network.stats.by_phase)
        hot = self.network.hot
        if hot:
            tops, thresholds = self._local_rankings()
            candidates = self._union_pass("LB", QueryMessage(query_id=2),
                                          tops)
        else:
            candidates = self._lower_bound_phase()
        if not candidates:
            raise ProtocolError("LB phase produced no candidates")

        joined, threshold = (self._join_pass(candidates, "HJ", thresholds)
                             if hot else self._join_phase(candidates))
        exact = {
            object_id: self.aggregate.finalize(partial)
            for object_id, partial in joined.items()
        }
        ranked = sorted(exact.items(),
                        key=lambda item: rank_key(item[0], item[1]))
        effective_k = min(self.k, len(self.universe))
        tau = ranked[min(effective_k, len(ranked)) - 1][1]

        unseen_bound = (self.aggregate.finalize(threshold)
                        if threshold is not None else float("-inf"))
        cleanup_rounds = 0
        if len(exact) < len(self.universe) and unseen_bound > tau:
            cleanup_rounds = 1
            if hot:
                extra = self._union_pass(
                    "CL", ControlMessage(label="cl_threshold", size=8),
                    self._nominations_above(tau, set(exact)))
            else:
                extra = self._expansion_phase(tau, set(exact))
            if extra:
                joined_extra, _ = (
                    self._join_pass(extra, "CL", {}) if hot
                    else self._join_phase(extra, phase_name="CL",
                                          include_threshold=False))
                for object_id, partial in joined_extra.items():
                    exact[object_id] = self.aggregate.finalize(partial)
                ranked = sorted(exact.items(),
                                key=lambda item: rank_key(item[0], item[1]))

        items = tuple(
            RankedItem(key=object_id, score=score, lb=score, ub=score)
            for object_id, score in ranked[:effective_k]
        )
        after = self.network.stats.by_phase
        per_phase = {
            phase: after[phase].payload_bytes - (
                before[phase].payload_bytes if phase in before else 0)
            for phase in ("LB", "HJ", "CL") if phase in after
        }
        return TjaResult(
            items=items,
            candidates=len(exact),
            cleanup_rounds=cleanup_rounds,
            per_phase_bytes=per_phase,
        )

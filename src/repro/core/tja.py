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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ProtocolError, ValidationError
from ..network.messages import (
    CandidateSetMessage,
    ControlMessage,
    JoinReplyMessage,
    LBReplyMessage,
    ObjectScore,
    QueryMessage,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .results import RankedItem, rank_key


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
            if set(self.series[node]) != universe:
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
    # Driver
    # ------------------------------------------------------------------

    def execute(self) -> TjaResult:
        """Run LB → HJ → CL and return the certified exact top-k."""
        before = dict(self.network.stats.by_phase)
        candidates = self._lower_bound_phase()
        if not candidates:
            raise ProtocolError("LB phase produced no candidates")

        joined, threshold = self._join_phase(candidates)
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
            extra = self._expansion_phase(tau, set(exact))
            if extra:
                joined_extra, _ = self._join_phase(
                    extra, phase_name="CL", include_threshold=False)
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

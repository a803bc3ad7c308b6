"""TPUT: Three-Phase Uniform Threshold (Cao & Wang, PODC 2004).

The flat (non-hierarchical) distributed top-k baseline KSpot's TJA is
measured against (reference [13]). Every message travels node→sink
hop-by-hop with **no in-network merging** — the cost difference
against TJA's hierarchical union/join is the point of experiment E5.

Round 1: every node ships its local top-k (id, value) pairs; the sink
sums what it sees and takes τ₁ = the k-th partial sum.
Round 2: the sink floods T = τ₁/n; nodes ship every item ≥ T. Partial
sums ψ(o) are now lower bounds and ψ(o) + T·(missing nodes) upper
bounds; candidates are objects whose upper bound clears the new k-th
partial sum τ₂.
Round 3: the sink fetches the candidates' missing values from exactly
the nodes that have not reported them; candidate scores become exact
and the top-k is certified.

Supports SUM and (dense) AVG ranking — AVG over aligned windows is
SUM/n, so the SUM machinery ranks identically and scores divide by n
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ProtocolError, ValidationError
from ..network.messages import (
    CandidateSetMessage,
    ControlMessage,
    ObjectScore,
    QueryMessage,
    ScoreListMessage,
)
from ..network.simulator import Network
from .aggregates import Aggregate
from .results import RankedItem, rank_key


@dataclass(frozen=True)
class TputResult:
    """Outcome of one TPUT execution."""

    items: tuple[RankedItem, ...]
    candidates: int
    per_phase_bytes: Mapping[str, int] = field(default_factory=dict)


class Tput:
    """Flat three-round top-k over vertically fragmented series."""

    name = "tput"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 series: Mapping[int, Mapping[int, float]]):
        if k < 1:
            raise ValidationError("k must be >= 1")
        if aggregate.func not in ("SUM", "AVG"):
            raise ValidationError(
                f"TPUT ranks by SUM (or dense AVG); got {aggregate.func}"
            )
        self.network = network
        self.aggregate = aggregate
        self.k = k
        # TPUT's partial sums double as lower bounds, which is only
        # sound for non-negative contributions (the original paper's
        # standing assumption). Dense windows make rank order invariant
        # under a per-node constant shift, so negative domains are
        # handled by ranking shifted values and un-shifting the scores.
        self._shift = max(0.0, -aggregate.lo)
        self.series = {
            node: {obj: value + self._shift for obj, value in column.items()}
            for node, column in series.items()
        }
        self.participants = sorted(n for n in self.series if self.series[n])
        if not self.participants:
            raise ValidationError("TPUT needs at least one non-empty series")
        universe = set(self.series[self.participants[0]])
        for node in self.participants[1:]:
            if set(self.series[node]) != universe:
                raise ValidationError(
                    "TPUT requires aligned history windows"
                )
        self.universe = universe

    def _finalize(self, total: float) -> float:
        if self.aggregate.func == "AVG":
            return total / len(self.participants) - self._shift
        return total - self._shift * len(self.participants)

    def execute(self) -> TputResult:
        """Run the three rounds and return the exact top-k."""
        n = len(self.participants)
        effective_k = min(self.k, len(self.universe))
        before = dict(self.network.stats.by_phase)

        # Round 1 — local top-k, shipped flat to the sink.
        partial_sums: dict[int, float] = {}
        reported_by: dict[int, set[int]] = {}
        with self.network.stats.phase("R1"):
            self.network.flood_down(QueryMessage(query_id=3))
            for node_id in self.participants:
                column = self.series[node_id]
                ranked = sorted(column.items(),
                                key=lambda item: rank_key(item[0], item[1]))
                items = tuple(ObjectScore(object_id, value)
                              for object_id, value in ranked[:self.k])
                self.network.unicast_to_sink(
                    node_id, ScoreListMessage(items=items))
                for object_id, value in ranked[:self.k]:
                    partial_sums[object_id] = (
                        partial_sums.get(object_id, 0.0) + value)
                    reported_by.setdefault(object_id, set()).add(node_id)
        tau_1 = sorted(partial_sums.values(), reverse=True)[
            min(effective_k, len(partial_sums)) - 1]

        # Round 2 — uniform threshold T = τ₁ / n.
        threshold = tau_1 / n
        with self.network.stats.phase("R2"):
            self.network.flood_down(
                ControlMessage(label="tput_threshold", size=8))
            for node_id in self.participants:
                already = {
                    object_id for object_id, nodes in reported_by.items()
                    if node_id in nodes
                }
                extra = tuple(
                    ObjectScore(object_id, value)
                    for object_id, value in sorted(
                        self.series[node_id].items())
                    if value >= threshold and object_id not in already
                )
                if not extra:
                    continue
                self.network.unicast_to_sink(
                    node_id, ScoreListMessage(items=extra))
                for item in extra:
                    partial_sums[item.object_id] = (
                        partial_sums.get(item.object_id, 0.0) + item.value)
                    reported_by.setdefault(item.object_id, set()).add(node_id)
        tau_2 = sorted(partial_sums.values(), reverse=True)[
            min(effective_k, len(partial_sums)) - 1]
        candidates = {
            object_id
            for object_id, psum in partial_sums.items()
            if psum + threshold * (n - len(reported_by[object_id])) >= tau_2
        }

        # Round 3 — fetch the candidates' missing values, flat again.
        with self.network.stats.phase("R3"):
            for node_id in self.participants:
                missing = tuple(sorted(
                    object_id for object_id in candidates
                    if node_id not in reported_by[object_id]
                ))
                if not missing:
                    continue
                self.network.unicast_from_sink(
                    node_id, CandidateSetMessage(object_ids=missing))
                self.network.unicast_to_sink(
                    node_id, ScoreListMessage(items=tuple(
                        ObjectScore(object_id,
                                    self.series[node_id][object_id])
                        for object_id in missing)))
                for object_id in missing:
                    partial_sums[object_id] += self.series[node_id][object_id]
                    reported_by[object_id].add(node_id)

        for object_id in candidates:
            if len(reported_by[object_id]) != n:
                raise ProtocolError(
                    f"candidate {object_id} is missing contributions"
                )
        ranked = sorted(
            ((object_id, self._finalize(partial_sums[object_id]))
             for object_id in candidates),
            key=lambda pair: rank_key(pair[0], pair[1]),
        )
        items = tuple(
            RankedItem(key=object_id, score=score, lb=score, ub=score)
            for object_id, score in ranked[:effective_k]
        )
        after = self.network.stats.by_phase
        per_phase = {
            phase: after[phase].payload_bytes - (
                before[phase].payload_bytes if phase in before else 0)
            for phase in ("R1", "R2", "R3") if phase in after
        }
        return TputResult(items=items, candidates=len(candidates),
                          per_phase_bytes=per_phase)

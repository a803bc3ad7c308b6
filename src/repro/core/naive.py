"""The *wrongful* naive local pruning strategy of §III-A.

"A naive local greedy pruning strategy may easily discard tuples that
will finally be among the k highest-ranked answers. … assume that each
node naively eliminates any tuple below its local top-1 result.
Obviously, such a strategy will lead to the erroneous answer
(D, 76.5), while the correct answer is (C, 75)."

The strategy is kept in the library deliberately: experiment E10
quantifies how often it is wrong, which is the paper's motivation for
MINT's γ-descriptor framework.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import ValidationError
from ..network.messages import QueryMessage, ViewEntry, ViewUpdateMessage
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .participants import Participants
from .results import EpochResult, RankedItem, rank_key

GroupKey = Hashable


class NaiveTopK:
    """Greedy local top-k elimination — cheap, and not exact."""

    name = "naive"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 group_of: Mapping[int, GroupKey],
                 attribute: str = "sound",
                 window_epochs: int | None = None):
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.attribute = attribute
        self.group_of = dict(group_of)
        self.window_epochs = window_epochs
        self._disseminated = False
        #: The alive participants and their epoch's contributions.
        self._participants = Participants(network)

    def run_epoch(self) -> EpochResult:
        """One round of greedy pruning; the answer may be wrong."""
        if not self._disseminated:
            with self.network.stats.phase("dissemination"):
                self.network.flood_down(QueryMessage(query_id=1))
            self._disseminated = True
        contributions = self._participants.partials(
            self.group_of, self.attribute, self.aggregate,
            self.window_epochs)
        partial_views: dict[int, dict[GroupKey, Partial]] = {}
        sink_view: dict[GroupKey, Partial] = {}
        with self.network.stats.phase("aggregation"):
            for node_id in self.network.converge_cast_order():
                view: dict[GroupKey, Partial] = {}
                own = contributions.get(node_id)
                if own is not None:
                    view[self.group_of[node_id]] = own
                for child in self.network.tree.children(node_id):
                    for group, partial in partial_views.get(child, {}).items():
                        existing = view.get(group)
                        view[group] = (partial if existing is None
                                       else self.aggregate.merge(existing,
                                                                 partial))
                # The greedy elimination: keep exactly the local top-k,
                # discard the rest with no descriptor left behind.
                ranked = sorted(
                    view.items(),
                    key=lambda item: rank_key(
                        item[0], self.aggregate.finalize(item[1])),
                )
                kept = dict(ranked[:self.k])
                message = ViewUpdateMessage(
                    epoch=self.network.epoch,
                    entries=tuple(
                        ViewEntry(group, partial.value, partial.count)
                        for group, partial in sorted(kept.items(),
                                                     key=lambda i: str(i[0]))
                    ),
                )
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    for group, partial in kept.items():
                        existing = sink_view.get(group)
                        sink_view[group] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                else:
                    partial_views[node_id] = kept

        scored = sorted(
            ((group, self.aggregate.finalize(partial))
             for group, partial in sink_view.items()),
            key=lambda pair: rank_key(pair[0], pair[1]),
        )
        items = tuple(
            RankedItem(key=group, score=score, lb=score, ub=score)
            for group, score in scored[:self.k]
        )
        result = EpochResult(
            epoch=self.network.epoch,
            items=items,
            exact=False,  # greedy pruning cannot certify anything
            algorithm=self.name,
        )
        self.network.advance_epoch()
        return result

    def run(self, epochs: int) -> list[EpochResult]:
        """``epochs`` consecutive greedy rounds."""
        return [self.run_epoch() for _ in range(epochs)]

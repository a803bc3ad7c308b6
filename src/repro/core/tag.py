"""TAG baseline: full in-network aggregation, sink-side top-k operator.

This is the "straightforward" technique of §I: following the TAG
approach used in TinyDB, every node forwards one ``(group, sum,
count)`` tuple *per group it knows about* to its parent each epoch, and
"one could then easily implement a new top-k operator at the sink …
in a centralized manner". Exact by construction; the cost KSpot's
pruning is measured against.

Like MINT, the per-epoch converge-cast runs on a fused hot path on a
deployment whose ``Network.hot`` is set (see
:mod:`repro.network.hotpath`): the pass walks the network's cached
converge-cast plan, and each view ships as its wire size straight over
the tree edge, no message built. The reference implementation remains
in :meth:`Tag.run_epoch`'s reference branch — the oracle a deployment
built inside ``hotpath.reference_path()`` runs — and
``tests/test_hotpath_equivalence.py`` holds both paths to identical
traffic, stats and answers. Both sample the same way, as every epoch
engine does: one :meth:`~repro.core.participants.Participants.partials`
call over ``Network.read_many`` per epoch, windows and a dynamic
``WHERE`` included. The sink ranks the same way on both: one
``rank_key`` sort of every group's score per epoch.
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


class Tag:
    """Per-epoch full converge-cast of group views."""

    name = "tag"

    def __init__(self, network: Network, aggregate: Aggregate, k: int | None,
                 group_of: Mapping[int, GroupKey],
                 attribute: str = "sound",
                 window_epochs: int | None = None,
                 where_fn=None):
        if k is not None and k < 1:
            raise ValidationError("k must be >= 1 (or None for all groups)")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.attribute = attribute
        self.group_of = dict(group_of)
        self.window_epochs = window_epochs
        #: Optional dynamic acquisition predicate
        #: ``where_fn(node_id, group, value) -> bool``.
        self.where_fn = where_fn
        self._disseminated = False
        #: The alive participants and their epoch's contributions.
        self._participants = Participants(network)

    # repro: hot
    def _run_aggregation_phase(
            self, contributions: dict[int, Partial]
    ) -> dict[GroupKey, Partial]:
        """The converge-cast, fused into one hot-path pass over the
        network's converge-cast plan.

        Semantically identical to the reference branch in
        :meth:`run_epoch` — same views, same traffic — with the
        per-node containers and transport guards lifted out of the
        loop (the same fusion MINT's update phase applies; the
        equivalence property test covers it). A view ships as the kind
        and :meth:`ViewUpdateMessage.wire_size` of its group count, so
        no entries are built or ordered, and the whole pass ships in
        one :meth:`Network.ship_edges` call; nothing in the loop can
        raise, so no edge is left unshipped.

        A row with exactly one live child takes that child's view over
        (only this row reads it) and builds its own from it in C, in the
        reference branch's insertion order, as MINT's update pass does:
        ``{own group: own}`` updated with the child's view, then the own
        group's entry merged as ``merge(own, child's)``. The sink's
        stable sort ranks groups whose labels print alike in that order.
        """
        network = self.network
        merge = self.aggregate.merge
        group_of = self.group_of
        contributions_get = contributions.get
        wire_size = ViewUpdateMessage.wire_size
        partial_views: dict[int, dict[GroupKey, Partial]] = {}
        take_view = partial_views.pop
        sink_view: dict[GroupKey, Partial] = {}
        sink_get = sink_view.get
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        with network.stats.phase("aggregation"):
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                own = contributions_get(node_id)
                # A live child precedes its (non-sink) parent in the
                # plan and always ships its view.
                if len(children) == 1:
                    child_view = take_view(children[0])
                    if own is None:
                        view = child_view
                    else:
                        group = group_of[node_id]
                        view = {group: own}
                        view.update(child_view)
                        existing = child_view.get(group)
                        if existing is not None:
                            view[group] = merge(own, existing)
                else:
                    view = {}
                    if own is not None:
                        view[group_of[node_id]] = own
                    view_get = view.get
                    for child in children:
                        for group, partial in partial_views[child].items():
                            existing = view_get(group)
                            view[group] = (partial if existing is None
                                           else merge(existing, partial))
                # Every row is an alive non-root node, so the send_up
                # guards are vacuous here.
                ship((node_id, parent, wire_size(len(view))))
                if to_sink:
                    for group, partial in view.items():
                        existing = sink_get(group)
                        sink_view[group] = (partial if existing is None
                                            else merge(existing, partial))
                else:
                    partial_views[node_id] = view
            network.ship_edges(ViewUpdateMessage.kind, edges)
        return sink_view

    def run_epoch(self) -> EpochResult:
        """One full aggregation round; returns the exact top-k."""
        if not self._disseminated:
            with self.network.stats.phase("dissemination"):
                self.network.flood_down(QueryMessage(query_id=1))
            self._disseminated = True
        contributions = self._participants.partials(
            self.group_of, self.attribute, self.aggregate,
            self.window_epochs, self.where_fn)
        if self.network.hot:
            sink_view = self._run_aggregation_phase(contributions)
        else:
            partial_views: dict[int, dict[GroupKey, Partial]] = {}
            sink_view = {}
            with self.network.stats.phase("aggregation"):
                for node_id in self.network.converge_cast_order():
                    view: dict[GroupKey, Partial] = {}
                    own = contributions.get(node_id)
                    if own is not None:
                        view[self.group_of[node_id]] = own
                    for child in self.network.tree.children(node_id):
                        for group, partial in partial_views.get(child,
                                                                {}).items():
                            existing = view.get(group)
                            view[group] = (partial if existing is None
                                           else self.aggregate.merge(existing,
                                                                     partial))
                    message = ViewUpdateMessage(
                        epoch=self.network.epoch,
                        entries=tuple(
                            ViewEntry(group, partial.value, partial.count)
                            for group, partial in sorted(
                                view.items(), key=lambda i: str(i[0]))
                        ),
                    )
                    parent = self.network.send_up(node_id, message)
                    if parent == self.network.sink_id:
                        for group, partial in view.items():
                            existing = sink_view.get(group)
                            sink_view[group] = (
                                partial if existing is None
                                else self.aggregate.merge(existing, partial))
                    else:
                        partial_views[node_id] = view

        scored = sorted(
            ((group, self.aggregate.finalize(partial))
             for group, partial in sink_view.items()),
            key=lambda pair: rank_key(pair[0], pair[1]),
        )
        items = tuple(
            RankedItem(key=group, score=score, lb=score, ub=score)
            for group, score in scored[:self.k]  # k None: every group
        )
        result = EpochResult(
            epoch=self.network.epoch,
            items=items,
            exact=True,
            algorithm=self.name,
        )
        self.network.advance_epoch()
        return result

    def handle_topology_event(self, event) -> int:
        """Churn invalidates only the dissemination: TAG keeps no
        per-subtree caches, so recovery is a single re-flood of the
        query wave (reaching re-parented and newborn nodes) on the next
        epoch. Returns the number of states re-primed (always 0)."""
        del event
        self._disseminated = False
        return 0

    def run(self, epochs: int) -> list[EpochResult]:
        """``epochs`` consecutive aggregation rounds."""
        return [self.run_epoch() for _ in range(epochs)]

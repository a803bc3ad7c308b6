"""TAG baseline: full in-network aggregation, sink-side top-k operator.

This is the "straightforward" technique of §I: following the TAG
approach used in TinyDB, every node forwards one ``(group, sum,
count)`` tuple *per group it knows about* to its parent each epoch, and
"one could then easily implement a new top-k operator at the sink …
in a centralized manner". Exact by construction; the cost KSpot's
pruning is measured against.

Like MINT, the per-epoch converge-cast runs on a fused hot path on a
deployment whose ``Network.hot`` is set (see
:mod:`repro.network.hotpath`): acquisition shares lifted partials via
a memo, the pass walks the network's cached converge-cast plan, and
each view ships as its wire size straight over the tree edge, no
message built. The reference implementation remains in
:meth:`Tag.run_epoch`'s reference branch — the oracle a deployment
built inside ``hotpath.reference_path()`` runs — and
``tests/test_hotpath_equivalence.py`` holds both paths to identical
traffic, stats and answers.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import ValidationError
from ..network.messages import QueryMessage, ViewEntry, ViewUpdateMessage
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .delta import TopKView
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
        #: Hot-path memo of lifted reading partials (see Mint._acquire).
        self._lift_memo: dict[float, Partial] = {}
        #: The alive participants, memoized per topology and membership.
        self._participants = Participants(network)
        #: Hot path: a ranking-only maintained view (k=None ranks all
        #: groups). Group scores drift a little per epoch; reconciling
        #: point deltas into the kept order beats re-sorting every
        #: group from scratch each round.
        self._rank_view = TopKView(self.k)

    def _acquire(self) -> dict[int, Partial]:
        contributions: dict[int, Partial] = {}
        nodes = self.network.nodes
        epoch = self.network.epoch
        attribute = self.attribute
        from_value = self.aggregate.from_value
        if (self.network.hot and self.window_epochs is None
                and self.where_fn is None):
            # Readings are ADC-quantized: the same few hundred values
            # recur, and lifted partials are immutable and shareable.
            memo = self._lift_memo
            if len(memo) > 4096:
                memo.clear()
            readings = self.network.read_many(
                self._participants(self.group_of), attribute)
            for node_id, value in readings.items():
                partial = memo.get(value)
                if partial is None:
                    partial = memo[value] = from_value(value)
                contributions[node_id] = partial
            return contributions
        for node_id in self._participants(self.group_of):
            node = nodes[node_id]
            value = node.read(attribute, epoch)
            if self.window_epochs is not None:
                value = node.window_for(attribute).aggregate(
                    self.aggregate.func.lower(), last_n=self.window_epochs)
            if self.where_fn is not None and not self.where_fn(
                    node_id, self.group_of[node_id], value):
                continue
            contributions[node_id] = from_value(value)
        return contributions

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
        no entries are built or ordered.
        """
        network = self.network
        merge = self.aggregate.merge
        group_of = self.group_of
        contributions_get = contributions.get
        ship_unicast = network._ship_unicast
        kind = ViewUpdateMessage.kind
        wire_size = ViewUpdateMessage.wire_size
        partial_views: dict[int, dict[GroupKey, Partial]] = {}
        sink_view: dict[GroupKey, Partial] = {}
        sink_get = sink_view.get
        with network.stats.phase("aggregation"):
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                view: dict[GroupKey, Partial] = {}
                own = contributions_get(node_id)
                if own is not None:
                    view[group_of[node_id]] = own
                view_get = view.get
                for child in children:
                    # A live child precedes its (non-sink) parent in
                    # the plan and always ships its view.
                    for group, partial in partial_views[child].items():
                        existing = view_get(group)
                        view[group] = (partial if existing is None
                                       else merge(existing, partial))
                # Every row is an alive non-root node, so the send_up
                # guards are vacuous here.
                ship_unicast(node_id, parent, kind, wire_size(len(view)))
                if to_sink:
                    for group, partial in view.items():
                        existing = sink_get(group)
                        sink_view[group] = (partial if existing is None
                                            else merge(existing, partial))
                else:
                    partial_views[node_id] = view
        return sink_view

    def run_epoch(self) -> EpochResult:
        """One full aggregation round; returns the exact top-k."""
        if not self._disseminated:
            with self.network.stats.phase("dissemination"):
                self.network.flood_down(QueryMessage(query_id=1))
            self._disseminated = True
        contributions = self._acquire()
        hot = self.network.hot
        if hot:
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

        if hot:
            finalize = self.aggregate.finalize
            self._rank_view.reconcile_scores(
                {group: finalize(partial)
                 for group, partial in sink_view.items()})
            scored = [(group, interval.lb)
                      for group, interval in self._rank_view.ranking()]
        else:
            scored = sorted(
                ((group, self.aggregate.finalize(partial))
                 for group, partial in sink_view.items()),
                key=lambda pair: rank_key(pair[0], pair[1]),
            )
        cut = scored if self.k is None else scored[:self.k]
        items = tuple(
            RankedItem(key=group, score=score, lb=score, ub=score)
            for group, score in cut
        )
        result = EpochResult(
            epoch=self.network.epoch,
            items=items,
            exact=True,
            algorithm=self.name,
            all_bounds={g: (s, s) for g, s in scored},
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

"""TAG baseline: full in-network aggregation, sink-side top-k operator.

This is the "straightforward" technique of §I: following the TAG
approach used in TinyDB, every node forwards one ``(group, sum,
count)`` tuple *per group it knows about* to its parent each epoch, and
"one could then easily implement a new top-k operator at the sink …
in a centralized manner". Exact by construction; the cost KSpot's
pruning is measured against.

Like MINT, the per-epoch converge-cast runs on a fused hot path (see
:mod:`repro.network.hotpath`): acquisition shares lifted partials via
a memo, leaves skip the merge machinery, and each view ships as its
wire size straight over the cached tree edge, no message built. The
reference implementation remains in :meth:`Tag.run_epoch`'s reference
branch — the oracle ``hotpath.reference_path()`` restores — and
``tests/test_hotpath_equivalence.py`` holds both paths to identical
traffic, stats and answers.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import ValidationError
from ..network import eventsim, hotpath
from ..network.messages import QueryMessage, ViewEntry, ViewUpdateMessage
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .delta import TopKView
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
        #: Hot-path memo of the participant tuple (see Mint._participants).
        self._participants_cache: tuple | None = None
        #: Hot path: a ranking-only maintained view (k=None ranks all
        #: groups). Group scores drift a little per epoch; reconciling
        #: point deltas into the kept order beats re-sorting every
        #: group from scratch each round.
        self._rank_view = TopKView(self.k)

    def _participants(self) -> tuple[int, ...]:
        alive = self.network.alive_sensor_ids()
        if hotpath.enabled():
            # Keyed like Mint's: identity of the (cached) alive tuple
            # and the membership dict the engine rebinds on adoption,
            # returning the alive tuple itself when everyone participates.
            group_of = self.group_of
            cache = self._participants_cache
            if (cache is not None and cache[0] is alive
                    and cache[1] is group_of):
                return cache[2]
            result = tuple(n for n in alive if n in group_of)
            if len(result) == len(alive):
                result = alive
            self._participants_cache = (alive, group_of, result)
            return result
        return tuple(n for n in alive if n in self.group_of)

    def _acquire(self) -> dict[int, Partial]:
        contributions: dict[int, Partial] = {}
        nodes = self.network.nodes
        epoch = self.network.epoch
        attribute = self.attribute
        from_value = self.aggregate.from_value
        if (hotpath.enabled() and self.window_epochs is None
                and self.where_fn is None):
            # Readings are ADC-quantized: the same few hundred values
            # recur, and lifted partials are immutable and shareable.
            memo = self._lift_memo
            if len(memo) > 4096:
                memo.clear()
            readings = self.network.read_many(
                self._participants(), attribute)
            for node_id, value in readings.items():
                partial = memo.get(value)
                if partial is None:
                    partial = memo[value] = from_value(value)
                contributions[node_id] = partial
            return contributions
        for node_id in self._participants():
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

    def _run_aggregation_phase(
            self, contributions: dict[int, Partial]
    ) -> dict[GroupKey, Partial]:
        """The converge-cast, fused into one hot-path pass.

        Semantically identical to the reference branch in
        :meth:`run_epoch` — same views, same traffic — with the
        per-node containers and transport guards lifted out of the
        loop (the same fusion MINT's update phase applies; the
        equivalence property test covers it). A view ships as the kind
        and :meth:`ViewUpdateMessage.wire_size` of its group count, so
        no entries are built or ordered.

        Under the event core the parent-side deposit (merging into the
        sink view or parking the partial view for the parent's turn)
        becomes an explicit receive handler passed to
        :meth:`~repro.network.simulator.Network.post_unicast`; in
        zero-delay mode the handler fires synchronously at the post
        site, byte-identical to the inline deposit below.
        """
        network = self.network
        merge = self.aggregate.merge
        group_of = self.group_of
        contributions_get = contributions.get
        children_of = network.tree.children
        parents = network.tree._parents
        ship_unicast = network._ship_unicast
        post_unicast = network.post_unicast if eventsim.enabled() else None
        kind = ViewUpdateMessage.kind
        wire_size = ViewUpdateMessage.wire_size
        sink_id = network.sink_id
        partial_views: dict[int, dict[GroupKey, Partial]] = {}
        sink_view: dict[GroupKey, Partial] = {}
        with network.stats.phase("aggregation"):
            for node_id in network.converge_cast_order():
                own = contributions_get(node_id)
                children = children_of(node_id)
                # -- leaf fast path: the view is the own contribution --
                if not children:
                    view: dict[GroupKey, Partial] = (
                        {} if own is None else {group_of[node_id]: own})
                else:
                    view = {}
                    if own is not None:
                        view[group_of[node_id]] = own
                    view_get = view.get
                    for child in children:
                        child_view = partial_views.get(child)
                        if not child_view:
                            continue
                        for group, partial in child_view.items():
                            existing = view_get(group)
                            view[group] = (partial if existing is None
                                           else merge(existing, partial))
                size = wire_size(len(view))
                # Every node in the converge-cast order is alive and
                # non-root, so the send_up guards are vacuous here.
                parent = parents[node_id]
                if post_unicast is not None:
                    def deposit(node_id=node_id, parent=parent, view=view):
                        if parent == sink_id:
                            sink_get = sink_view.get
                            for group, partial in view.items():
                                existing = sink_get(group)
                                sink_view[group] = (
                                    partial if existing is None
                                    else merge(existing, partial))
                        else:
                            partial_views[node_id] = view

                    post_unicast(node_id, parent, kind, size, deposit)
                    continue
                ship_unicast(node_id, parent, kind, size)
                if parent == sink_id:
                    sink_get = sink_view.get
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
                self.network.flood_down(lambda _: QueryMessage(query_id=1))
            self._disseminated = True
        contributions = self._acquire()
        hot = hotpath.enabled()
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

"""MINT: Materialized In-Network Top-k views (§III-A).

The algorithm runs in the paper's three phases every epoch, plus the
probe fallback that makes answers provably exact:

1. **Creation** (first epoch): full TAG-style views converge-cast to
   the sink. Ancestors cache the views — the "superset view of their
   descendants" — and the sink learns every group's sensor cardinality
   per child subtree (group membership is static).
2. **Pruning**: each node merges its reading with its children's
   cached reports into V_i, keeps the top-(k + slack) groups as V'_i,
   and computes the γ descriptor bounding everything pruned in its
   subtree.
3. **Update**: the node ships only the *delta* between V'_i and what
   its parent caches — changed partials, retractions of groups that
   fell out of V'_i, and γ when the cached one would no longer bound.

The sink then derives a certified interval per group (per-child γ and
per-child missing-mass accounting) and, when the intervals do not
certify the top-k, runs a **probe** round that fetches the withheld
partials of precisely the ambiguous groups — after which the answer is
exact. This is how the Figure-1 trap resolves: room D's pruned
``(D, 39)`` partial makes D's interval wide, D is probed, and the
correct answer ``(C, 75)`` emerges.

An optional adaptive controller grows ``slack`` after epochs that
probed and shrinks it after quiet ones, trading view size against
probe traffic (ablated in experiment E10).

Switch-and-prove: the fused single-pass creation and update phases
and the incremental ``TopKView`` certification run only on a
deployment whose ``Network.hot`` is set; on one built inside the
oracle ``hotpath.reference_path()`` (or over a lossy radio) the
first-principles branches and the cold ``certify_top_k`` oracle run
instead. ``tests/test_hotpath_equivalence.py`` and
``tests/test_delta_equivalence.py`` prove both paths byte-identical
(answers, certifications, stats, ledgers, RNG draws).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from ..errors import ConfigurationError, ProtocolError, ValidationError
from ..network.messages import (
    ProbeReplyMessage,
    ProbeRequestMessage,
    QueryMessage,
    ViewEntry,
    ViewUpdateMessage,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Bounds, Partial, SortKeys
from .certify import certify_top_k
from .delta import TopKView
from .descriptors import should_reship_gamma, subtree_gamma
from .participants import Participants
from .results import EpochResult, rank_key
from .views import MintNodeState, max_gamma

GroupKey = Hashable


@dataclass
class MintConfig:
    """Tunables of the pruning framework.

    Attributes:
        slack: Extra groups kept beyond k (keep-count = k + slack).
            Slack 0 prunes hardest but probes most; the paper's γ
            framework keeps answers exact either way.
        adaptive: Grow slack after a probing epoch, shrink it after
            ``quiet_epochs`` consecutive probe-free epochs.
        max_slack: Ceiling for the adaptive controller.
        quiet_epochs: Probe-free epochs before slack shrinks.
        gamma_hysteresis: Tightening margin below which a smaller γ is
            not worth a message.

    Raises:
        ConfigurationError: a negative ``slack`` (None means k),
            ``max_slack`` or ``gamma_hysteresis``, or ``quiet_epochs``
            below 1.
    """

    slack: int | None = None
    adaptive: bool = False
    max_slack: int = 16
    quiet_epochs: int = 8
    gamma_hysteresis: float = 1.0

    def __post_init__(self) -> None:
        for name, floor in (("slack", 0), ("max_slack", 0),
                            ("quiet_epochs", 1), ("gamma_hysteresis", 0)):
            value = getattr(self, name)
            if value is None and name == "slack":
                continue
            if not value >= floor:
                raise ConfigurationError(
                    f"MintConfig.{name} must be >= {floor}, got {value!r}")


class Mint:
    """One MINT execution over a deployed network."""

    name = "mint"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 group_of: Mapping[int, GroupKey],
                 attribute: str = "sound",
                 config: MintConfig | None = None,
                 window_epochs: int | None = None):
        """Args:
            network: The deployed simulator.
            aggregate: Ranking aggregate with attribute bounds.
            k: Ranking depth.
            group_of: Sensor id → group key. Sensors absent from the
                mapping do not participate (static WHERE pre-filter).
            attribute: Sensed attribute to acquire.
            window_epochs: When set, rank windowed aggregates of the
                last ``window_epochs`` readings instead of snapshots
                (the historic-horizontal mode of §III-B).
        """
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.attribute = attribute
        self.group_of = dict(group_of)
        self.config = config or MintConfig()
        self.window_epochs = window_epochs
        self.slack = self.config.slack if self.config.slack is not None else k
        self.states: dict[int, MintNodeState] = {
            node_id: MintNodeState() for node_id in network.tree.sensor_ids
        }
        self.created = False
        #: Sink knowledge: group → total count, and per sink-child counts.
        self.group_totals: dict[GroupKey, int] = {}
        self.child_group_totals: dict[int, dict[GroupKey, int]] = {}
        self._quiet_streak = 0
        self.probes_run = 0
        self._totals_stale = False
        #: Hot-path memo of per-group string sort keys.
        self._gstr = SortKeys()
        #: Hot-path memo of lifted reading partials (value → Partial;
        #: readings are ADC-quantized, so the domain is small).
        self._lift_memo: dict[float, Partial] = {}
        #: The alive participants, memoized per topology and membership.
        self._participants = Participants(network)
        #: Hot path: the sink's maintained certification view plus the
        #: bounds cache it mirrors. The update phase marks the groups
        #: whose sink-child reports moved; only those re-derive bounds
        #: and re-enter the view (O(|dirty| · log N) per epoch instead
        #: of a full _sink_bounds + certify_top_k re-rank).
        self._sink_view = TopKView(k)
        self._sink_cache: dict[GroupKey, Bounds] | None = None
        self._sink_dirty: set[GroupKey] = set()
        #: Groups the last probe collapsed to points in the view; their
        #: pristine cached intervals are restored next epoch before the
        #: dirty recompute.
        self._probe_restore: tuple[GroupKey, ...] = ()

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------

    def _acquire(self) -> dict[int, Partial]:
        """Sample every participant and lift readings into partials.

        In windowed mode the node first reduces its local history
        window (the "local search and filtering" of §III-B) and the
        window aggregate becomes its contribution.
        """
        contributions: dict[int, Partial] = {}
        nodes = self.network.nodes
        epoch = self.network.epoch
        attribute = self.attribute
        from_value = self.aggregate.from_value
        if self.window_epochs is None:
            if self.network.hot:
                # Readings are quantized to the modality's ADC, so the
                # same few hundred values recur; lifted partials are
                # immutable and safe to share across nodes and epochs.
                # Acquisition goes through the columnar batch read —
                # one batch_values call per board channel, shared with
                # any concurrent session over the same participants.
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
            else:
                for node_id in self._participants(self.group_of):
                    contributions[node_id] = from_value(
                        nodes[node_id].read(attribute, epoch))
            return contributions
        window_func = (self.aggregate.func.lower()
                       if self.aggregate.func != "COUNT" else "avg")
        for node_id in self._participants(self.group_of):
            node = nodes[node_id]
            node.read(attribute, epoch)
            value = node.window_for(attribute).aggregate(
                window_func, last_n=self.window_epochs)
            contributions[node_id] = from_value(value)
        return contributions

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _rebuild_view(self, node_id: int,
                      contribution: Partial | None) -> dict[GroupKey, Partial]:
        """V_i: own contribution merged with children's cached reports."""
        view: dict[GroupKey, Partial] = {}
        if contribution is not None:
            view[self.group_of[node_id]] = contribution
        nodes = self.network.nodes
        states = self.states
        merge = self.aggregate.merge
        get = view.get
        for child in self.network.tree.children(node_id):
            if not nodes[child].alive:
                continue
            for group, partial in states[child].reported.items():
                existing = get(group)
                view[group] = (partial if existing is None
                               else merge(existing, partial))
        return view

    def _prune(self, view: dict[GroupKey, Partial]
               ) -> tuple[dict[GroupKey, Partial], dict[GroupKey, Partial]]:
        """Split V_i into (kept V'_i, withheld) by local rank.

        Reference-path implementation; the hot path runs the fused
        :meth:`_run_update_phase` instead.
        """
        keep_count = self.k + self.slack
        ranked = sorted(
            view.items(),
            key=lambda item: rank_key(item[0],
                                      self.aggregate.finalize(item[1])),
        )
        kept = dict(ranked[:keep_count])
        withheld = dict(ranked[keep_count:])
        return kept, withheld

    def _update_message(self, state: MintNodeState,
                        kept: Mapping[GroupKey, Partial],
                        gamma: float | None,
                        epoch: int) -> ViewUpdateMessage | None:
        """Delta between V'_i and the parent's cache (None = silence).

        Reference-path implementation; the hot path runs the fused
        :meth:`_run_update_phase` instead.
        """
        changed = tuple(
            ViewEntry(group, partial.value, partial.count)
            for group, partial in sorted(kept.items(),
                                         key=lambda i: str(i[0]))
            if state.reported.get(group) != partial
        )
        retractions = tuple(
            group for group in sorted(state.reported, key=str)
            if group not in kept
        )
        ship_gamma = should_reship_gamma(
            gamma, state.gamma_reported,
            hysteresis=self.config.gamma_hysteresis)
        if not changed and not retractions and not ship_gamma:
            return None
        return ViewUpdateMessage(
            epoch=epoch,
            entries=changed,
            gamma=gamma if ship_gamma else None,
            retractions=retractions,
        )

    def _apply_report(self, state: MintNodeState,
                      kept: Mapping[GroupKey, Partial],
                      message: ViewUpdateMessage | None) -> None:
        """Commit what the parent now caches about this subtree."""
        if message is None:
            return
        reported = state.reported
        for group in message.retractions:
            reported.pop(group, None)
        for entry in message.entries:
            # The shipped entry was built from kept[group]; caching the
            # kept partial itself is value-identical and skips the
            # reconstruction.
            reported[entry.group] = kept[entry.group]
        if message.gamma is not None:
            state.gamma_reported = message.gamma

    def _creation_phase(self) -> None:
        """First acquisition: full views up, cardinalities learned.

        The hot path runs the fused :meth:`_run_creation_pass`; the
        reference branch below builds each node's view message and
        sends it with :meth:`Network.send_up`."""
        contributions = self._acquire()
        with self.network.stats.phase("creation"):
            self.network.flood_down(QueryMessage(query_id=1))
            if self.network.hot:
                self._run_creation_pass(contributions)
            else:
                for node_id in self.network.converge_cast_order():
                    state = self.states[node_id]
                    view = self._rebuild_view(node_id,
                                              contributions.get(node_id))
                    state.withheld = {}
                    message = ViewUpdateMessage(
                        epoch=self.network.epoch,
                        entries=tuple(
                            ViewEntry(group, partial.value, partial.count)
                            for group, partial in sorted(
                                view.items(), key=lambda i: str(i[0]))
                        ),
                    )
                    self.network.send_up(node_id, message)
                    state.reported = dict(view)
                    state.gamma_reported = None
        self.group_totals = {}
        self.child_group_totals = {}
        for child in self.network.tree.children(self.network.sink_id):
            if not self.network.node(child).alive:
                continue
            counts = {
                group: partial.count
                for group, partial in self.states[child].reported.items()
            }
            self.child_group_totals[child] = counts
            for group, count in counts.items():
                self.group_totals[group] = (
                    self.group_totals.get(group, 0) + count)
        self.created = True
        self._totals_stale = False

    # repro: hot
    def _run_creation_pass(self, contributions: dict[int, Partial]) -> None:
        """The creation converge-cast as one pass over the network's
        converge-cast plan (hot path).

        Each row merges its own partial with its live children's
        ``reported`` views, in :meth:`_rebuild_view`'s order, ships the
        whole view's :meth:`ViewUpdateMessage.wire_size` and then
        commits it as what the parent caches.
        """
        network = self.network
        states = self.states
        merge = self.aggregate.merge
        group_of = self.group_of
        contributions_get = contributions.get
        ship_unicast = network._ship_unicast
        kind = ViewUpdateMessage.kind
        wire_size = ViewUpdateMessage.wire_size
        for node_id, parent, children, _ in network.converge_cast_plan():
            view: dict[GroupKey, Partial] = {}
            contribution = contributions_get(node_id)
            if contribution is not None:
                view[group_of[node_id]] = contribution
            view_get = view.get
            for child in children:
                for group, partial in states[child].reported.items():
                    existing = view_get(group)
                    view[group] = (partial if existing is None
                                   else merge(existing, partial))
            ship_unicast(node_id, parent, kind, wire_size(len(view)))
            state = states[node_id]
            state.reported = view
            state.withheld = {}
            state.gamma_reported = None

    def _live_sink_children(self) -> list[int]:
        return [
            child for child in self.network.tree.children(self.network.sink_id)
            if self.network.node(child).alive
        ]

    def _bounds_for_group(self, group: GroupKey, total: int,
                          sink_children: list[int]) -> Bounds:
        """One group's certified interval from the sink's child caches."""
        seen: Partial | None = None
        gamma: float | None = None
        for child in sink_children:
            partial = self.states[child].reported.get(group)
            expected = self.child_group_totals.get(child, {}).get(group, 0)
            seen_count = partial.count if partial is not None else 0
            if partial is not None:
                seen = (partial if seen is None
                        else self.aggregate.merge(seen, partial))
            if seen_count < expected:
                child_gamma = self.states[child].gamma_reported
                if child_gamma is None:
                    raise ProtocolError(
                        f"child {child} withholds mass for group "
                        f"{group!r} without a γ descriptor"
                    )
                gamma = max_gamma(gamma, child_gamma)
        unseen = total - (seen.count if seen is not None else 0)
        return self.aggregate.bounds(seen, unseen, gamma)

    def _sink_bounds(self) -> dict[GroupKey, Bounds]:
        """Certified interval per group from the sink's child caches."""
        sink_children = self._live_sink_children()
        return {
            group: self._bounds_for_group(group, total, sink_children)
            for group, total in self.group_totals.items()
        }

    def _rebuild_sink_state(self) -> dict[GroupKey, Bounds]:
        """Cold start of the incremental sink state: derive every
        group's bounds and reconcile the view (births and deaths of
        groups fall out of the reconcile — churn recovery lands here
        via the cache invalidation in the topology handlers)."""
        cache = self._sink_bounds()
        self._sink_cache = cache
        self._sink_dirty.clear()
        self._probe_restore = ()
        self._sink_view.reconcile(cache)
        return cache

    def _refresh_sink_state(self) -> dict[GroupKey, Bounds]:
        """Re-derive bounds for the dirty groups only, feed the deltas
        into the maintained view, and return the full (cached) mapping
        — the hot-path replacement for a cold :meth:`_sink_bounds`."""
        cache = self._sink_cache
        if cache is None:
            return self._rebuild_sink_state()
        dirty = self._sink_dirty
        if dirty:
            sink_children = self._live_sink_children()
            totals = self.group_totals
            for group in dirty:
                total = totals.get(group)
                if total is None:
                    continue
                cache[group] = self._bounds_for_group(
                    group, total, sink_children)
        view_set = self._sink_view.set
        for group in self._probe_restore:
            # Undo last epoch's probe collapse unless the group is
            # dirty anyway (then the loop below re-asserts it).
            if group not in dirty and group in cache:
                view_set(group, cache[group])
        self._probe_restore = ()
        for group in dirty:
            interval = cache.get(group)
            if interval is not None:
                view_set(group, interval)
        dirty.clear()
        return cache

    # repro: hot
    def _probe(self, groups: tuple[GroupKey, ...]) -> dict[GroupKey, Partial]:
        """Fetch the withheld partials of the ambiguous groups.

        The request floods down; replies converge-cast back up, merging
        withheld partials per group. Only nodes with content (their own
        withheld tuples or a descendant's reply) transmit. The hot path
        walks the network's converge-cast plan and ships each reply's
        wire size; the reference path asks the tree for each node's
        children and sends a built reply with :meth:`Network.send_up`.
        """
        probe_set = set(groups)
        network = self.network
        states = self.states
        merge = self.aggregate.merge
        epoch = network.epoch
        sink_id = network.sink_id
        hot = network.hot
        if hot:
            rows = network.converge_cast_plan()
        else:
            children_of = network.tree.children
            rows = ((node_id, None, children_of(node_id), None)
                    for node_id in network.converge_cast_order())
        with network.stats.phase("probe"):
            network.flood_down(ProbeRequestMessage(
                epoch=epoch, groups=tuple(sorted(probe_set, key=str))))
            replies: dict[int, dict[GroupKey, Partial]] = {}
            collected: dict[GroupKey, Partial] = {}
            for node_id, parent, children, to_sink in rows:
                payload: dict[GroupKey, Partial] = {}
                for group, partial in states[node_id].withheld.items():
                    if group in probe_set:
                        payload[group] = partial
                for child in children:
                    reply = replies.get(child)
                    if not reply:
                        continue
                    for group, partial in reply.items():
                        existing = payload.get(group)
                        payload[group] = (
                            partial if existing is None
                            else merge(existing, partial))
                if not payload:
                    continue
                if hot:
                    network._ship_unicast(
                        node_id, parent, ProbeReplyMessage.kind,
                        ProbeReplyMessage.wire_size(len(payload)))
                else:
                    parent = network.send_up(
                        node_id, _probe_reply(epoch, payload))
                    to_sink = parent == sink_id
                if to_sink:
                    for group, partial in payload.items():
                        existing = collected.get(group)
                        collected[group] = (
                            partial if existing is None
                            else merge(existing, partial))
                else:
                    replies[node_id] = payload
        self.probes_run += 1
        return collected

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------

    def run_epoch(self) -> EpochResult:
        """Execute one acquisition round and return the certified top-k."""
        if not self.created:
            self._creation_phase()
            if self.network.hot:
                bounds = self._rebuild_sink_state()
                outcome = self._sink_view.outcome()
            else:
                bounds = self._sink_bounds()
                outcome = certify_top_k(bounds, self.k)
            result = EpochResult(
                epoch=self.network.epoch,
                items=outcome.items,
                exact=True,
                algorithm=self.name,
                probed=0,
                all_bounds={g: (b.lb, b.ub) for g, b in bounds.items()},
                certification=outcome,
            )
            self.network.advance_epoch()
            return result

        hot = self.network.hot
        if self._totals_stale:
            self._recount_totals()
            self._totals_stale = False
        contributions = self._acquire()
        if hot:
            self._run_update_phase(contributions)
        else:
            network = self.network
            states = self.states
            nodes = network.nodes
            tree = network.tree
            epoch = network.epoch
            aggregate = self.aggregate
            contributions_get = contributions.get
            with network.stats.phase("update"):
                for node_id in network.converge_cast_order():
                    state = states[node_id]
                    view = self._rebuild_view(
                        node_id, contributions_get(node_id))
                    kept, withheld = self._prune(view)
                    state.withheld = withheld
                    child_gammas = [
                        states[child].gamma_reported
                        for child in tree.children(node_id)
                        if nodes[child].alive
                    ]
                    gamma = subtree_gamma(aggregate, withheld, child_gammas)
                    message = self._update_message(state, kept, gamma, epoch)
                    if message is not None:
                        network.send_up(node_id, message)
                        self._apply_report(state, kept, message)

        if hot:
            bounds = self._refresh_sink_state()
            outcome = self._sink_view.outcome()
        else:
            bounds = self._sink_bounds()
            outcome = certify_top_k(bounds, self.k)
        probed = 0
        if outcome.needs_probe:
            collected = self._probe(outcome.ambiguous)
            probed = 1
            if hot:
                # Copy-on-probe: the cache keeps the pristine intervals
                # (next epoch's dirty recompute diffs against them);
                # only the result's all_bounds and the view see points.
                bounds = dict(bounds)
            restore = []
            for group, extra in collected.items():
                # Merge the probe mass with the already-seen partial
                # (recomputed from the sink's child caches).
                seen = self._seen_partial(group)
                merged = (extra if seen is None
                          else self.aggregate.merge(seen, extra))
                exact = self.aggregate.finalize(merged)
                if merged.count != self.group_totals[group]:
                    raise ProtocolError(
                        f"probe for {group!r} returned {merged.count} of "
                        f"{self.group_totals[group]} readings"
                    )
                point = Bounds(exact, exact)
                bounds[group] = point
                if hot:
                    self._sink_view.set(group, point)
                    restore.append(group)
            if hot:
                self._probe_restore = tuple(restore)
                outcome = self._sink_view.outcome()
            else:
                outcome = certify_top_k(bounds, self.k)
            if outcome.needs_probe:
                raise ProtocolError("probe did not certify the result")

        self._adapt_slack(probed)
        result = EpochResult(
            epoch=self.network.epoch,
            items=outcome.items,
            exact=True,
            algorithm=self.name,
            probed=probed,
            all_bounds={g: (b.lb, b.ub) for g, b in bounds.items()},
            certification=outcome,
        )
        self.network.advance_epoch()
        return result

    # repro: hot
    def _run_update_phase(self, contributions: dict[int, Partial]) -> None:
        """The pruning + update phases, fused into one pass over the
        network's converge-cast plan (hot path).

        Semantically identical to calling :meth:`_rebuild_view`,
        :meth:`_prune`, :func:`~repro.core.descriptors.subtree_gamma`,
        :meth:`_update_message` and :meth:`_apply_report` per node —
        the reference branch in :meth:`run_epoch` still does exactly
        that, and the equivalence tests hold the two paths to identical
        node state, traffic, stats and answers. After either path a
        node's ``reported`` equals its kept view V'_i: the delta is
        exactly what turns one into the other. So this pass commits by
        swapping the kept dict in, and only *counts* the delta (new or
        changed entries, retractions) for the message's
        :meth:`ViewUpdateMessage.wire_size`; the delta's groups are
        collected only where the parent is the sink, whose dirty groups
        they are.
        """
        network = self.network
        states = self.states
        finalize = self.aggregate.finalize
        merge = self.aggregate.merge
        gstr = self._gstr
        group_of = self.group_of
        keep_count = self.k + self.slack
        hysteresis = self.config.gamma_hysteresis
        contributions_get = contributions.get
        ship_unicast = network._ship_unicast
        kind = ViewUpdateMessage.kind
        wire_size = ViewUpdateMessage.wire_size
        sink_dirty = self._sink_dirty
        sort_key = lambda item: (-finalize(item[1]), gstr[item[0]])  # noqa: E731
        with network.stats.phase("update"):
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                state = states[node_id]
                # -- rebuild V_i ------------------------------------
                view: dict[GroupKey, Partial] = {}
                contribution = contributions_get(node_id)
                if contribution is not None:
                    view[group_of[node_id]] = contribution
                view_get = view.get
                for child in children:
                    for group, partial in states[child].reported.items():
                        existing = view_get(group)
                        view[group] = (partial if existing is None
                                       else merge(existing, partial))
                # -- prune into V'_i + withheld; γ: local max first -
                if len(view) <= keep_count:
                    kept = view
                    gamma = None
                    if state.withheld:
                        state.withheld = {}
                else:
                    ranked = sorted(view.items(), key=sort_key)
                    kept = dict(ranked[:keep_count])
                    withheld = state.withheld = dict(ranked[keep_count:])
                    gamma = max(map(finalize, withheld.values()))
                for child in children:
                    child_gamma = states[child].gamma_reported
                    if child_gamma is not None and (
                            gamma is None or child_gamma > gamma):
                        gamma = child_gamma
                # -- count the delta vs the parent's cache ----------
                reported = state.reported
                reported_get = reported.get
                kept_cached = changed = 0
                for group, partial in kept.items():
                    cached = reported_get(group)
                    if cached is None:
                        changed += 1
                        continue
                    kept_cached += 1
                    if cached != partial:
                        changed += 1
                retracted = len(reported) - kept_cached
                # Inlined should_reship_gamma (one call per node saved).
                reported_gamma = state.gamma_reported
                if gamma is None:
                    ship_gamma = False
                elif reported_gamma is None or gamma > reported_gamma:
                    ship_gamma = True
                else:
                    ship_gamma = reported_gamma - gamma > hysteresis
                if not changed and not retracted and not ship_gamma:
                    continue  # reported already equals kept
                # Every row is an alive non-root node, so the send_up
                # guards are vacuous here.
                ship_unicast(node_id, parent, kind,
                             wire_size(changed, retracted, ship_gamma))
                if to_sink:
                    for group, partial in kept.items():
                        if reported_get(group) != partial:
                            sink_dirty.add(group)
                    for group in reported:
                        if group not in kept:
                            sink_dirty.add(group)
                    if ship_gamma:
                        # A new γ can move the bound of every group with
                        # unseen mass under this child; the child's
                        # subtree census is the conservative superset.
                        sink_dirty.update(
                            self.child_group_totals.get(node_id, ()))
                # -- commit: the parent now caches exactly V'_i -----
                state.reported = kept
                if ship_gamma:
                    state.gamma_reported = gamma

    def _seen_partial(self, group: GroupKey) -> Partial | None:
        seen: Partial | None = None
        for child in self.network.tree.children(self.network.sink_id):
            if not self.network.node(child).alive:
                continue
            partial = self.states[child].reported.get(group)
            if partial is not None:
                seen = (partial if seen is None
                        else self.aggregate.merge(seen, partial))
        return seen

    def _adapt_slack(self, probed: int) -> None:
        if not self.config.adaptive:
            return
        if probed:
            self.slack = min(self.config.max_slack, self.slack + 1)
            self._quiet_streak = 0
            return
        self._quiet_streak += 1
        if self._quiet_streak >= self.config.quiet_epochs and self.slack > 0:
            self.slack -= 1
            self._quiet_streak = 0

    def handle_topology_change(self) -> None:
        """Nodes died / tree repaired: views must be re-created.

        The blunt fallback — full reset, full re-creation converge-cast
        next epoch. Subscribed sessions use the surgical
        :meth:`handle_topology_event` instead.
        """
        for state in self.states.values():
            state.reset()
        self.created = False
        self._sink_cache = None

    def handle_topology_event(self, event) -> int:
        """Invalidate and re-prime only the subtree state churn touched.

        The event's ``dirty`` set is upward-closed (every dirty node's
        ancestors are dirty too), so resetting exactly those states
        keeps the per-edge cache invariant: a clean node's parent still
        caches its last report, while every dirty node re-ships its
        full pruned view (its empty ``reported`` makes the next delta
        the whole of V'), re-priming the caches along both the old and
        the new attachment paths. The sink's per-subtree cardinalities
        are recounted lazily (once per batch, at the next epoch) from
        the static group membership of the repaired tree. Returns the
        number of node states re-primed.

        Args:
            event: A :class:`~repro.network.events.TopologyEvent`.
        """
        if event.failed:
            self.states.pop(event.node_id, None)
        elif event.joined:
            self.states[event.node_id] = MintNodeState()
        self._sink_cache = None
        if not self.created:
            # Creation has not run yet; the first epoch will learn the
            # repaired topology from scratch anyway.
            return 0
        reprimed = 0
        for node_id in event.dirty:
            state = self.states.get(node_id)
            if state is not None:
                state.reset()
                reprimed += 1
        self._totals_stale = True
        return reprimed

    def _recount_totals(self) -> None:
        """Re-learn group cardinalities from the repaired tree.

        Group membership is static knowledge (the Configuration Panel's
        clusters), so the sink can recount each sink-child subtree's
        per-group totals without any radio traffic.
        """
        self._sink_cache = None
        self.group_totals = {}
        self.child_group_totals = {}
        for child in self.network.tree.children(self.network.sink_id):
            if not self.network.node(child).alive:
                continue
            counts: dict[GroupKey, int] = {}
            for node_id in self.network.tree.subtree(child):
                if (node_id in self.group_of
                        and self.network.node(node_id).alive):
                    group = self.group_of[node_id]
                    counts[group] = counts.get(group, 0) + 1
            self.child_group_totals[child] = counts
            for group, count in counts.items():
                self.group_totals[group] = (
                    self.group_totals.get(group, 0) + count)

    def run(self, epochs: int) -> list[EpochResult]:
        """Convenience driver: ``epochs`` consecutive rounds."""
        return [self.run_epoch() for _ in range(epochs)]


def _probe_reply(epoch: int,
                 payload: Mapping[GroupKey, Partial]) -> ProbeReplyMessage:
    """The reference path's probe reply, entries in group-string order."""
    return ProbeReplyMessage(epoch=epoch, entries=tuple(
        ViewEntry(group, partial.value, partial.count)
        for group, partial in sorted(payload.items(),
                                     key=lambda i: str(i[0]))))

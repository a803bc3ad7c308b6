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

Switch-and-prove: the fused single-pass creation, update and probe
passes run only on a deployment whose ``Network.hot`` is set; on one
built inside the oracle ``hotpath.reference_path()`` the
first-principles branches run instead. Both sample the same way, as
every epoch engine does: one
:meth:`~repro.core.participants.Participants.partials` call over
``Network.read_many`` per epoch. The sink certifies the same way on
both too: it derives every group's interval from its
child caches (:meth:`Mint._sink_bounds`) and hands them to the cold
``certify_top_k`` oracle, as nearly every group's interval moves each
epoch anyway. ``tests/test_hotpath_equivalence.py`` and
``tests/test_delta_equivalence.py`` prove both paths byte-identical
(answers, certifications, stats, ledgers).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import groupby, repeat
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
from .descriptors import should_reship_gamma, subtree_gamma
from .participants import Participants
from .results import EpochResult, rank_key
from .views import MintNodeState

GroupKey = Hashable


#: Ceiling of the adaptive slack controller.
MAX_SLACK = 16
#: Probe-free epochs after which the adaptive controller shrinks slack.
QUIET_EPOCHS = 8
#: Tightening margin below which a smaller γ is not worth a message.
GAMMA_HYSTERESIS = 1.0


@dataclass
class MintConfig:
    """Tunables of the pruning framework.

    Attributes:
        slack: Extra groups kept beyond k (keep-count = k + slack).
            Slack 0 prunes hardest but probes most; the paper's γ
            framework keeps answers exact either way.
        adaptive: Grow slack after a probing epoch, up to
            :data:`MAX_SLACK`, and shrink it after :data:`QUIET_EPOCHS`
            consecutive probe-free epochs.

    Raises:
        ConfigurationError: a negative ``slack`` (None means k).
    """

    slack: int | None = None
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.slack is not None and not self.slack >= 0:
            raise ConfigurationError(
                f"MintConfig.slack must be >= 0, got {self.slack!r}")


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
        #: Per-mote state. A mote that joins unannounced (no topology
        #: event reached this engine) gets a fresh one on first use and
        #: relays as a non-member, as an unannounced death drops out.
        self.states: defaultdict[int, MintNodeState] = defaultdict(
            MintNodeState,
            {node_id: MintNodeState() for node_id in network.tree.sensor_ids})
        self.created = False
        #: Sink knowledge: group → total count, and per sink-child counts.
        self.group_totals: dict[GroupKey, int] = {}
        self.child_group_totals: dict[int, dict[GroupKey, int]] = {}
        self._quiet_streak = 0
        self.probes_run = 0
        #: The converge-cast plan the group totals were counted on.
        self._census_plan: tuple | None = None
        #: Hot-path memo of per-group string sort keys.
        self._gstr = SortKeys()
        #: The alive participants and their epoch's contributions.
        self._participants = Participants(network)

    def _acquire(self) -> dict[int, Partial]:
        """Every participant's reading (or window aggregate), lifted."""
        return self._participants.partials(
            self.group_of, self.attribute, self.aggregate,
            self.window_epochs)

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

        A view that fits is kept whole, in its own order (which breaks
        later ties between labels that print alike), else in rank order.

        Reference-path implementation; the hot path runs the fused
        :meth:`_run_update_phase` instead.
        """
        keep_count = self.k + self.slack
        if len(view) <= keep_count:
            return view, {}
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
            gamma, state.gamma_reported, hysteresis=GAMMA_HYSTERESIS)
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
        """Commit what the parent now caches about this subtree: V'_i,
        in its order (see :meth:`_prune`)."""
        if message is None:
            return
        state.reported = dict(kept)
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
        self._count_members()
        self.created = True

    # repro: hot
    def _run_creation_pass(self, contributions: dict[int, Partial]) -> None:
        """The creation converge-cast as one pass over the network's
        converge-cast plan (hot path).

        Each row builds V_i as :meth:`_run_update_phase` does and
        commits it whole as what the parent caches; the pass ships each
        view's :meth:`ViewUpdateMessage.wire_size` in one
        :meth:`Network.ship_edges` call.
        """
        network = self.network
        states = self.states
        merge = self.aggregate.merge
        group_of = self.group_of
        contributions_get = contributions.get
        wire_size = ViewUpdateMessage.wire_size
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        for node_id, parent, children, _ in network.converge_cast_plan():
            contribution = contributions_get(node_id)
            if len(children) == 1:
                reported = states[children[0]].reported
                if contribution is None:
                    view = reported.copy()
                else:
                    group = group_of[node_id]
                    view = {group: contribution}
                    view.update(reported)
                    cached = reported.get(group)
                    if cached is not None:
                        view[group] = merge(contribution, cached)
            else:
                view = {}
                if contribution is not None:
                    view[group_of[node_id]] = contribution
                view_get = view.get
                for child in children:
                    for group, partial in states[child].reported.items():
                        existing = view_get(group)
                        view[group] = (partial if existing is None
                                       else merge(existing, partial))
            ship((node_id, parent, wire_size(len(view))))
            state = states[node_id]
            state.reported = view
            state.withheld = {}
            state.gamma_reported = None
        network.ship_edges(ViewUpdateMessage.kind, edges)

    def _sink_bounds(self) -> tuple[dict[GroupKey, Bounds],
                                    dict[GroupKey, Partial | None]]:
        """Each group's certified interval from the sink's child caches,
        and the partial the sink has seen of it (None for none). Each
        live sink child's cache, member counts and γ are read once."""
        network = self.network
        children = []
        for child in network.tree.children(network.sink_id):
            if network.nodes[child].alive:
                state = self.states[child]
                children.append((child, state.reported.get,
                                 self.child_group_totals.get(child, {}).get,
                                 state.gamma_reported))
        bounds: dict[GroupKey, Bounds] = {}
        seen_of: dict[GroupKey, Partial | None] = {}
        for group, total in self.group_totals.items():
            seen = gamma = None
            for child, reported_get, expected_get, child_gamma in children:
                partial = reported_get(group)
                count = 0
                if partial is not None:
                    seen = (partial if seen is None
                            else self.aggregate.merge(seen, partial))
                    count = partial[1]
                if count < expected_get(group, 0):
                    if child_gamma is None:
                        raise ProtocolError(
                            f"child {child} withholds mass for group "
                            f"{group!r} without a γ descriptor"
                        )
                    if gamma is None or child_gamma > gamma:
                        gamma = child_gamma
            seen_of[group] = seen
            bounds[group] = self.aggregate.bounds(
                seen, total - (0 if seen is None else seen[1]), gamma)
        return bounds, seen_of

    # repro: hot
    def _probe(self, groups: tuple[GroupKey, ...]) -> dict[GroupKey, Partial]:
        """Fetch the withheld partials of the ambiguous groups.

        The request floods down; replies converge-cast back up, merging
        withheld partials per group. Only nodes with content (their own
        withheld tuples or a descendant's reply) transmit. The hot path
        walks the network's converge-cast plan and ships every reply's
        wire size in one :meth:`Network.ship_edges` call, as
        :meth:`_run_update_phase` does; the reference path asks the
        tree for each node's children and sends a built reply with
        :meth:`Network.send_up`.
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
        wire_size = ProbeReplyMessage.wire_size
        edges: list[tuple[int, int, int]] = []
        with network.stats.phase("probe"):
            network.flood_down(ProbeRequestMessage(
                epoch=epoch, groups=tuple(sorted(probe_set, key=str))))
            replies: dict[int, dict[GroupKey, Partial]] = {}
            collected: dict[GroupKey, Partial] = {}
            for node_id, parent, children, to_sink in rows:
                # No dict for a row with nothing to send.
                payload: dict[GroupKey, Partial] | None = None
                withheld = states[node_id].withheld
                if withheld and not probe_set.isdisjoint(withheld):
                    payload = {}
                    for group, partial in withheld.items():
                        if group in probe_set:
                            payload[group] = partial
                for child in children:
                    reply = replies.get(child)
                    if reply is None:
                        continue
                    if payload is None:
                        payload = reply.copy()
                        continue
                    for group, partial in reply.items():
                        existing = payload.get(group)
                        payload[group] = (
                            partial if existing is None
                            else merge(existing, partial))
                if payload is None:
                    continue
                if hot:
                    edges.append((node_id, parent,
                                  wire_size(len(payload))))
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
            network.ship_edges(ProbeReplyMessage.kind, edges)
        self.probes_run += 1
        return collected

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------

    def run_epoch(self) -> EpochResult:
        """Execute one acquisition round and return the certified top-k."""
        if not self.created:
            self._creation_phase()
            bounds, _ = self._sink_bounds()
            outcome = _certify(bounds, self.k)
            result = EpochResult(
                epoch=self.network.epoch,
                items=outcome.items if outcome else (),
                exact=True,
                algorithm=self.name,
                probed=0,
                certification=outcome,
            )
            self.network.advance_epoch()
            return result

        if self.network.converge_cast_plan() is not self._census_plan:
            self._count_members()
        contributions = self._acquire()
        if self.network.hot:
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

        bounds, seen_of = self._sink_bounds()
        outcome = _certify(bounds, self.k)
        probed = 0
        if outcome and outcome.needs_probe:
            collected = self._probe(outcome.ambiguous)
            probed = 1
            for group, extra in collected.items():
                # Merge the probe mass with the partial the sink's
                # child caches already hold of the group.
                seen = seen_of[group]
                merged = (extra if seen is None
                          else self.aggregate.merge(seen, extra))
                exact = self.aggregate.finalize(merged)
                if merged.count != self.group_totals[group]:
                    raise ProtocolError(
                        f"probe for {group!r} returned {merged.count} of "
                        f"{self.group_totals[group]} readings"
                    )
                bounds[group] = Bounds(exact, exact)
            outcome = certify_top_k(bounds, self.k)
            if outcome.needs_probe:
                raise ProtocolError("probe did not certify the result")

        self._adapt_slack(probed)
        result = EpochResult(
            epoch=self.network.epoch,
            items=outcome.items if outcome else (),
            exact=True,
            algorithm=self.name,
            probed=probed,
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
        :meth:`ViewUpdateMessage.wire_size`; every delta ships in one
        :meth:`Network.ship_edges` call, in plan order.

        A row with exactly one live child builds V_i from that child's
        ``reported`` view in C: a copy of it, or, with a partial of its
        own, ``{own group: own}`` updated with it and the own group's
        entry then merged as ``merge(own, child's)``. That is the dict,
        insertion order included, that the per-entry loop builds for
        leaves and rows of several children. The order matters: a
        newborn adopted mid-run may carry a label that prints like an
        existing one, and the prune's sort key ``(-score, str(group))``
        then ties the two and keeps them in the view's order, as the
        reference path's stable sort does.

        Each child's state is read once and merges inline
        :meth:`Aggregate.merge`; the own prunes' γ goes first, as in
        :func:`~repro.core.views.max_gamma`.
        """
        network = self.network
        states = self.states
        finalize = self.aggregate.finalize
        combine = self.aggregate.combine
        new = tuple.__new__
        gstr = self._gstr
        group_of = self.group_of
        keep_count = self.k + self.slack
        hysteresis = GAMMA_HYSTERESIS
        contributions_get = contributions.get
        # wire_size is affine in its three counts: add its terms inline.
        wire_size = ViewUpdateMessage.wire_size
        epoch_bytes = wire_size(0)
        entry_bytes, retraction_bytes, gamma_bytes = (
            wire_size(1) - epoch_bytes, wire_size(0, 1) - epoch_bytes,
            wire_size(0, 0, True) - epoch_bytes)
        sort_key = lambda item: (-finalize(item[1]), gstr[item[0]])  # noqa: E731
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        with network.stats.phase("update"):
            for node_id, parent, children, _ in (
                    network.converge_cast_plan()):
                # -- rebuild V_i; the children's γ max ----------
                contribution = contributions_get(node_id)
                if len(children) == 1:
                    child = states[children[0]]
                    reported = child.reported
                    child_gamma = child.gamma_reported
                    if contribution is None:
                        view = reported.copy()
                    else:
                        group = group_of[node_id]
                        view = {group: contribution}
                        view.update(reported)
                        cached = reported.get(group)
                        if cached is not None:
                            view[group] = new(Partial, (
                                combine(contribution[0], cached[0]),
                                contribution[1] + cached[1]))
                else:
                    view = {}
                    if contribution is not None:
                        view[group_of[node_id]] = contribution
                    view_get = view.get
                    child_gamma = None
                    for child_id in children:
                        child = states[child_id]
                        gamma = child.gamma_reported
                        if gamma is not None and (
                                child_gamma is None or gamma > child_gamma):
                            child_gamma = gamma
                        for group, partial in child.reported.items():
                            existing = view_get(group)
                            view[group] = (partial if existing is None else new(
                                Partial, (combine(existing[0], partial[0]),
                                          existing[1] + partial[1])))
                # -- prune into V'_i + withheld; γ: local max first
                state = states[node_id]
                if len(view) <= keep_count:
                    kept = view
                    gamma = child_gamma
                    if state.withheld:
                        state.withheld = {}
                else:
                    # repro: allow[hot-loop-allocation] -- a view holds 3-8 entries, where a decorated two-pass sort with C keys measured slower (AVG: 2.2 against 1.6 us at 3 entries, 3.7 against 3.4 us at 8)
                    ranked = sorted(view.items(), key=sort_key)
                    kept = dict(ranked[:keep_count])
                    withheld = state.withheld = dict(ranked[keep_count:])
                    gamma = max(map(finalize, withheld.values()))
                    if child_gamma is not None and child_gamma > gamma:
                        gamma = child_gamma
                # -- count the delta vs the parent's cache ------
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
                ship((node_id, parent, epoch_bytes + changed * entry_bytes
                      + retracted * retraction_bytes
                      + (gamma_bytes if ship_gamma else 0)))
                # -- commit: the parent now caches exactly V'_i -
                state.reported = kept
                if ship_gamma:
                    state.gamma_reported = gamma
            network.ship_edges(ViewUpdateMessage.kind, edges)

    def _adapt_slack(self, probed: int) -> None:
        if not self.config.adaptive:
            return
        if probed:
            self.slack = min(MAX_SLACK, self.slack + 1)
            self._quiet_streak = 0
            return
        self._quiet_streak += 1
        if self._quiet_streak >= QUIET_EPOCHS and self.slack > 0:
            self.slack -= 1
            self._quiet_streak = 0

    def handle_topology_event(self, event) -> int:
        """Invalidate and re-prime only the subtree state churn touched.

        The event's ``dirty`` set is upward-closed (every dirty node's
        ancestors are dirty too), so resetting exactly those states
        keeps the per-edge cache invariant: a clean node's parent still
        caches its last report, while every dirty node re-ships its
        full pruned view (its empty ``reported`` makes the next delta
        the whole of V'), re-priming the caches along both the old and
        the new attachment paths. The sink's per-subtree cardinalities
        are recounted at the next epoch (:meth:`_count_members`, once
        per batch of events). Returns the number of node states
        re-primed.

        Args:
            event: A :class:`~repro.network.events.TopologyEvent`.
        """
        if event.failed:
            self.states.pop(event.node_id, None)
        elif event.joined:
            self.states[event.node_id] = MintNodeState()
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
        return reprimed

    def _count_members(self) -> None:
        """Learn the sink's group cardinalities from the network's
        converge-cast plan: per live sink child, the members whose
        readings can reach the sink
        (:meth:`~repro.network.simulator.Network.sink_roots`).

        Group membership is static knowledge (the Configuration Panel's
        clusters), so the sink counts without any radio traffic. The
        live descendants of a dead relay are not counted: their reports
        never arrive. Runs at creation and whenever the network has
        built a new plan, i.e. its tree or topology changed.
        """
        self._census_plan = self.network.converge_cast_plan()
        group = self.group_of.get
        roots = self.network.sink_roots()
        totals: dict[GroupKey, int] = {}
        child_totals: dict[int, dict[GroupKey, int]] = {}
        # Each sink child's run of the map is one block, root first:
        # its members count per group in one pass of C-level lookups.
        for root, run in groupby(roots, roots.__getitem__):
            counts = Counter(map(group, run, repeat(_NOT_A_MEMBER)))
            counts.pop(_NOT_A_MEMBER, None)
            child_totals[root] = dict(counts)
            for key, count in counts.items():
                totals[key] = totals.get(key, 0) + count
        self.group_totals = totals
        self.child_group_totals = child_totals

    def run(self, epochs: int) -> list[EpochResult]:
        """Convenience driver: ``epochs`` consecutive rounds."""
        return [self.run_epoch() for _ in range(epochs)]


#: What the census reads for a sensor outside the query's membership
#: map (a plain ``None`` could be a group label).
_NOT_A_MEMBER = object()


def _certify(bounds: Mapping[GroupKey, Bounds], k: int):
    """:func:`~repro.core.certify.certify_top_k`, except that an epoch
    in which no member can reach the sink (churn killed or cut off
    every one) has nothing to rank: it answers no items and certifies
    nothing (None), as TAG answers no items then."""
    return certify_top_k(bounds, k) if bounds else None


def _probe_reply(epoch: int,
                 payload: Mapping[GroupKey, Partial]) -> ProbeReplyMessage:
    """The reference path's probe reply, entries in group-string order."""
    return ProbeReplyMessage(epoch=epoch, entries=tuple(
        ViewEntry(group, partial.value, partial.count)
        for group, partial in sorted(payload.items(),
                                     key=lambda i: str(i[0]))))

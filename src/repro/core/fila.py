"""FILA-style filter-based top-k monitoring (Wu et al., ICDE 2006).

The cited snapshot-class alternative to MINT (reference [17]): instead
of shipping pruned views every epoch, the sink installs a *filter
interval* on every node. A node stays silent while its reading remains
inside its filter; it reports only on a violation. The sink re-derives
the top-k from exact reports plus filter intervals, probing nodes whose
intervals straddle the ranking boundary, then reassigns filters around
the new boundary.

This implementation monitors the top-k *nodes* by their current reading
(FILA's core setting). Correctness is certification-based, reusing
:func:`repro.core.certify.certify_top_k`: silent nodes contribute their
filter interval as bounds — sound, because silence proves the reading
stayed inside. Each epoch's answer is therefore certified as a *set*:
its k nodes are the true top-k. Unlike MINT's, its order and scores are
not: an item ranks by its interval's lower bound and scores the
interval's midpoint, so an item whose ``[lb, ub]`` is not a point can
rank below a node with a lower reading.

Switch-and-prove: on a deployment whose ``Network.hot`` is set, the
set-up reports, the monitor pass, each probe round and the
filter-install pass are plain loops over the readings that ship a
whole pass through one ``Network.relay_many`` call and feed the
persistent ``TopKView`` each node's interval as an ``(lb, ub)`` pair in
one ``ensure_many`` batch; the repartition reads those pairs back. A
deployment built inside the oracle ``hotpath.reference_path()`` (or
over a lossy radio) runs the first-principles branches, which build
and ship every message node by node, hold a ``Bounds`` per node and
certify with the cold ``certify_top_k`` oracle.
``tests/test_hotpath_equivalence.py`` and
``tests/test_delta_equivalence.py`` prove the two paths
byte-identical.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import ValidationError
from ..network.messages import (
    FilterReportMessage,
    FilterUpdateMessage,
    ProbeRequestMessage,
    QueryMessage,
    ViewEntry,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Bounds
from .certify import certify_top_k
from .delta import TopKView
from .participants import Participants
from .results import EpochResult

#: What the hot passes relay, as ``(kind, payload bytes)``: a one-entry
#: violation or probe report up, a one-node probe or one-interval
#: filter install down.
_REPORT = (FilterReportMessage.kind, FilterReportMessage.wire_size(1))
_PROBE = (ProbeRequestMessage.kind, ProbeRequestMessage.wire_size(1))
_INSTALL = (FilterUpdateMessage.kind, FilterUpdateMessage.wire_size(1))


class Fila:
    """Filter-based continuous top-k node monitoring."""

    name = "fila"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 group_of: Mapping[int, Hashable] | None = None,
                 attribute: str = "sound"):
        """Filters partition the value space strictly at the ranking
        boundary: the top-k nodes' filters sit above it, everyone
        else's below. Overlapping (hysteresis) filters would leave the
        boundary permanently ambiguous and force a probe per epoch —
        the partition is what lets silence certify the set.

        ``group_of`` names the monitored sensors (the static WHERE
        pre-filter, as for MINT and TAG); None monitors every alive
        sensor.
        """
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.attribute = attribute
        self.group_of = None if group_of is None else dict(group_of)
        #: The alive participants and their epoch's readings.
        self._participants = Participants(network)
        #: Installed filter per node (lo, hi); None until setup.
        self.filters: dict[int, tuple[float, float]] = {}
        #: The sink's last exactly-known value per node.
        self.known: dict[int, float] = {}
        #: The global ranking boundary the filters partition at.
        self.boundary = aggregate.lo
        self._setup_done = False
        #: Hot path: the sink's certification view. FILA is the
        #: certifier's heaviest client (the monitor pass, each probe
        #: round and the answer pass certify all N nodes every epoch);
        #: the view holds each node's interval as a float pair and
        #: ranks them in one C sort per outcome.
        self._view = TopKView(k, require_exact_scores=False)

    # ------------------------------------------------------------------
    # Filter management
    # ------------------------------------------------------------------

    def _choose_boundary(self, chosen_floor: float, others_ceiling: float
                         ) -> float:
        """Pick the partition point between the top-k and the rest.

        Any value in ``[others_ceiling, chosen_floor]`` partitions
        correctly; keeping the previous boundary when it still fits
        avoids reinstalling every filter on small drifts."""
        if others_ceiling <= self.boundary <= chosen_floor:
            return self.boundary
        if others_ceiling > chosen_floor:
            # Exact tie straddling the cut: both sides sit at the value.
            return chosen_floor
        return (chosen_floor + others_ceiling) / 2.0

    # repro: hot
    def _install_filters(self, chosen: set[int], boundary: float,
                         exact_values: Mapping[int, float]) -> None:
        """Repartition with minimal reinstalls.

        Certification needs every chosen filter to sit at or above the
        cut and every other filter at or below it. A node keeps its
        current filter whenever it already satisfies that (and still
        contains the node's value, where the sink knows it) — so a
        drift event only reinstalls the nodes actually involved.
        Assignment is by *rank*, not by value: a node tied exactly at
        the boundary stays silent on whichever side it was assigned.

        Walks every node the sink has heard from, so a mote that joined
        after setup gets its first filter here. The reinstalls ship in
        ascending id order: in one :meth:`Network.relay_many` call on
        the hot path, one built message per mote on the reference path,
        where a drop leaves only the motes relayed before it
        installed."""
        nodes = self.network.nodes
        filters = self.filters
        agg_lo, agg_hi = self.aggregate.lo, self.aggregate.hi
        installs = []
        for node_id in sorted(self.known):
            node = nodes.get(node_id)
            if node is None or not node.alive:
                continue
            current = filters.get(node_id)
            if node_id in chosen:
                acceptable = (current is not None
                              and current[0] >= boundary
                              and current[1] == agg_hi)
                new_filter = (boundary, agg_hi)
            else:
                acceptable = (current is not None
                              and current[1] <= boundary
                              and current[0] == agg_lo)
                new_filter = (agg_lo, boundary)
            if acceptable and node_id in exact_values:
                lo, hi = current
                acceptable = lo <= exact_values[node_id] <= hi
            if acceptable or current == new_filter:
                continue
            installs.append((node_id, new_filter))
        if not self.network.hot:
            for node_id, new_filter in installs:
                self.network.unicast_from_sink(
                    node_id, FilterUpdateMessage(
                        intervals=((node_id, *new_filter),)))
                filters[node_id] = new_filter
            return
        self.network.relay_many([node_id for node_id, _ in installs],
                                down=_INSTALL)
        filters.update(installs)

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------

    def _setup(self, readings: Mapping[int, float]) -> None:
        """Every mote reports its reading, in the readings' order, and
        the first filters go out around the initial top-k. On the hot
        path the reports ship in one :meth:`Network.relay_many` call;
        on the reference path one built message per mote, where a drop
        leaves only the motes relayed before it known."""
        known = self.known
        with self.network.stats.phase("setup"):
            self.network.flood_down(QueryMessage(query_id=4))
            if self.network.hot:
                self.network.relay_many(list(readings), up=_REPORT)
                known.update(readings)
            else:
                for node_id, value in readings.items():
                    self.network.unicast_to_sink(
                        node_id, FilterReportMessage(
                            epoch=self.network.epoch,
                            entries=(ViewEntry(node_id, value, 1),)))
                    known[node_id] = value
            ranked = sorted(self.known.items(), key=lambda kv: (-kv[1], kv[0]))
            chosen = {node_id for node_id, _ in ranked[:self.k]}
            if len(ranked) > self.k:
                self.boundary = (ranked[self.k - 1][1]
                                 + ranked[self.k][1]) / 2.0
            self._install_filters(chosen, self.boundary, {})
        self._setup_done = True

    # repro: hot
    def _run_monitor(self, readings: Mapping[int, float]) -> None:
        """The hot monitoring pass, one loop over the readings.

        A node inside its filter keeps the filter interval as its
        pair; every other node (a violation, or a joiner with no
        filter yet) reports, in ascending id order with the reference
        loop's bytes, through one :meth:`Network.relay_many` call. The
        view takes the whole pass as one :meth:`TopKView.ensure_many`
        batch.
        """
        filters_get = self.filters.get
        changes = []
        reporters = []
        with self.network.stats.phase("monitor"):
            for node_id, value in readings.items():
                current = filters_get(node_id)
                if (current is not None
                        and current[0] <= value <= current[1]):
                    changes.append((node_id, current))
                else:
                    reporters.append(node_id)
            self.network.relay_many(reporters, up=_REPORT)
            known = self.known
            for node_id in reporters:
                value = readings[node_id]
                known[node_id] = value
                changes.append((node_id, (value, value)))
            self._view.ensure_many(changes)
        self._drop_stale_view_nodes(readings)

    # repro: hot
    def _probe_round(self, ambiguous, readings: Mapping[int, float]
                     ) -> None:
        """One hot probe round: every ambiguous node whose pair is not
        a point gets a probe down and reports its reading up, in the
        reference loop's order and bytes, through one
        :meth:`Network.relay_many` call; the view collapses the
        delivered pairs as one :meth:`TopKView.ensure_many` batch."""
        pairs = self._view.pairs
        targets = []
        for node_id in ambiguous:
            lb, ub = pairs[node_id]
            if lb != ub:
                targets.append(node_id)
        with self.network.stats.phase("probe"):
            self.network.relay_many(targets, down=_PROBE, up=_REPORT)
            known = self.known
            changes = []
            for node_id in targets:
                value = readings[node_id]
                known[node_id] = value
                changes.append((node_id, (value, value)))
            self._view.ensure_many(changes)

    # repro: hot
    def _converge_view(self, readings: Mapping[int, float]) -> None:
        """Converge the persistent view to answer-time knowledge in one
        :meth:`TopKView.ensure_many` batch: only nodes whose filter was
        just reinstalled (or probed / violated) actually move."""
        known_get = self.known.get
        filters_get = self.filters.get
        unknown = (self.aggregate.lo, self.aggregate.hi)
        changes = []
        for node_id, value in readings.items():
            if known_get(node_id) == value:
                changes.append((node_id, (value, value)))
            else:
                current = filters_get(node_id)
                changes.append((node_id,
                                unknown if current is None else current))
        self._view.ensure_many(changes)
        self._drop_stale_view_nodes(readings)

    def _drop_stale_view_nodes(self, readings: Mapping[int, float]) -> None:
        """Retract view entries for nodes no longer read (deaths the
        session's topology handler did not see, e.g. engine-direct
        runs)."""
        view = self._view
        if len(view) != len(readings):
            for node_id in [n for n in view.pairs if n not in readings]:
                view.delete(node_id)

    # repro: hot
    def _repartition(self, outcome,
                     intervals: Mapping[int, tuple[float, float]]) -> None:
        """Re-partition the filters around the certified cut.

        ``intervals`` holds every node's ``(lb, ub)`` at the certified
        outcome. The chosen k's floor is the outcome's τ (the smallest
        lb among them); the others' ceiling is their largest ub; a node
        whose pair is a point and whose value the sink knows is fresh.
        """
        chosen = {item.key for item in outcome.items}
        if len(intervals) > len(chosen):
            others_ceiling = max(ub for node_id, (_, ub) in intervals.items()
                                 if node_id not in chosen)
            self.boundary = self._choose_boundary(outcome.threshold,
                                                  others_ceiling)
        known = self.known
        fresh = {node_id: known[node_id]
                 for node_id, (lb, ub) in intervals.items()
                 if lb == ub and node_id in known}
        with self.network.stats.phase("filter_update"):
            self._install_filters(chosen, self.boundary, fresh)

    def _reporting(self, readings: dict[int, float]) -> dict[int, float]:
        """The readings of the motes that can report to the sink.

        A relay killed without a repair strands its live subtree:
        nothing those motes send arrives. The sink forgets them as it
        forgets the dead (:meth:`_forget`); once a repair reconnects
        them they report and get a filter, as joiners do. The reach is
        the network's, derived once per converge-cast plan and read by
        MINT's census too.
        """
        reach = self.network.sink_roots()
        if len(reach) == len(self.network.converge_cast_plan()):
            return readings
        reporting = {}
        for node_id, value in readings.items():
            if node_id in reach:
                reporting[node_id] = value
            else:
                self._forget(node_id)
        return reporting

    def run_epoch(self) -> EpochResult:
        """One monitoring round: violations, certification, probes."""
        network = self.network
        readings = self._reporting(
            self._participants.readings(self.group_of, self.attribute))
        if not readings:
            # Churn killed or cut off every monitored mote: there is
            # nothing to rank, so the epoch answers no items and
            # certifies nothing, as MINT and TAG answer then.
            result = EpochResult(epoch=network.epoch, items=(), exact=True,
                                 algorithm=self.name)
            network.advance_epoch()
            return result
        probed = 0
        hot = network.hot
        if not self._setup_done:
            self._setup(readings)
        elif hot:
            self._run_monitor(readings)
            # FILA certifies set membership: silent nodes keep their
            # filter interval as the score estimate.
            outcome = self._view.outcome()
            while outcome.needs_probe:
                self._probe_round(outcome.ambiguous, readings)
                probed += 1
                outcome = self._view.outcome()
            self._repartition(outcome, self._view.pairs)
        else:
            with self.network.stats.phase("monitor"):
                for node_id, value in readings.items():
                    # A node with no installed filter (it joined after
                    # setup) always reports: silence only certifies
                    # where a filter exists to stay inside.
                    current = self.filters.get(node_id)
                    if (current is not None
                            and current[0] <= value <= current[1]):
                        continue
                    self.network.unicast_to_sink(
                        node_id, FilterReportMessage(
                            epoch=self.network.epoch,
                            entries=(ViewEntry(node_id, value, 1),)))
                    # The violating node's filter is void until reset;
                    # treat its value as exactly known this epoch.
                    self.known[node_id] = value

            bounds = {}
            for node_id, value in readings.items():
                current = self.filters.get(node_id)
                if (current is not None
                        and current[0] <= value <= current[1]):
                    bounds[node_id] = Bounds(current[0], current[1])
                else:
                    bounds[node_id] = Bounds(value, value)
            outcome = certify_top_k(bounds, self.k,
                                    require_exact_scores=False)
            while outcome.needs_probe:
                with self.network.stats.phase("probe"):
                    for node_id in outcome.ambiguous:
                        if bounds[node_id].exact:
                            continue
                        self.network.unicast_from_sink(
                            node_id, ProbeRequestMessage(
                                epoch=self.network.epoch,
                                groups=(node_id,)))
                        self.network.unicast_to_sink(
                            node_id, FilterReportMessage(
                                epoch=self.network.epoch,
                                entries=(ViewEntry(
                                    node_id, readings[node_id], 1),)))
                        value = readings[node_id]
                        self.known[node_id] = value
                        bounds[node_id] = Bounds(value, value)
                probed += 1
                outcome = certify_top_k(bounds, self.k,
                                        require_exact_scores=False)
            self._repartition(outcome, {node_id: (interval.lb, interval.ub)
                                        for node_id, interval
                                        in bounds.items()})

        # Build the answer from current knowledge.
        if hot:
            self._converge_view(readings)
            outcome = self._view.outcome()
        else:
            known_get = self.known.get
            filters_get = self.filters.get
            unknown = Bounds(self.aggregate.lo, self.aggregate.hi)
            bounds = {}
            for node_id, value in readings.items():
                if known_get(node_id) == value:
                    bounds[node_id] = Bounds(value, value)
                else:
                    current = filters_get(node_id)
                    bounds[node_id] = (unknown if current is None
                                       else Bounds(current[0], current[1]))
            outcome = certify_top_k(bounds, self.k,
                                    require_exact_scores=False)
        result = EpochResult(
            epoch=self.network.epoch,
            items=outcome.items,
            exact=outcome.certified,
            algorithm=self.name,
            probed=probed,
            certification=outcome,
        )
        self.network.advance_epoch()
        return result

    def _forget(self, node_id: int) -> bool:
        """Drop a node's filter, known value and view entry; True when
        it had a filter."""
        self.known.pop(node_id, None)
        self._view.delete(node_id)
        return self.filters.pop(node_id, None) is not None

    def handle_topology_event(self, event) -> int:
        """Forget the dead node (:meth:`_forget`); newborns get a filter
        lazily (their first epoch reports, the repartition step then
        installs one). Returns the number of filters invalidated.
        """
        if not event.failed:
            return 0
        return int(self._forget(event.node_id))

    def run(self, epochs: int) -> list[EpochResult]:
        """``epochs`` consecutive monitoring rounds."""
        return [self.run_epoch() for _ in range(epochs)]

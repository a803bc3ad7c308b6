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
stayed inside. Answers are therefore exact every epoch, like MINT's.

Switch-and-prove: on a deployment whose ``Network.hot`` is set, the
set-up reports, the monitor pass, each probe round and the
filter-install pass are plain loops over the readings that ship a
whole pass through one ``Network.relay_many`` call and feed the
persistent ``TopKView`` one ``ensure_many`` batch. A deployment built
inside the oracle ``hotpath.reference_path()`` (or over a lossy radio)
runs the first-principles branches, which build and ship every
message node by node, and the cold ``certify_top_k`` oracle.
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
        #: The alive participants, memoized per topology and membership.
        self._participants = Participants(network)
        #: Installed filter per node (lo, hi); None until setup.
        self.filters: dict[int, tuple[float, float]] = {}
        #: The sink's last exactly-known value per node.
        self.known: dict[int, float] = {}
        #: The global ranking boundary the filters partition at.
        self.boundary = aggregate.lo
        self._setup_done = False
        #: Hot path: the sink's maintained certification view. FILA is
        #: the certifier's heaviest client (monitor + probe rounds +
        #: the answer pass certify every epoch over all N nodes); the
        #: view re-ranks only the nodes whose bound actually moved —
        #: violations, probes and filter reinstalls, typically a
        #: handful per epoch.
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
    def _run_monitor(self, readings: Mapping[int, float]
                     ) -> Mapping[int, Bounds]:
        """The hot monitoring pass, one loop over the readings.

        A node inside its filter keeps the filter interval as its
        bound; every other node (a violation, or a joiner with no
        filter yet) reports, in ascending id order with the reference
        loop's bytes, through one :meth:`Network.relay_many` call. The
        view takes the whole pass as one :meth:`TopKView.ensure_many`
        batch.
        """
        filters_get = self.filters.get
        view = self._view
        changes = []
        reporters = []
        with self.network.stats.phase("monitor"):
            for node_id, value in readings.items():
                current = filters_get(node_id)
                if (current is not None
                        and current[0] <= value <= current[1]):
                    changes.append((node_id, current[0], current[1]))
                else:
                    reporters.append(node_id)
            self.network.relay_many(reporters, up=_REPORT)
            known = self.known
            for node_id in reporters:
                value = readings[node_id]
                known[node_id] = value
                changes.append((node_id, value, value))
            view.ensure_many(changes)
        self._drop_stale_view_nodes(readings)
        return view.bounds

    # repro: hot
    def _probe_round(self, ambiguous, readings: Mapping[int, float]
                     ) -> None:
        """One hot probe round: every ambiguous node whose bound is not
        exact gets a probe down and reports its reading up, in the
        reference loop's order and bytes, through one
        :meth:`Network.relay_many` call; the view collapses the
        delivered bounds as one :meth:`TopKView.ensure_many` batch."""
        view = self._view
        bounds = view.bounds
        targets = []
        for node_id in ambiguous:
            if not bounds[node_id].exact:
                targets.append(node_id)
        with self.network.stats.phase("probe"):
            self.network.relay_many(targets, down=_PROBE, up=_REPORT)
            known = self.known
            changes = []
            for node_id in targets:
                value = readings[node_id]
                known[node_id] = value
                changes.append((node_id, value, value))
            view.ensure_many(changes)

    # repro: hot
    def _converge_view(self, readings: Mapping[int, float]) -> None:
        """Converge the persistent view to answer-time knowledge in one
        :meth:`TopKView.ensure_many` batch: only nodes whose filter was
        just reinstalled (or probed / violated) actually move."""
        known_get = self.known.get
        filters_get = self.filters.get
        lo, hi = self.aggregate.lo, self.aggregate.hi
        changes = []
        for node_id, value in readings.items():
            if known_get(node_id) == value:
                changes.append((node_id, value, value))
            else:
                current = filters_get(node_id)
                if current is None:
                    changes.append((node_id, lo, hi))
                else:
                    changes.append((node_id, current[0], current[1]))
        self._view.ensure_many(changes)
        self._drop_stale_view_nodes(readings)

    def _drop_stale_view_nodes(self, readings: Mapping[int, float]) -> None:
        """Retract view entries for nodes no longer read (deaths the
        session's topology handler did not see, e.g. engine-direct
        runs)."""
        view = self._view
        if len(view) != len(readings):
            for node_id in [n for n in view.bounds if n not in readings]:
                view.delete(node_id)

    def _certify(self, bounds: Mapping[int, Bounds]):
        """Hot: the maintained view's O(k + |ambiguous| + log N)
        outcome. Reference: the cold O(N log N) oracle. Equal by the
        delta-equivalence suite."""
        if self.network.hot:
            return self._view.outcome()
        return certify_top_k(bounds, self.k, require_exact_scores=False)

    def run_epoch(self) -> EpochResult:
        """One monitoring round: violations, certification, probes."""
        network = self.network
        readings = network.read_many(self._participants(self.group_of),
                                     self.attribute)
        probed = 0
        hot = network.hot
        if not self._setup_done:
            self._setup(readings)
        else:
            if hot:
                bounds = self._run_monitor(readings)
            else:
                with self.network.stats.phase("monitor"):
                    for node_id, value in readings.items():
                        # A node with no installed filter (it joined
                        # after setup) always reports: silence only
                        # certifies where a filter exists to stay
                        # inside.
                        current = self.filters.get(node_id)
                        if (current is not None
                                and current[0] <= value <= current[1]):
                            continue
                        self.network.unicast_to_sink(
                            node_id, FilterReportMessage(
                                epoch=self.network.epoch,
                                entries=(ViewEntry(node_id, value, 1),)))
                        self.known[node_id] = value
                        # The violating node's filter is void until
                        # reset; treat its value as exactly known this
                        # epoch.

                bounds = {}
                for node_id, value in readings.items():
                    current = self.filters.get(node_id)
                    if (current is not None
                            and current[0] <= value <= current[1]):
                        bounds[node_id] = Bounds(current[0], current[1])
                    else:
                        bounds[node_id] = Bounds(value, value)
            # FILA certifies set membership: silent nodes keep their
            # filter interval as the score estimate.
            outcome = self._certify(bounds)
            while outcome.needs_probe:
                if hot:
                    self._probe_round(outcome.ambiguous, readings)
                else:
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
                outcome = self._certify(bounds)

            # Re-partition the filters around the certified cut.
            chosen = {item.key for item in outcome.items}
            chosen_floor = min(bounds[n].lb for n in chosen)
            others = [n for n in bounds if n not in chosen]
            if others:
                others_ceiling = max(bounds[n].ub for n in others)
                self.boundary = self._choose_boundary(chosen_floor,
                                                      others_ceiling)
            fresh = {n: self.known[n] for n in bounds
                     if bounds[n].exact and n in self.known}
            with self.network.stats.phase("filter_update"):
                self._install_filters(chosen, self.boundary, fresh)

        # Build the answer from current knowledge.
        if hot:
            self._converge_view(readings)
            bounds = self._view.bounds
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
            all_bounds=(self._view.bounds_snapshot() if hot else
                        {g: (b.lb, b.ub) for g, b in bounds.items()}),
            certification=outcome,
        )
        self.network.advance_epoch()
        return result

    def handle_topology_event(self, event) -> int:
        """Drop the dead node's filter, known value and view entry;
        newborns get a filter lazily (their first epoch reports, the
        repartition step then installs one). Returns the number of
        filters invalidated.
        """
        invalidated = 0
        if event.failed:
            if self.filters.pop(event.node_id, None) is not None:
                invalidated += 1
            self.known.pop(event.node_id, None)
            self._view.delete(event.node_id)
        return invalidated

    def run(self, epochs: int) -> list[EpochResult]:
        """``epochs`` consecutive monitoring rounds."""
        return [self.run_epoch() for _ in range(epochs)]

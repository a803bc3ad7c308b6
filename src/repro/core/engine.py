"""The KSpot execution engine: logical plan → running algorithm.

This is the software seam the paper describes between the KSpot client's
query router and the specialised top-k operator: the engine inspects
the plan's query class, instantiates the routed algorithm over the
deployed network, applies static WHERE pre-filters, and drives epochs.

Historic-vertical queries run in two stages, as on real motes: an
*acquisition* stage in which every node samples and buffers its window
locally (radio silent — that is the point of local buffering), followed
by the one-shot distributed TJA/TPUT execution over the buffered
columns.

Switch-and-prove: on a hot network TJA reads each window once into
aligned value rows (:meth:`KSpotEngine._rows`); a deployment built
inside the oracle ``hotpath.reference_path()`` reads the same windows
into dict columns (:meth:`KSpotEngine._series`), as TPUT and
CENTRALIZED always do. ``tests/test_hotpath_equivalence.py`` proves
the two byte-identical.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import PlanError
from ..network.simulator import Network
from ..query.ast_nodes import Predicate
from ..query.eval import evaluate, references
from ..query.plan import Algorithm, LogicalPlan, QueryClass
from ..sensing.modalities import get_modality
from .aggregates import Aggregate, make_aggregate
from .centralized import Centralized
from .fila import Fila
from .mint import Mint, MintConfig
from .naive import NaiveTopK
from .participants import Participants
from .results import EpochResult, RankedItem, rank_key
from .tag import Tag
from .tja import Rows, Tja, TjaResult, aligned_rows
from .tput import Tput, TputResult

GroupKey = Hashable


class KSpotEngine:
    """Runs one logical plan on one deployed network."""

    def __init__(self, network: Network, plan: LogicalPlan,
                 group_of: Mapping[int, GroupKey] | None = None,
                 mint_config: MintConfig | None = None):
        """Args:
            network: Deployed simulator with boards attached.
            plan: Output of :func:`repro.query.plan.make_plan`.
            group_of: Node → cluster mapping for cluster group keys
                (``roomid``). Defaults to the node groups configured on
                the network. Ignored for ``nodeid``/``epoch`` keys.
            mint_config: Tunables forwarded to MINT when routed there.
        """
        self.network = network
        self.plan = plan
        self.mint_config = mint_config
        self.group_of = self._resolve_groups(group_of)
        self.aggregate = self._build_aggregate()
        self._check_where(plan.where)
        self.participants = self._static_filter()
        self._live_participants = Participants(network)
        self._check_window()
        self._algorithm = None

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _resolve_groups(self, group_of: Mapping[int, GroupKey] | None
                        ) -> dict[int, GroupKey]:
        """The node → group mapping this plan ranks over.

        Equal scores rank by ``str(group)``, so two distinct cluster
        labels that print alike (``1`` and ``"1"``) would tie in the
        order the sink happens to first meet them, which no query can
        name and the printed answer cannot show; such a mapping is
        refused with :class:`PlanError`.
        """
        key = self.plan.group_key
        sensor_ids = self.network.tree.sensor_ids
        if key == "nodeid" or key == "epoch":
            return {node_id: node_id for node_id in sensor_ids}
        if group_of is not None:
            mapping = dict(group_of)
        else:
            mapping = {
                node_id: self.network.node(node_id).group
                for node_id in sensor_ids
                if self.network.node(node_id).group is not None
            }
        # A fleet that churn emptied has no live sensor to map, but its
        # dead motes still carry the clusters the query names.
        if not mapping and (group_of is not None or all(
                node.group is None for node in self.network.nodes.values())):
            raise PlanError(
                f"the query groups by {key!r} but no cluster mapping is "
                f"configured (Configuration Panel step missing)"
            )
        printed: dict[str, GroupKey] = {}
        for label in mapping.values():
            first = printed.setdefault(str(label), label)
            if first != label:
                raise PlanError(
                    f"the query groups by {key!r} but cluster labels "
                    f"{first!r} and {label!r} print alike, so equal "
                    f"scores cannot rank apart; rename one of them")
        return mapping

    def _build_aggregate(self) -> Aggregate:
        modality = get_modality(self.plan.attribute)
        lo, hi = modality.lo, modality.hi
        if (self.plan.window_epochs is not None
                and self.plan.agg_func == "SUM"):
            # A windowed SUM contribution spans W readings.
            hi = hi * self.plan.window_epochs
            lo = min(lo * self.plan.window_epochs, lo)
        if self.plan.agg_func == "COUNT" and self.plan.window_epochs:
            raise PlanError("windowed COUNT is not supported")
        if (self.plan.algorithm is Algorithm.TPUT
                and self.plan.agg_func not in ("SUM", "AVG")):
            # Refused here, not at the first execution inside a driver
            # step that also drives everyone else's sessions.
            raise PlanError(
                f"TPUT ranks by SUM (or dense AVG); got "
                f"{self.plan.agg_func}: route the query to TJA instead")
        return make_aggregate(self.plan.agg_func, lo, hi)

    def _check_where(self, where: Predicate | None) -> None:
        """Refuse a ``WHERE`` no routed algorithm can evaluate, and
        note whether the clause filters on sensed attributes.

        A clause that names ``epoch`` is refused on every algorithm: a
        static pre-filter has no epoch to test, and under ``GROUP BY
        epoch`` it would test each sensor's id instead."""
        self._dynamic_where = False
        if where is None:
            return
        names = references(where)
        if "epoch" in names:
            raise PlanError(
                "the WHERE clause names epoch, which no algorithm can "
                "filter on; select the epochs with WITH HISTORY or "
                "LIFETIME instead")
        dynamic = names - {"nodeid", self.plan.group_key}
        if dynamic and self.plan.algorithm in (Algorithm.MINT, Algorithm.FILA,
                                               Algorithm.NAIVE):
            raise PlanError(
                f"{self.plan.algorithm.value} needs static group "
                f"cardinalities, but the WHERE clause filters on sensed "
                f"attributes {sorted(dynamic)}; route the query to TAG or "
                f"CENTRALIZED instead"
            )
        self._dynamic_where = bool(dynamic)

    def _static_filter(self) -> dict[int, GroupKey]:
        """Participants after static WHERE resolution.

        A ``WHERE`` that excludes every sensor of the map is refused. An
        empty map is not: a ``nodeid`` or ``epoch`` key maps the tree's
        sensors, and a fleet that churn emptied has none, so the query
        answers no items, as it would had the fleet emptied after it
        was submitted."""
        participants = {node_id: group
                        for node_id, group in self.group_of.items()
                        if self._passes_static_where(node_id, group)}
        if self.group_of and not participants:
            raise PlanError("the WHERE clause excludes every sensor")
        return participants

    def _passes_static_where(self, node_id: int, group: GroupKey) -> bool:
        """Whether a sensor passes the ``WHERE`` clause, when that
        clause names only ``nodeid`` and the group key; any other clause
        is not decided here (see :meth:`_check_where`)."""
        where = self.plan.where
        key = self.plan.group_key
        if where is None or references(where) - {"nodeid", key}:
            return True
        return evaluate(where, {"nodeid": node_id, key: group})

    def _check_window(self) -> None:
        """Reject a ``WITH HISTORY`` window a participant cannot buffer.

        Windowed epoch-mode plans aggregate each mote's SRAM window; a
        historic-vertical plan reads a mote's flash index when one is
        attached (:meth:`~repro.network.node.SensorNode.history`) and
        its SRAM window otherwise. A full window has evicted the
        oldest readings, so a longer history would be answered from
        what is left of it.
        """
        window = self.plan.window_epochs
        if window is None:
            return
        vertical = self.plan.query_class is QueryClass.HISTORIC_VERTICAL
        nodes = self.network.nodes
        for node_id in self.participants:
            node = nodes.get(node_id)
            if node is None or (vertical and node.flash_index is not None):
                continue
            capacity = node.window.capacity
            if window > capacity:
                raise PlanError(
                    f"the history window spans {window} epochs, but "
                    f"sensor {node_id} buffers only {capacity} readings "
                    f"in SRAM")

    # ------------------------------------------------------------------
    # Snapshot / horizontal execution
    # ------------------------------------------------------------------

    def _where_fn(self):
        """Dynamic acquisition predicate for TAG/CENTRALIZED, or None."""
        if not self._dynamic_where:
            return None
        plan = self.plan

        def predicate(node_id: int, group: GroupKey, value: float) -> bool:
            context = {
                "nodeid": node_id,
                plan.group_key: group,
                plan.attribute: value,
            }
            return evaluate(plan.where, context)

        return predicate

    def _make_algorithm(self):
        plan = self.plan
        common = dict(
            network=self.network,
            aggregate=self.aggregate,
            k=plan.k,
            group_of=self.participants,
            attribute=plan.attribute,
            window_epochs=plan.window_epochs,
        )
        if plan.algorithm is Algorithm.MINT:
            return Mint(self.network, self.aggregate, plan.k,
                        self.participants, attribute=plan.attribute,
                        config=self.mint_config,
                        window_epochs=plan.window_epochs)
        if plan.algorithm is Algorithm.TAG:
            return Tag(**common, where_fn=self._where_fn())
        if plan.algorithm is Algorithm.CENTRALIZED:
            return Centralized(**common, where_fn=self._where_fn())
        if plan.algorithm is Algorithm.NAIVE:
            return NaiveTopK(**common)
        if plan.algorithm is Algorithm.FILA:
            if plan.group_key != "nodeid":
                raise PlanError(
                    "the FILA build monitors top-k nodes; use MINT for "
                    "cluster ranking"
                )
            return Fila(self.network, self.aggregate, plan.k,
                        group_of=self.participants,
                        attribute=plan.attribute)
        raise PlanError(
            f"{plan.algorithm.value} does not run in epoch mode"
        )

    @property
    def algorithm(self):
        """The instantiated algorithm (lazily created)."""
        if self._algorithm is None:
            self._algorithm = self._make_algorithm()
        return self._algorithm

    # ------------------------------------------------------------------
    # Churn handling
    # ------------------------------------------------------------------

    def handle_topology_event(self, event) -> int:
        """React to a node failure / join on the deployed network.

        Joins extend the participant set (newborns enter the query when
        they carry a board, pass the static WHERE pre-filter, and —
        for cluster rankings — arrive with a cluster assignment);
        historic-vertical plans never adopt newborns, whose buffers
        cannot cover the already-elapsed window. Failures keep the
        static membership maps (alive-ness is filtered at acquisition)
        but are forwarded to the routed algorithm so it can invalidate
        exactly the affected subtree state. Returns the number of node
        states the algorithm re-primed.
        """
        if event.joined:
            self._adopt_participant(event.node_id)
        algorithm = self._algorithm
        if algorithm is None:
            return 0
        if event.joined and hasattr(algorithm, "group_of"):
            algorithm.group_of = dict(self.participants)
        handler = getattr(algorithm, "handle_topology_event", None)
        if handler is None:
            return 0
        return handler(event)

    def _adopt_participant(self, node_id: int) -> None:
        """Admit a newborn node into the query, mirroring the static
        filtering done at compile time."""
        if self.plan.query_class is QueryClass.HISTORIC_VERTICAL:
            return
        node = self.network.node(node_id)
        if node.board is None:
            return
        key = self.plan.group_key
        if key == "nodeid" or key == "epoch":
            group: GroupKey = node_id
        elif node.group is not None:
            group = node.group
        else:
            return
        if not self._passes_static_where(node_id, group):
            return
        self.group_of[node_id] = group
        # Rebound, not mutated: participant memos key on its identity.
        self.participants = {**self.participants, node_id: group}

    def run_epoch(self) -> EpochResult:
        """Drive one epoch of a snapshot / horizontal / aggregate query."""
        if self.plan.query_class is QueryClass.HISTORIC_VERTICAL:
            raise PlanError(
                "historic-vertical queries run via execute_historic()"
            )
        return self.algorithm.run_epoch()

    def run(self, epochs: int | None = None) -> list[EpochResult]:
        """Run a continuous query for ``epochs`` (or the plan's lifetime)."""
        total = epochs if epochs is not None else self.plan.lifetime_epochs
        if total is None:
            raise PlanError(
                "specify epochs (the query has no LIFETIME clause)"
            )
        return [self.run_epoch() for _ in range(total)]

    # ------------------------------------------------------------------
    # Historic-vertical execution
    # ------------------------------------------------------------------

    def sample_participants(self) -> None:
        """One radio-silent acquisition: every live participant samples
        (and locally buffers) the plan's attribute for the current
        epoch. Reads go through the node-level per-epoch cache, so on a
        shared deployment boards that already fired this epoch are not
        re-sampled. When every alive sensor participates the network's
        alive tuple itself is read, so the batch shares the sampling
        plan and readings row of concurrent sessions."""
        self._live_participants.readings(self.participants,
                                         self.plan.attribute)

    def fill_windows(self, epochs: int | None = None) -> None:
        """Acquisition stage: sample & buffer locally, radio silent."""
        total = epochs if epochs is not None else self.plan.window_epochs
        if total is None:
            raise PlanError("no window length to fill")
        for _ in range(total):
            self.sample_participants()
            self.network.advance_epoch()

    def _series(self) -> dict[int, dict[int, float]]:
        window = self.plan.window_epochs
        if window is None:
            raise PlanError("historic execution requires WITH HISTORY")
        series: dict[int, dict[int, float]] = {}
        for node_id in self.participants:
            node = self.network.node(node_id)
            if not node.alive:
                continue
            entries = node.history(window, attribute=self.plan.attribute)
            series[node_id] = {entry.epoch: entry.value for entry in entries}
        return series

    def _rows(self) -> tuple[tuple[int, ...], Rows]:
        """The hot path's :meth:`_series`: each alive participant's
        window, read once through :meth:`SensorNode.history
        <repro.network.node.SensorNode.history>` (which charges a
        flash-backed mote's page reads), as TJA's labels and value rows
        (see :func:`~repro.core.tja.aligned_rows`)."""
        window = self.plan.window_epochs
        if window is None:
            raise PlanError("historic execution requires WITH HISTORY")
        attribute = self.plan.attribute
        return aligned_rows(
            (node.node_id, node.history(window, attribute=attribute))
            for node in map(self.network.node, self.participants)
            if node.alive)

    def execute_historic(self) -> "TjaResult | TputResult":
        """Run the one-shot distributed query over the buffered windows."""
        if self.plan.query_class is not QueryClass.HISTORIC_VERTICAL:
            raise PlanError("execute_historic() is for GROUP BY epoch plans")
        if self.plan.algorithm is Algorithm.TJA and self.network.hot:
            labels, rows = self._rows()
            if not rows:
                return TjaResult(items=(), candidates=0, cleanup_rounds=0)
            return Tja.over_rows(self.network, self.aggregate, self.plan.k,
                                 labels, rows).execute()
        series = self._series()
        # Churn can leave no participant with a buffered reading: then
        # there is no epoch to rank, and nothing goes on the air.
        empty = not any(series.values())
        if self.plan.algorithm is Algorithm.TJA:
            if empty:
                return TjaResult(items=(), candidates=0, cleanup_rounds=0)
            return Tja(self.network, self.aggregate, self.plan.k,
                       series).execute()
        if self.plan.algorithm is Algorithm.TPUT:
            if empty:
                return TputResult(items=(), candidates=0)
            return Tput(self.network, self.aggregate, self.plan.k,
                        series).execute()
        if self.plan.algorithm is Algorithm.CENTRALIZED:
            return self._centralized_historic(series)
        raise PlanError(
            f"{self.plan.algorithm.value} cannot run historic-vertical "
            f"queries"
        )

    def _centralized_historic(self, series: Mapping[int, Mapping[int, float]]
                              ) -> TjaResult:
        """Ship every buffered column to the sink, evaluate there."""
        from ..network.messages import ObjectScore, ScoreListMessage

        totals: dict[int, "list[float]"] = {}
        with self.network.stats.phase("centralized_history"):
            for node_id, column in sorted(series.items()):
                message = ScoreListMessage(items=tuple(
                    ObjectScore(object_id, value)
                    for object_id, value in sorted(column.items())
                ))
                self.network.unicast_to_sink(node_id, message)
                for object_id, value in column.items():
                    totals.setdefault(object_id, []).append(value)
        scored = []
        for object_id, values in totals.items():
            partial = None
            for value in values:
                lifted = self.aggregate.from_value(value)
                partial = (lifted if partial is None
                           else self.aggregate.merge(partial, lifted))
            scored.append((object_id, self.aggregate.finalize(partial)))
        scored.sort(key=lambda pair: rank_key(pair[0], pair[1]))
        items = tuple(
            RankedItem(key=object_id, score=score, lb=score, ub=score)
            for object_id, score in scored[:self.plan.k]
        )
        return TjaResult(items=items, candidates=len(scored),
                         cleanup_rounds=0, per_phase_bytes={})

"""Epoch-synchronous network simulator.

The TinyDB execution model is epoch-synchronous: every epoch the sink's
query wave travels down the routing tree, nodes sample, and partial
results converge-cast back up, children before parents. The
:class:`Network` reproduces that model and provides the only two
transport primitives the algorithms use:

* :meth:`Network.send_up` — unicast one logical message over a tree
  edge from child to parent (converge-cast step); and
* :meth:`Network.broadcast_down` — a parent transmits once and all its
  tree children receive (the radio-broadcast optimisation TAG relies
  on for dissemination).

Both primitives fragment the message into TOS_Msg packets, charge
transmit energy to the sender and receive energy to each receiver, and
record everything in :class:`~repro.network.stats.NetworkStats`.

The per-message work runs on an allocation-free **hot path** (see
:mod:`repro.network.hotpath`): each of the engines' fused passes ships
its converge-cast edges in one :meth:`Network.ship_edges` call, packet
costs come from a per-network cost memo, energy rates and ledger lookups are
precomputed and each kind's counters grow in the ledger's per-kind
table, floods (:meth:`Network.flood_down`) ship in one kernel call,
flat relays
(:meth:`Network.unicast_to_sink` / :meth:`Network.unicast_from_sink`,
and FILA's whole report, probe and install passes) ship through one
:meth:`Network.relay_many` call each — a large batch in one numpy
scatter over a per-topology relay table — and the alive-sensor tuple,
the converge-cast and flood plans, the :meth:`Network.sink_roots` map
and the relay table are cached and invalidated on topology change. A
churn event costs what it touched: the tree derives its successor by
patching (:mod:`repro.network.tree`), a plan rebuild keeps every row
the event did not touch, and a new sampling plan regroups the nodes an
earlier one grouped without asking their boards again.
:meth:`Network.send_up`,
:meth:`Network.broadcast_down` and the churn handshakes ship through
the one reference :meth:`Network._ship` on either path.
A network decides its path once, when it is built, into
:attr:`Network.hot`. The radio is lossless: every packet takes one
transmission, priced at the :class:`~repro.network.energy.EnergyModel`
air rate, and the transport draws no randomness. All of it is
observationally identical to the reference path — same counters, same
per-phase snapshots, same joules added to each ledger in the same
order — which stays available as the oracle: a network built inside
:func:`repro.network.hotpath.reference_path` runs it;
``tests/test_hotpath_equivalence.py`` proves the equivalence
byte-for-byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice, repeat
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ..errors import (
    ConfigurationError,
    RoutingError,
    TopologyError,
    ValidationError,
)
from ..sensing.board import SensorBoard
from . import columnar, hotpath
from .energy import EnergyLedger, EnergyModel
from .events import TopologyEvent, TopologyEventKind
from .messages import ControlMessage, WireMessage
from .node import SensorNode
from .packets import fragment
from .stats import NetworkStats
from .topology import Topology
from .tree import RoutingTree

#: :meth:`Network.relay_many` batches of at least this many
#: motes charge their hops in one numpy scatter
#: (:meth:`Network._relay_scatter`); smaller ones keep the per-hop
#: loop, which beats the scatter's fixed cost of about 40 µs below it
#: (the measured crossover is in ``docs/PERF.md``).
_SCATTER_MIN_MOTES = 24

#: Payload sizes the cost memo holds before it starts over. A
#: query mix ships a few dozen sizes, so this only caps a pathological
#: one.
_COST_MEMO_SIZES = 4096


class Network:
    """A deployed sensor network: topology + tree + cost models + nodes."""

    def __init__(self, topology: Topology,
                 energy: EnergyModel | None = None,
                 tree: RoutingTree | None = None,
                 boards: Mapping[int, SensorBoard] | None = None,
                 group_of: Mapping[int, Hashable] | None = None):
        """Deploy a network.

        Args:
            topology: Physical placement and connectivity.
            energy: Energy model (defaults to MICA2 calibration); its
                ``bitrate_bps`` is the radio's air rate.
            tree: Routing tree; built by BFS from the topology when
                omitted. An explicit tree lets tests pin the exact
                hierarchy of the paper's Figure 1.
            boards: Per-node sensor boards; one shared board instance
                may be passed for all nodes via a dict with every id.
            group_of: Node id → cluster (room) membership.
        """
        self.topology = topology
        #: The execution path, fixed for the network's life: hot unless
        #: built inside ``hotpath.reference_path()``.
        self.hot = hotpath._enabled
        self.energy = energy or EnergyModel()
        self.tree = tree or RoutingTree.from_topology(topology)
        missing = set(self.tree.node_ids) - set(topology.node_ids)
        if missing:
            raise TopologyError(f"tree references unknown nodes: {sorted(missing)}")
        self.stats = NetworkStats()
        group_of = group_of or {}
        self.nodes: dict[int, SensorNode] = {}
        for node_id in self.tree.sensor_ids:
            board = boards.get(node_id) if boards else None
            self.nodes[node_id] = SensorNode(
                node_id, board=board, group=group_of.get(node_id))
        #: The sink keeps an energy ledger too (mains-powered in the
        #: demo, but counting keeps totals comparable).
        self.sink_ledger = EnergyLedger()
        self.epoch = 0
        self._clock_holds = 0
        self._advance_requested = False
        self._subscribers: list[Callable[[TopologyEvent], None]] = []
        # ---- hot-path state (semantically invisible; see hotpath) ----
        #: The root id never changes across repairs (the sink cannot
        #: die), so it is resolved once.
        self._sink_id = self.tree.root
        #: Precomputed J/byte rates (the EnergyModel is immutable).
        self._tx_rate = self.energy.tx_joules_per_byte
        self._rx_rate = self.energy.rx_joules_per_byte
        #: node id → ledger, maintained across joins (kept for dead
        #: nodes: their ledgers stay readable).
        self._ledger_of: dict[int, EnergyLedger] = {
            self._sink_id: self.sink_ledger,
            **{i: n.ledger for i, n in self.nodes.items()},
        }
        #: payload bytes → (packets, air bytes, tx J, rx J) of one
        #: hop, read by the kernels.
        self._cost_memo: dict[int, tuple] = {}
        #: Topology caches, invalidated by bumping the version (node
        #: deaths report in via the per-node kill hook).
        self._topo_version = 0
        self._plan_cache: tuple[tuple[int, int, tuple[int, ...], bool],
                                ...] | None = None
        self._alive_ids_cache: tuple[int, ...] | None = None
        self._flood_cache: tuple[tuple[int, tuple[int, ...]], ...] | None = None
        self._roots_cache: dict[int, int] | None = None
        self._relay_cache: tuple | None = None
        #: live sensor → (its tree child tuple, its converge-cast plan
        #: row): the rows a plan rebuild reuses. A row stays valid while
        #: the tree hands out the same child tuple and parent; a death
        #: drops the dead node's row and its parent's (whose live
        #: children changed), so only live tree nodes are held.
        self._plan_rows: dict[int, tuple[tuple[int, ...], tuple]] = {}
        self._cache_tree: RoutingTree | None = None
        self._cache_version = -1
        #: The columnar kernel's readings rows and sampling plans, keyed
        #: by id tuple and dropped with the topology caches (see
        #: ColumnarState).
        self._columnar = columnar.ColumnarState()
        for node in self.nodes.values():
            node.on_kill = self._on_node_killed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sink_id(self) -> int:
        """The base station id."""
        return self._sink_id

    def node(self, node_id: int) -> SensorNode:
        """The runtime of a sensor node."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown sensor {node_id}") from None

    def alive_sensor_ids(self) -> tuple[int, ...]:
        """Sensors still running, sorted by id."""
        if self.hot:
            self._validate_topo_caches()
            if self._alive_ids_cache is None:
                nodes = self.nodes
                self._alive_ids_cache = tuple(
                    i for i in self.tree.sensor_ids if nodes[i].alive)
            return self._alive_ids_cache
        return tuple(i for i in self.tree.sensor_ids if self.nodes[i].alive)

    def _validate_topo_caches(self) -> None:
        """Drop every topology-derived cache after a tree change or a
        node death/join (cheap identity + version check per use)."""
        if (self._cache_tree is not self.tree
                or self._cache_version != self._topo_version):
            self._cache_tree = self.tree
            self._cache_version = self._topo_version
            self._plan_cache = None
            self._alive_ids_cache = None
            self._flood_cache = None
            self._roots_cache = None
            self._relay_cache = None
            self._columnar.drop_rows_and_plans()

    def _on_node_killed(self, node_id: int) -> None:
        """Per-node death hook: invalidate aliveness-derived caches.

        Installed on every :class:`SensorNode` (including ones killed
        directly, bypassing :meth:`kill_node`), so caches can never
        observe a stale ``alive`` flag. The dead node's plan row goes,
        and so does its parent's, whose live children just changed;
        the sampling plans forget its board channel.
        """
        self._topo_version += 1
        rows = self._plan_rows
        rows.pop(node_id, None)
        if node_id in self.tree:
            rows.pop(self.tree.parent(node_id), None)
        self._columnar.forget(node_id)

    def ledger(self, node_id: int) -> EnergyLedger:
        """The energy ledger of a node (or of the sink)."""
        if node_id == self.sink_id:
            return self.sink_ledger
        return self.node(node_id).ledger

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------

    def _ship(self, sender: int, receivers: Iterable[int],
              message: WireMessage) -> None:
        """Fragment, charge energy, record: one transmission from
        ``sender`` heard by every receiver, each packet sent once."""
        receivers = tuple(receivers)
        cost = fragment(message.payload_bytes)
        tx_joules = cost.air_bytes * self._tx_rate
        rx_joules_each = cost.air_bytes * self._rx_rate
        self.ledger(sender).tx += tx_joules
        for receiver in receivers:
            self.ledger(receiver).rx += rx_joules_each
        self.stats.record(
            kind=message.kind,
            packets=cost.packets,
            payload_bytes=cost.payload_bytes,
            air_bytes=cost.air_bytes,
            tx_joules=tx_joules,
            rx_joules=rx_joules_each * len(receivers),
        )

    # repro: hot
    def ship_edges(self, kind: str,
                   edges: Sequence[tuple[int, int, int]]) -> None:
        """Ship one converge-cast pass: a message of ``kind`` over each
        ``(sender, receiver, payload bytes)`` edge, in order.

        Equal to one :meth:`_ship` per edge in order: each
        edge adds its memoized ``tx`` joules to the sender's ledger and
        its ``rx`` joules to the receiver's, and both to the deployment
        ledger's running sums, edge by edge (a left fold, so every bit
        of the totals matches), while the kind's integer counters grow
        once per call. An empty pass records nothing, not even a row
        for its kind.
        """
        if not edges:
            return
        memo = self._cost_memo
        ledgers = self._ledger_of
        stats = self.stats
        tx_total, rx_total = stats._tx_joules, stats._rx_joules
        packets = payload = air = 0
        for sender, receiver, payload_bytes in edges:
            edge_packets, edge_air, tx_joules, rx_joules = (
                memo.get(payload_bytes) or self._memo_cost(payload_bytes))
            ledgers[sender].tx += tx_joules
            ledgers[receiver].rx += rx_joules
            tx_total += tx_joules
            rx_total += rx_joules
            packets += edge_packets
            payload += payload_bytes
            air += edge_air
        stats._tx_joules, stats._rx_joules = tx_total, rx_total
        stats.add_sends(kind, len(edges), packets, payload, air)

    # repro: hot
    def relay_many(self, nodes: Sequence[int],
                   down: tuple[str, int] | None = None,
                   up: tuple[str, int] | None = None) -> int:
        """Relay ``down`` from the sink to each node and then ``up`` from
        it back, node by node, in one call; returns the hops charged.

        ``down`` and ``up`` are ``(kind, payload bytes)`` pairs; None
        skips that leg. Equal to :meth:`unicast_from_sink` followed by
        :meth:`unicast_to_sink` per node in order: each hop of each
        memoized :meth:`~repro.network.tree.RoutingTree.path_to_root`
        adds its joules to the sender's and receiver's ledgers and to
        the deployment ledger in the reference path's order, while each
        kind's integer counters grow once per call (integers, so exact).

        A batch of at least ``_SCATTER_MIN_MOTES`` motes, with numpy
        as the column backend and every mote in the tree, makes those
        same float adds in one scatter (:meth:`_relay_scatter`);
        smaller batches, the pure-python backend and a batch naming a
        mote outside the tree run the per-hop loop below, which raises
        :class:`~repro.errors.TopologyError` at that mote after
        relaying the ones before it.
        """
        if len(nodes) >= _SCATTER_MIN_MOTES:
            np = columnar.numpy_module()
            if np is not None:
                hops = self._relay_scatter(np, nodes, down, up)
                if hops is not None:
                    return hops
        memo = self._cost_memo
        if down is not None:
            down_kind, down_bytes = down
            down_cost = memo.get(down_bytes) or self._memo_cost(down_bytes)
            down_tx, down_rx = down_joules = down_cost[2:]
        if up is not None:
            up_kind, up_bytes = up
            up_cost = memo.get(up_bytes) or self._memo_cost(up_bytes)
            up_tx, up_rx = up_joules = up_cost[2:]
        ledgers = self._ledger_of
        path_of = self.tree.path_to_root
        # Every hop's (tx, rx) joules in shipping order, for the ledger.
        hop_joules: list[tuple[float, float]] = []
        down_hops = up_hops = 0
        try:
            for node_id in nodes:
                path = path_of(node_id)
                hops = len(path) - 1
                if not hops:
                    continue
                if down is not None:
                    for sender in path[1:]:
                        ledgers[sender].tx += down_tx
                    for receiver in path[:-1]:
                        ledgers[receiver].rx += down_rx
                    hop_joules.extend(repeat(down_joules, hops))
                    down_hops += hops
                if up is not None:
                    for sender in path[:-1]:
                        ledgers[sender].tx += up_tx
                    for receiver in path[1:]:
                        ledgers[receiver].rx += up_rx
                    hop_joules.extend(repeat(up_joules, hops))
                    up_hops += hops
        finally:
            if down_hops:
                self._add_sends(down_kind, down_hops, down_bytes, down_cost)
            if up_hops:
                self._add_sends(up_kind, up_hops, up_bytes, up_cost)
            if hop_joules:
                stats = self.stats
                tx, rx = stats._tx_joules, stats._rx_joules
                for hop_tx, hop_rx in hop_joules:
                    tx += hop_tx
                    rx += hop_rx
                stats._tx_joules, stats._rx_joules = tx, rx
        return down_hops + up_hops

    # repro: hot
    def _relay_scatter(self, np, nodes: Sequence[int],
                       down: tuple[str, int] | None,
                       up: tuple[str, int] | None) -> int | None:
        """:meth:`relay_many`'s per-hop loop as one scatter; returns the
        hops charged, or None (charging nothing) when a mote is not in
        the tree.

        The batch's hops expand leg by leg in the loop's order (per
        mote its down leg, then its up leg) into ledger columns of the
        :meth:`_relay_table`: a down leg's ``tx`` goes to each hop's
        parent side and its ``rx`` to the child side, an up leg's the
        other way round. Exact, not merely close: ``np.add.at`` is
        unbuffered and applies repeated indices in order, so each
        touched ledger receives the loop's float adds in the loop's
        order, and ``np.cumsum`` is a sequential ``add.accumulate``
        (unlike the pairwise ``np.sum``), so the deployment ledger's
        running total folds every hop's joules in shipping order.
        """
        ledgers, row_of, starts, path_hops, child, parent = (
            self._relay_table(np))
        memo = self._cost_memo
        if down is not None:
            down_kind, down_bytes = down
            down_cost = memo.get(down_bytes) or self._memo_cost(down_bytes)
        if up is not None:
            up_kind, up_bytes = up
            up_cost = memo.get(up_bytes) or self._memo_cost(up_bytes)
        try:
            rows = np.array([row_of[node_id] for node_id in nodes],
                            dtype=np.intp)
        except KeyError:
            return None
        both = down is not None and up is not None
        if both:
            rows = rows.repeat(2)  # one row per leg: down, then up
        leg_hops = path_hops[rows]
        leg_ends = leg_hops.cumsum()
        total = int(leg_ends[-1])
        if not total:
            return 0
        # Each hop's position in the table: its leg's start plus its
        # offset within the leg.
        at = np.arange(total) + (starts[rows] - leg_ends + leg_hops).repeat(
            leg_hops)
        child_side, parent_side = child[at], parent[at]
        if up is None:
            tx_cols, rx_cols = parent_side, child_side
            hop_tx, hop_rx = down_cost[2], down_cost[3]
        elif down is None:
            tx_cols, rx_cols = child_side, parent_side
            hop_tx, hop_rx = up_cost[2], up_cost[3]
        else:
            is_down = np.zeros(len(rows), dtype=bool)
            is_down[::2] = True
            is_down = is_down.repeat(leg_hops)
            tx_cols = np.where(is_down, parent_side, child_side)
            rx_cols = np.where(is_down, child_side, parent_side)
            hop_tx = np.where(is_down, down_cost[2], up_cost[2])
            hop_rx = np.where(is_down, down_cost[3], up_cost[3])
        # Only the ledgers on the batch's paths are read and written.
        touched = np.flatnonzero(np.bincount(
            np.concatenate((child_side, parent_side)),
            minlength=len(ledgers)))
        local = np.empty(len(ledgers), dtype=np.intp)
        local[touched] = np.arange(len(touched))
        hit = [ledgers[column] for column in touched.tolist()]
        tx = np.array([ledger.tx for ledger in hit], dtype=np.float64)
        rx = np.array([ledger.rx for ledger in hit], dtype=np.float64)
        np.add.at(tx, local[tx_cols], hop_tx)
        np.add.at(rx, local[rx_cols], hop_rx)
        for ledger, ledger_tx, ledger_rx in zip(hit, tx.tolist(),
                                                rx.tolist()):
            ledger.tx = ledger_tx
            ledger.rx = ledger_rx
        leg_sends = total // 2 if both else total
        if down is not None:
            self._add_sends(down_kind, leg_sends, down_bytes, down_cost)
        if up is not None:
            self._add_sends(up_kind, leg_sends, up_bytes, up_cost)
        # Row 0 folds tx, row 1 rx; column 0 holds the ledger's total.
        stats = self.stats
        fold = np.empty((2, total + 1), dtype=np.float64)
        fold[0, 0] = stats._tx_joules
        fold[1, 0] = stats._rx_joules
        fold[0, 1:] = hop_tx
        fold[1, 1:] = hop_rx
        stats._tx_joules, stats._rx_joules = (
            fold.cumsum(axis=1)[:, -1].tolist())
        return total

    def _relay_table(self, np) -> tuple:
        """``(ledgers, row_of, starts, hops, child, parent)`` for
        :meth:`_relay_scatter`, built once per topology version.

        ``ledgers`` lists every ledger of ``_ledger_of`` in column order
        (dead motes' and a re-joined id's fresh one included);
        ``row_of`` maps each tree node to its row. Row ``r``'s path
        hops, from the node up to the sink, sit at ``starts[r]`` to
        ``starts[r] + hops[r]`` of the ``child`` and ``parent`` arrays,
        as the ledger columns of each hop's two ends.
        """
        self._validate_topo_caches()
        table = self._relay_cache
        if table is None:
            column_of = {node_id: column
                         for column, node_id in enumerate(self._ledger_of)}
            path_of = self.tree.path_to_root
            row_of: dict[int, int] = {}
            starts: list[int] = []
            hops: list[int] = []
            child: list[int] = []
            parent: list[int] = []
            for node_id in self.tree.node_ids:
                path = [column_of[hop] for hop in path_of(node_id)]
                row_of[node_id] = len(starts)
                starts.append(len(child))
                hops.append(len(path) - 1)
                child.extend(path[:-1])
                parent.extend(path[1:])
            table = self._relay_cache = (
                list(self._ledger_of.values()), row_of,
                np.array(starts, dtype=np.intp),
                np.array(hops, dtype=np.intp),
                np.array(child, dtype=np.intp),
                np.array(parent, dtype=np.intp))
        return table

    def _add_sends(self, kind: str, sends: int, payload_bytes: int,
                   cost: tuple) -> None:
        """Count ``sends`` sends of one memoized cost in the
        deployment ledger (the joules are the caller's)."""
        self.stats.add_sends(kind, sends, sends * cost[0],
                             sends * payload_bytes, sends * cost[1])

    # repro: hot
    def _flood_lossless(self, message: WireMessage) -> int:
        """Ship one message from every forwarder of the flood plan to
        its live children in one call.

        The flood twin of :meth:`relay_many`, equal to one
        :meth:`_ship` per forwarder in pre-order: the cost memo
        is read once and the kind's integer counters grow by ``sends`` ×
        the per-send counts, while every float joule add still happens
        once per forwarder — one ``tx`` per forwarder ledger, one ``rx``
        per child ledger, and ``sends`` adds of tx and of rx × children
        to the deployment ledger, in pre-order. Returns the number of
        sends.
        """
        plan = self._flood_plan()
        sends = len(plan)
        if not sends:
            return 0
        payload_bytes = message.payload_bytes
        info = (self._cost_memo.get(payload_bytes)
                or self._memo_cost(payload_bytes))
        tx_joules, rx_joules = info[2], info[3]
        ledgers = self._ledger_of
        for sender, receivers in plan:
            ledgers[sender].tx += tx_joules
            for receiver in receivers:
                ledgers[receiver].rx += rx_joules
        self._add_sends(message.kind, sends, payload_bytes, info)
        stats = self.stats
        tx_total = stats._tx_joules
        rx_total = stats._rx_joules
        for _, receivers in plan:
            tx_total += tx_joules
            rx_total += rx_joules * len(receivers)
        stats._tx_joules = tx_total
        stats._rx_joules = rx_total
        return sends

    def _memo_cost(self, payload_bytes: int) -> tuple:
        """Fill the cost memo for one payload size: one memo
        entry yields packets, air bytes and both joule figures (energy
        rates are fixed per deployment). Cold path only."""
        memo = self._cost_memo
        if len(memo) >= _COST_MEMO_SIZES:
            memo.clear()
        cost = fragment(payload_bytes)
        info = memo[payload_bytes] = (
            cost.packets, cost.air_bytes,
            cost.air_bytes * self._tx_rate,
            cost.air_bytes * self._rx_rate,
        )
        return info

    def send_up(self, child: int, message: WireMessage) -> int:
        """Unicast from ``child`` to its tree parent; returns the parent id."""
        parent = self.tree.parent(child)
        if child != self.sink_id and not self.nodes[child].alive:
            raise RoutingError(f"dead node {child} cannot transmit")
        self._ship(child, (parent,), message)
        return parent

    def broadcast_down(self, parent: int, message: WireMessage) -> tuple[int, ...]:
        """One transmission from ``parent`` heard by all its tree children."""
        children = self.tree.children(parent)
        live = tuple(c for c in children if self.nodes[c].alive)
        if not live:
            return ()
        self._ship(parent, live, message)
        return live

    def flood_down(self, message: WireMessage) -> int:
        """Disseminate sink→leaves: every non-leaf broadcasts once.

        Every forwarding parent sends the same ``message``; a parent
        whose children are all dead sends nothing. Returns the number
        of broadcasts sent.
        """
        if self.hot:
            return self._flood_lossless(message)
        sends = 0
        for node_id in self.tree.pre_order():
            if node_id != self.sink_id and not self.nodes[node_id].alive:
                continue
            if not self.tree.children(node_id):
                continue
            if self.broadcast_down(node_id, message):
                sends += 1
        return sends

    def _flood_plan(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(forwarder, live children)`` in pre-order: the sink and
        every live sensor with at least one live child. Cached per
        topology version; a sensor's live children are its
        converge-cast row's."""
        self._validate_topo_caches()
        plan = self._flood_cache
        if plan is None:
            self.converge_cast_plan()  # brings the rows up to date
            rows = self._plan_rows
            sink = self._sink_id
            nodes = self.nodes
            order = self.tree.pre_order()  # the sink first
            live = tuple(c for c in self.tree.children(sink)
                         if nodes[c].alive)
            forwarders = [(sink, live)] if live else []
            for node_id in islice(order, 1, None):
                if nodes[node_id].alive:
                    live = rows[node_id][1][2]
                    if live:
                        forwarders.append((node_id, live))
            plan = self._flood_cache = tuple(forwarders)
        return plan

    def unicast_to_sink(self, origin: int, message: WireMessage) -> int:
        """Relay hop-by-hop from ``origin`` to the sink, no merging.

        Flat protocols (TPUT, FILA reports) route through the tree but
        do not aggregate, so the same logical message pays transmit and
        receive at every hop. Returns the number of hops charged. The
        hot path ships it as a one-node :meth:`relay_many`.
        """
        if self.hot:
            return self.relay_many(
                (origin,), up=(message.kind, message.payload_bytes))
        path = self.tree.path_to_root(origin)
        hops = 0
        for node_id in path[:-1]:
            self._ship(node_id, (self.tree.parent(node_id),), message)
            hops += 1
        return hops

    def unicast_from_sink(self, target: int, message: WireMessage) -> int:
        """Relay hop-by-hop from the sink to ``target``; returns hops.
        The hot path ships it as a one-node :meth:`relay_many`."""
        if self.hot:
            return self.relay_many(
                (target,), down=(message.kind, message.payload_bytes))
        path = self.tree.path_to_root(target)
        hops = 0
        for receiver, sender in zip(path[:-1][::-1] or (), path[1:][::-1] or ()):
            self._ship(sender, (receiver,), message)
            hops += 1
        return hops

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------

    def converge_cast_order(self) -> tuple[int, ...]:
        """Live sensors leaves-first (the per-epoch send schedule)."""
        return tuple(
            node_id for node_id in self.tree.post_order()
            if node_id != self.sink_id and self.nodes[node_id].alive
        )

    def converge_cast_plan(
            self) -> tuple[tuple[int, int, tuple[int, ...], bool], ...]:
        """:meth:`converge_cast_order` as rows ``(node, parent, live
        children, parent is sink)``.

        Built once per topology version and shared by every session,
        so the fused engine passes look up no children, parents or
        liveness per node. A new plan is built exactly when the tree
        or the topology version changed, so state derived from a plan
        may be keyed on its identity (MINT's group census is). A live
        child always precedes its parent, and the parent of a row may
        be dead (a tree left unrepaired): rows follow the tree's
        edges, as :meth:`send_up` does. A rebuild keeps the previous
        row of every node whose child tuple, parent and children's
        liveness did not change (see ``_plan_rows``).
        """
        self._validate_topo_caches()
        plan = self._plan_cache
        if plan is None:
            nodes = self.nodes
            tree = self.tree
            children_of = tree._children
            parent_of = tree._parents
            sink = self._sink_id
            memo = self._plan_rows
            rows = []
            for node_id in tree.post_order():
                if node_id == sink or not nodes[node_id].alive:
                    continue
                kids = children_of[node_id]
                parent = parent_of[node_id]
                entry = memo.get(node_id)
                if (entry is None or entry[0] is not kids
                        or entry[1][1] != parent):
                    live = tuple(c for c in kids if nodes[c].alive)
                    entry = memo[node_id] = (
                        kids, (node_id, parent, live, parent == sink))
                rows.append(entry[1])
            plan = self._plan_cache = tuple(rows)
        return plan

    def sink_roots(self) -> dict[int, int]:
        """Each row of the converge-cast plan whose reports reach the
        sink, mapped to the sink child they arrive through, root-first.

        The plan read in reverse is root-first; a row reaches the sink
        when its parent is the sink or a row that reaches it. So the
        live descendants of a dead relay (a tree left unrepaired, or a
        node killed without an event) are left out: nothing they send
        arrives. Every row reaches the sink exactly when the map is as
        long as the plan. The plan is a depth-first order, so each sink
        child's entries form one run, the sink child first. Built once
        per plan and shared by every session (MINT's census, FILA's
        reach): treat it as read-only.
        """
        plan = self.converge_cast_plan()
        roots = self._roots_cache
        if roots is None:
            roots = self._roots_cache = {}
            for node_id, parent, _, to_sink in reversed(plan):
                root = node_id if to_sink else roots.get(parent)
                if root is not None:
                    roots[node_id] = root
        return roots

    # repro: hot
    def read_many(self, node_ids: tuple[int, ...],
                  attribute: str) -> dict[int, float]:
        """One epoch's readings for a whole id column, in id order.

        Byte-identical to ``{n: self.nodes[n].read(attribute, epoch)
        for n in node_ids}`` — that *is* the code path on the reference
        path, and for any tuple holding a dead or board-less node or
        one whose board lacks ``attribute``, where it raises at that
        node's position after sampling the nodes ahead of it. On the
        hot path, nodes still needing a physical sample are grouped by
        board channel and acquired through one
        :meth:`~repro.sensing.generators.FieldGenerator.batch_values`
        call plus a vectorized quantize (or a per-value clamp) per
        channel, then booked exactly as a scalar read books them: the
        epoch's first batch appends each value to its window's
        columns, charges the sensing and counts the sample inline, and
        a later batch books through
        :meth:`~repro.network.node.SensorNode.book_sample`.
        The row is cached per (attribute, epoch, id tuple) until the
        topology changes, so N concurrent sessions reading equal
        tuples over the same deployment pay for one batch.

        The returned dict is shared with later same-epoch callers —
        treat it as read-only (copy it to mutate).
        """
        nodes, epoch = self.nodes, self.epoch
        plan = None
        if self.hot:
            # A row keyed by content could name a mote that died since
            # it was read, so the topology check comes first.
            self._validate_topo_caches()
            row = self._columnar.cached(attribute, epoch, node_ids)
            if row is not None:
                return row
            plan = self._columnar.plan(attribute, node_ids)
            if plan is None:
                plan = self._build_sampling_plan(node_ids, attribute)
                if plan is not None:
                    self._columnar.store_plan(attribute, node_ids, plan)
        if plan is None:
            return {node_id: nodes[node_id].read(attribute, epoch)
                    for node_id in node_ids}
        out = [0.0] * len(node_ids)
        # The epoch's first batch (no row stored yet for this
        # attribute+epoch, so no session warmed the windows through
        # this path) skips the freshness probe and draws every row.
        first_batch = not self._columnar.has_row(attribute, epoch)
        for field, modality, quantize, ids, rows in plan:
            if first_batch:
                values = field.batch_values(ids, epoch)
                values = (columnar.quantize_column(values, modality)
                          if quantize
                          else columnar.clamp_column(values, modality))
                cost = modality.sample_cost_joules
                for (row_index, node, window), value in zip(rows, values):
                    epochs = window.epochs
                    if epochs and epochs[-1] >= epoch:
                        # A straggler a scalar ``read`` sampled first,
                        # or an epoch older than the window's newest:
                        # ``book_sample`` serves the one and refuses
                        # the other.
                        out[row_index] = node.book_sample(
                            attribute, epoch, value, cost)
                        continue
                    epochs.append(epoch)
                    window.values.append(value)
                    if len(epochs) >= window.limit:
                        window.compact()
                    node.ledger.sensing += cost
                    node.samples_taken += 1
                    out[row_index] = value
                continue
            # Later same-epoch readers: with N concurrent sessions
            # only the first reader of an epoch pays the physical
            # draw; everyone else is served from the window's newest
            # entry (exactly the scalar ``read`` fast path). Only stale
            # rows reach ``batch_values``: a cell draw (two hashes and
            # a Gaussian transform for ``RoomField``) costs several
            # times this probe.
            stale = None
            for pair_index, (row_index, _, window) in enumerate(rows):
                epochs = window.epochs
                if epochs and epochs[-1] == epoch:
                    out[row_index] = window.values[-1]
                elif stale is None:
                    stale = [pair_index]
                else:
                    stale.append(pair_index)
            if stale is None:
                continue
            # All-stale (the first session each epoch) reuses the
            # plan's id list itself, so the fields' identity-keyed
            # base memos keep hitting.
            if len(stale) == len(ids):
                stale_ids = ids
            else:
                # repro: allow[hot-loop-allocation] -- one list per channel group of a later same-epoch batch that found stale rows, not one per mote
                stale_ids = [ids[i] for i in stale]
            values = field.batch_values(stale_ids, epoch)
            values = (columnar.quantize_column(values, modality) if quantize
                      else columnar.clamp_column(values, modality))
            cost = modality.sample_cost_joules
            for pair_index, value in zip(stale, values):
                row_index, node, _ = rows[pair_index]
                out[row_index] = node.book_sample(attribute, epoch,
                                                  value, cost)
        readings = dict(zip(node_ids, out))
        self._columnar.store(attribute, epoch, node_ids, readings)
        return readings

    def _build_sampling_plan(self, node_ids: Sequence[int],
                             attribute: str):
        """Partition an id tuple by board channel (see
        :meth:`repro.network.columnar.ColumnarState.plan`). None when
        any node is dead, board-less or lacks the channel — those
        tuples take the reference walk, which raises at that node's
        position. A node an earlier plan grouped keeps its channel
        while its board is the same object
        (:meth:`~repro.network.columnar.ColumnarState.channels`). Each
        row carries the node's window for ``attribute``, so the batch
        books into its columns without asking the node for it."""
        nodes = self.nodes
        known = self._columnar.channels(attribute)
        groups: dict[tuple, tuple] = {}
        for row_index, node_id in enumerate(node_ids):
            node = nodes[node_id]
            board = node.board
            if not node.alive or board is None:
                return None
            entry = known.get(node_id)
            if entry is None or entry[0] is not board:
                try:
                    channel = board.channel(attribute)
                except ValidationError:
                    return None
                field, modality, quantize = channel
                entry = known[node_id] = (
                    board, (id(field), id(modality), quantize), channel)
            group = groups.get(entry[1])
            if group is None:
                group = groups[entry[1]] = (*entry[2], [], [])
            group[3].append(node_id)
            group[4].append((row_index, node, node.window_for(attribute)))
        return tuple(groups.values())

    def advance_epoch(self) -> int:
        """Close the epoch: charge idle energy, bump the counter.

        Inside a :meth:`shared_epoch` block the advance is deferred:
        the request is latched and one real advance happens when the
        outermost block exits. That lets N query sessions each "finish
        their epoch" while the deployment's clock ticks exactly once.
        """
        if self._clock_holds:
            self._advance_requested = True
            return self.epoch
        idle = self.energy.idle_joules_per_epoch
        nodes = self.nodes
        for node_id in self.alive_sensor_ids():
            nodes[node_id].ledger.idle += idle
        self.epoch += 1
        return self.epoch

    @contextmanager
    def shared_epoch(self) -> Iterator[None]:
        """Hold the epoch clock while several sessions run one epoch.

        Every :meth:`advance_epoch` call inside the block (each
        session's engine closes "its" epoch) is coalesced into a single
        real advance on exit, so idle energy is charged once and all
        sessions observe the same epoch number. Nesting is allowed; the
        outermost block performs the advance.
        """
        self._clock_holds += 1
        try:
            yield
        finally:
            self._clock_holds -= 1
            if self._clock_holds == 0 and self._advance_requested:
                self._advance_requested = False
                self.advance_epoch()

    @contextmanager
    def tap_stats(self, stats: NetworkStats) -> Iterator[NetworkStats]:
        """Add the traffic shipped inside the block to ``stats`` too.

        Sessions use this to attribute their own traffic on a shared
        deployment: the deployment ledger counts everything, and on
        exit, even by an exception, ``stats`` gains that ledger's
        change across the block. Blocks nest: an outer block's change
        includes an inner one's.
        """
        start = self.stats._counters()
        try:
            yield stats
        finally:
            stats._add_change(self.stats._counters(), start)

    # ------------------------------------------------------------------
    # Node lifecycle (churn)
    # ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[TopologyEvent], None]) -> None:
        """Register a listener for node failure / join lifecycle events.

        Every :meth:`kill_node` and :meth:`join_node` publishes one
        :class:`~repro.network.events.TopologyEvent` stamped with the
        current epoch; the server forwards them to live query sessions
        so engines invalidate and re-prime only the affected subtrees.
        """
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def _emit(self, event: TopologyEvent) -> None:
        for callback in tuple(self._subscribers):
            callback(event)

    def _energy_spent(self, node_id: int) -> float:
        return self.ledger(node_id).total

    def kill_node(self, node_id: int, repair: bool = True) -> None:
        """Kill a sensor and, by default, repair the routing tree.

        The repair is *incremental*: orphaned subtrees re-attach at
        their best surviving radio neighbour (residual-energy-aware),
        each new edge paying one attach handshake charged to the
        ``recovery`` stats phase. With ``repair=False`` the tree is
        left broken — batch schedules kill several victims and repair
        once on the last. A typed ``NODE_FAILED`` event is published
        either way.
        """
        if node_id == self.sink_id:
            raise ConfigurationError(
                "the sink cannot be killed: it is the mains-powered base "
                "station every query routes to"
            )
        former_parent = (self.tree.parent(node_id)
                         if node_id in self.tree else None)
        self.node(node_id).kill()
        reattached: tuple[tuple[int, int], ...] = ()
        detached: tuple[int, ...] = ()
        dirty: set[int] = set()
        if repair:
            dead = [i for i, n in self.nodes.items() if not n.alive]
            self.tree, report = self.tree.repaired(
                dead, self.topology, energy_of=self._energy_spent,
                detach_unreachable=True)
            reattached = report.reattached
            detached = report.detached
            # Partitioned survivors keep sensing, but the deployment
            # can no longer hear them: they leave the fleet too.
            for lost in detached:
                self.nodes[lost].kill()
            with self.stats.phase("recovery"):
                for child, parent in reattached:
                    self._ship(child, (parent,),
                               ControlMessage(label="attach"))
            for child, parent in reattached:
                dirty.add(child)
                dirty.update(self.tree.path_to_root(parent))
            if former_parent in self.tree:
                dirty.update(self.tree.path_to_root(former_parent))
        dirty.discard(self.sink_id)
        self._emit(TopologyEvent(
            kind=TopologyEventKind.NODE_FAILED,
            epoch=self.epoch,
            node_id=node_id,
            repaired=repair,
            reattached=reattached,
            dirty=tuple(sorted(dirty)),
        ))
        for lost in detached:
            self._emit(TopologyEvent(
                kind=TopologyEventKind.NODE_FAILED,
                epoch=self.epoch,
                node_id=lost,
                repaired=True,
            ))

    def join_node(self, node_id: int, position: tuple[float, float],
                  board: SensorBoard | None = None,
                  group: Hashable = None) -> int:
        """Deploy one more mote mid-run; returns its chosen parent.

        The joiner is placed in the topology, attaches to the alive
        in-range tree node that has spent the least energy (ties break
        toward the shallower, then smaller-id candidate), pays one join
        handshake on the ``recovery`` stats phase, and a ``NODE_JOINED``
        event is published. A previously killed node id may rejoin —
        fresh battery, empty history — but an alive id is refused.
        """
        if node_id == self.sink_id:
            raise ConfigurationError("the sink is already deployed")
        existing = self.nodes.get(node_id)
        if existing is not None and existing.alive:
            raise ConfigurationError(
                f"node {node_id} is already deployed and alive")
        self.topology.add_node(node_id, position)
        tree = self.tree
        candidates = [
            neighbor for neighbor in self.topology.neighbors(node_id)
            if neighbor in tree
            and (neighbor == self.sink_id or self.nodes[neighbor].alive)
        ]
        if not candidates:
            self.topology.remove_node(node_id)
            raise TopologyError(
                f"node {node_id} at {position} hears no alive node; "
                f"place it within radio range of the deployment"
            )
        parent = min(candidates, key=lambda n: (
            self._energy_spent(n), self.tree.depth(n), n))
        self.tree = self.tree.attach(node_id, parent)
        newborn = SensorNode(node_id, board=board, group=group)
        newborn.on_kill = self._on_node_killed
        self.nodes[node_id] = newborn
        self._ledger_of[node_id] = newborn.ledger
        self._topo_version += 1
        with self.stats.phase("recovery"):
            self._ship(node_id, (parent,), ControlMessage(label="join"))
        dirty = {node_id, *self.tree.path_to_root(parent)}
        dirty.discard(self.sink_id)
        self._emit(TopologyEvent(
            kind=TopologyEventKind.NODE_JOINED,
            epoch=self.epoch,
            node_id=node_id,
            repaired=True,
            reattached=((node_id, parent),),
            dirty=tuple(sorted(dirty)),
        ))
        return parent

    def bottleneck_energy(self) -> tuple[int, float]:
        """(node id, joules) of the most drained sensor — the lifetime limit."""
        if not self.nodes:
            raise ConfigurationError("network has no sensors")
        node_id = max(self.nodes, key=lambda i: self.nodes[i].ledger.total)
        return node_id, self.nodes[node_id].ledger.total

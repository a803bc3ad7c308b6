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
:mod:`repro.network.hotpath`): packet costs come from the memoized
fragment table, energy rates and ledger lookups are precomputed,
traffic is batched per epoch into per-kind accumulators flushed at
epoch/phase/tap boundaries, flat relays (:meth:`Network.unicast_to_sink`
/ :meth:`Network.unicast_from_sink`) over a lossless radio ship their
whole tree path in one kernel call, and tree traversal orders /
live-children lookups are cached and invalidated on topology change.
All of it is observationally identical to the reference path — same
counters, same per-phase snapshots, same RNG draws — which stays
available as the oracle via :func:`repro.network.hotpath.reference_path`;
``tests/test_hotpath_equivalence.py`` proves the equivalence
byte-for-byte.

Randomness is split into *per-purpose streams*: the packet-loss process
draws from one seeded RNG, while churn-recovery handshakes (attach /
join control traffic) draw from a second stream derived from the same
seed. Topology events therefore never perturb the loss outcomes of
session traffic — a run with a churn schedule whose victims carry no
query traffic sees byte-for-byte the same losses as a run without it.

A third switch (:mod:`repro.network.eventsim`) replaces the inline
ship calls with a discrete-event queue: :meth:`Network._ship_unicast`
and friends *post* deliveries that fire from the queue. In zero-delay
mode the queue drains synchronously at each post site, so ordering,
counters and RNG draws are byte-identical to the inline path — the
inline path stays in-tree as that mode's oracle
(:func:`repro.network.eventsim.inline_ship`), and
``tests/test_hotpath_equivalence.py::TestEventsimEquivalence`` holds
the proof. Delay and partitioned modes defer transport accounting to
timestamped events drained at the epoch barrier (churn-recovery
handshakes always ship inline: repairs are synchronous tree surgery,
not radio traffic racing an epoch).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ..errors import ConfigurationError, RoutingError, TopologyError
from ..sensing.board import SensorBoard
from . import columnar, eventsim, hotpath
from .energy import EnergyLedger, EnergyModel
from .events import TopologyEvent, TopologyEventKind
from .link import RadioModel
from .messages import ControlMessage, WireMessage
from .node import SensorNode
from .packets import fragment, fragment_cached
from .stats import NetworkStats
from .topology import Topology
from .tree import RoutingTree

#: Offset deriving the recovery-handshake RNG stream from the loss seed
#: (an arbitrary odd 64-bit constant; any fixed value works).
_RECOVERY_STREAM = 0x9E3779B97F4A7C15


class Network:
    """A deployed sensor network: topology + tree + cost models + nodes."""

    def __init__(self, topology: Topology,
                 radio: RadioModel | None = None,
                 energy: EnergyModel | None = None,
                 tree: RoutingTree | None = None,
                 boards: Mapping[int, SensorBoard] | None = None,
                 group_of: Mapping[int, Hashable] | None = None,
                 seed: int = 0):
        """Deploy a network.

        Args:
            topology: Physical placement and connectivity.
            radio: Link model (defaults to the MICA2 CC1000).
            energy: Energy model (defaults to MICA2 calibration).
            tree: Routing tree; built by BFS from the topology when
                omitted. An explicit tree lets tests pin the exact
                hierarchy of the paper's Figure 1.
            boards: Per-node sensor boards; one shared board instance
                may be passed for all nodes via a dict with every id.
            group_of: Node id → cluster (room) membership.
            seed: Seed for the loss process.
        """
        self.topology = topology
        self.radio = radio or RadioModel(range_m=topology.radio_range)
        self.energy = energy or EnergyModel()
        self.tree = tree or RoutingTree.from_topology(topology)
        missing = set(self.tree.node_ids) - set(topology.node_ids)
        if missing:
            raise TopologyError(f"tree references unknown nodes: {sorted(missing)}")
        self.stats = NetworkStats()
        #: Loss-process stream: consumed only by session traffic.
        self._rng = random.Random(seed)
        #: Recovery stream: consumed only by churn handshakes, so
        #: topology events never shift the loss process.
        self._recovery_rng = random.Random(seed ^ _RECOVERY_STREAM)
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
        self._stat_taps: list[NetworkStats] = []
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
        #: Per-epoch traffic accumulator: kind → [messages, packets,
        #: payload, air, retransmissions]; flushed into the active
        #: stats sinks at epoch / phase / tap boundaries.
        self._pending_traffic: dict[str, list] = {}
        #: payload bytes → (packets, air bytes, tx J, rx J) for
        #: lossless hops (unicast fast path).
        self._cost_memo: dict[int, tuple] = {}
        self.stats._drain_hook = self._flush_traffic
        #: Topology caches, invalidated by bumping the version (node
        #: deaths report in via the per-node kill hook).
        self._topo_version = 0
        self._order_cache: tuple[int, ...] | None = None
        self._alive_ids_cache: tuple[int, ...] | None = None
        self._forwarders_cache: tuple[int, ...] | None = None
        self._live_children_cache: dict[int, tuple[int, ...]] = {}
        self._cache_tree: RoutingTree | None = None
        self._cache_version = -1
        #: Structure-of-arrays caches (readings rows / columns) for the
        #: columnar kernel; epoch-stamped and id-tuple-keyed, so no
        #: invalidation hooks are needed (see ColumnarState).
        self._columnar = columnar.ColumnarState()
        # ---- event-core state (third switch; see eventsim) ----
        #: The deployment seed, kept for per-subtree stream derivation.
        self._seed = seed
        self._events = eventsim.EventQueue()
        #: True while a queue drain is firing events: posted ships fall
        #: through to the inline bodies instead of re-enqueueing.
        self._draining = False
        #: Events fired over the network's lifetime (the driver's
        #: event-budget policy reads this).
        self.events_processed = 0
        #: Simulated radio time in seconds; only advances in delay /
        #: partitioned mode (zero-delay stays at 0.0 forever).
        self.sim_time_s = 0.0
        self._epoch_start_s = 0.0
        #: node id → earliest time its radio is free again (delay mode;
        #: cleared at every real epoch advance).
        self._node_ready: dict[int, float] = {}
        #: Per-subtree event streams: sink-child root → (queue, loss
        #: RNG). None while partitioning is off.
        self._partitions: dict[int, tuple] | None = None
        self._subtree_of: dict[int, int] = {}
        self._subtree_tree: RoutingTree | None = None
        self._subtree_version = -1
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
        if hotpath.enabled():
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
            self._order_cache = None
            self._alive_ids_cache = None
            self._forwarders_cache = None
            self._live_children_cache.clear()

    def _on_node_killed(self, _node_id: int) -> None:
        """Per-node death hook: invalidate aliveness-derived caches.

        Installed on every :class:`SensorNode` (including ones killed
        directly, bypassing :meth:`kill_node`), so caches can never
        observe a stale ``alive`` flag.
        """
        self._topo_version += 1

    def ledger(self, node_id: int) -> EnergyLedger:
        """The energy ledger of a node (or of the sink)."""
        if node_id == self.sink_id:
            return self.sink_ledger
        return self.node(node_id).ledger

    def groups(self) -> dict[Hashable, int]:
        """Cluster → number of live member sensors."""
        counts: dict[Hashable, int] = {}
        for node_id in self.alive_sensor_ids():
            group = self.nodes[node_id].group
            if group is not None:
                counts[group] = counts.get(group, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------

    def _ship(self, sender: int, receivers: Iterable[int],
              message: WireMessage,
              rng: random.Random | None = None) -> None:
        """Fragment, apply the loss process, charge energy, record.

        ``rng`` selects the randomness stream paying for this message's
        loss draws (default: the loss-process stream; churn recovery
        passes its own stream so repairs never perturb session losses —
        and recovery traffic always ships inline, bypassing the event
        core, because repairs are synchronous tree surgery).
        """
        receivers = tuple(receivers)
        if (eventsim._enabled and hotpath._enabled and rng is None
                and not self._draining):
            self.post_ship(sender, receivers, message)
            return
        hot = hotpath.enabled()
        cost = (fragment_cached(message.payload_bytes) if hot
                else fragment(message.payload_bytes))
        if hot and self.radio.loss_probability == 0.0:
            # Lossless links take exactly one attempt per packet and
            # consume no randomness — identical to the drawn outcome.
            attempts = cost.packets
        else:
            if rng is None:
                rng = self._rng
            attempts = 0
            try:
                for _ in range(cost.packets):
                    attempts += self.radio.attempts_needed(rng)
            except RoutingError:
                self.stats.record_drop()
                for tap in self._stat_taps:
                    tap.record_drop()
                raise
        air_bytes = cost.air_bytes + (attempts - cost.packets) * (
            cost.air_bytes // cost.packets)
        if hot:
            tx_joules = air_bytes * self._tx_rate
            rx_joules_each = air_bytes * self._rx_rate
            ledgers = self._ledger_of
            ledgers[sender].tx += tx_joules
            for receiver in receivers:
                ledgers[receiver].rx += rx_joules_each
            self._record_hot(message.kind, cost.packets,
                             cost.payload_bytes, air_bytes,
                             attempts - cost.packets, tx_joules,
                             rx_joules_each * len(receivers))
            return
        tx_joules = air_bytes * self.energy.tx_joules_per_byte
        rx_joules_each = air_bytes * self.energy.rx_joules_per_byte
        self.ledger(sender).charge_tx(tx_joules)
        for receiver in receivers:
            self.ledger(receiver).charge_rx(rx_joules_each)
        for stats in (self.stats, *self._stat_taps):
            stats.record(
                kind=message.kind,
                packets=cost.packets,
                payload_bytes=cost.payload_bytes,
                air_bytes=air_bytes,
                tx_joules=tx_joules,
                rx_joules=rx_joules_each * len(receivers),
                retransmissions=attempts - cost.packets,
            )

    # repro: hot
    def _ship_unicast(self, sender: int, receiver: int, kind: str,
                      payload_bytes: int) -> None:
        """Hot-path :meth:`_ship` specialised for one receiver.

        Tree traffic is overwhelmingly unicast (every converge-cast
        edge), so the single-receiver case skips the receiver tuple,
        the receiver loop and the generic branching. Costs, energy and
        recorded counters are identical to :meth:`_ship` of a message
        with this ``kind`` and ``payload_bytes``.
        """
        # Direct _enabled reads, like the hotpath._enabled reads at hot
        # call sites: this method is only reachable from hot-path
        # branches, so the stacked eventsim.enabled() conjunction is
        # already satisfied.
        if eventsim._enabled and not self._draining:
            self.post_unicast(sender, receiver, kind, payload_bytes)
            return
        if self.radio.loss_probability == 0.0:
            info = (self._cost_memo.get(payload_bytes)
                    or self._memo_cost(payload_bytes))
            packets, air_bytes, tx_joules, rx_joules = info
            retransmissions = 0
        else:
            cost = fragment_cached(payload_bytes)
            packets = cost.packets
            rng = self._rng
            attempts_needed = self.radio.attempts_needed
            attempts = 0
            try:
                for _ in range(packets):
                    attempts += attempts_needed(rng)
            except RoutingError:
                self.stats.record_drop()
                for tap in self._stat_taps:
                    tap.record_drop()
                raise
            air_bytes = cost.air_bytes + (attempts - packets) * (
                cost.air_bytes // packets)
            tx_joules = air_bytes * self._tx_rate
            rx_joules = air_bytes * self._rx_rate
            retransmissions = attempts - packets
        ledgers = self._ledger_of
        ledgers[sender].tx += tx_joules
        ledgers[receiver].rx += rx_joules
        # _record_hot, inlined: this is the per-converge-cast-edge call
        # site — the hottest in the simulator — and the call frame
        # alone is measurable there. Keep in lock-step with
        # _record_hot (the canonical implementation).
        batch = self._pending_traffic.get(kind)
        if batch is None:
            batch = self._pending_traffic[kind] = [0, 0, 0, 0, 0]
        batch[0] += 1
        batch[1] += packets
        batch[2] += payload_bytes
        batch[3] += air_bytes
        batch[4] += retransmissions
        stats = self.stats
        stats._tx_joules += tx_joules
        stats._rx_joules += rx_joules
        for tap in self._stat_taps:
            tap._tx_joules += tx_joules
            tap._rx_joules += rx_joules

    # repro: hot
    def _ship_broadcast(self, sender: int, receivers: tuple[int, ...],
                        message: WireMessage) -> None:
        """Hot-path :meth:`_ship` for one lossless multi-receiver send."""
        if eventsim._enabled and not self._draining:
            self.post_broadcast(sender, receivers, message)
            return
        payload_bytes = message.payload_bytes
        info = (self._cost_memo.get(payload_bytes)
                or self._memo_cost(payload_bytes))
        packets, air_bytes, tx_joules, rx_joules_each = info
        ledgers = self._ledger_of
        ledgers[sender].tx += tx_joules
        for receiver in receivers:
            ledgers[receiver].rx += rx_joules_each
        self._record_hot(message.kind, packets, payload_bytes, air_bytes,
                         0, tx_joules, rx_joules_each * len(receivers))

    # repro: hot
    def _relay_lossless(self, senders: tuple[int, ...],
                        receivers: tuple[int, ...],
                        message: WireMessage) -> int:
        """Ship one message over every edge of a tree path in one call.

        Hop ``i`` goes from ``senders[i]`` to ``receivers[i]``. Equal to
        one lossless :meth:`_ship_unicast` per hop: the cost memo is read
        once and the kind's integer batch grows by ``hops`` × the
        per-hop counts (integers, so exact), while every float joule add
        still happens once per hop — one ``tx`` per sender ledger, one
        ``rx`` per receiver ledger, and ``hops`` in-order adds to each
        stats sink — so every accumulator sees the per-hop sequence.
        Returns the number of hops. Only for lossless radios with the
        event core off; callers fall back to the per-hop loop otherwise.
        """
        hops = len(senders)
        if not hops:
            return 0
        payload_bytes = message.payload_bytes
        info = (self._cost_memo.get(payload_bytes)
                or self._memo_cost(payload_bytes))
        packets, air_bytes, tx_joules, rx_joules = info
        ledgers = self._ledger_of
        for node_id in senders:
            ledgers[node_id].tx += tx_joules
        for node_id in receivers:
            ledgers[node_id].rx += rx_joules
        batch = self._pending_traffic.get(message.kind)
        if batch is None:
            batch = self._pending_traffic[message.kind] = [0, 0, 0, 0, 0]
        batch[0] += hops
        batch[1] += hops * packets
        batch[2] += hops * payload_bytes
        batch[3] += hops * air_bytes
        for stats in (self.stats, *self._stat_taps):
            tx_total = stats._tx_joules
            rx_total = stats._rx_joules
            for _ in range(hops):
                tx_total += tx_joules
                rx_total += rx_joules
            stats._tx_joules = tx_total
            stats._rx_joules = rx_total
        return hops

    def _memo_cost(self, payload_bytes: int) -> tuple:
        """Fill the lossless cost memo for one payload size: one memo
        entry yields packets, air bytes and both joule figures (energy
        rates are fixed per deployment). Cold path only."""
        cost = fragment_cached(payload_bytes)
        info = self._cost_memo[payload_bytes] = (
            cost.packets, cost.air_bytes,
            cost.air_bytes * self._tx_rate,
            cost.air_bytes * self._rx_rate,
        )
        return info

    def _record_hot(self, kind: str, packets: int, payload_bytes: int,
                    air_bytes: int, retransmissions: int,
                    tx_joules: float, rx_total: float) -> None:
        """Record one hot-path message: integer counters into the
        per-epoch per-kind batch, joules eagerly into every sink (so
        float accumulation order matches eager recording).

        The joule adds write the sinks' private accumulators directly
        — this is the single hottest call site in the simulator, and
        Network already owns the sinks' batching lifecycle (it installs
        their drain hooks); see NetworkStats.add_joules for the
        public equivalent.
        """
        batch = self._pending_traffic.get(kind)
        if batch is None:
            batch = self._pending_traffic[kind] = [0, 0, 0, 0, 0]
        batch[0] += 1
        batch[1] += packets
        batch[2] += payload_bytes
        batch[3] += air_bytes
        batch[4] += retransmissions
        stats = self.stats
        stats._tx_joules += tx_joules
        stats._rx_joules += rx_total
        for tap in self._stat_taps:
            tap._tx_joules += tx_joules
            tap._rx_joules += rx_total

    def _flush_traffic(self) -> None:
        """Fold the per-epoch traffic accumulator into every active
        stats sink (the deployment ledger plus any session taps).

        Installed as the sinks' drain hook, so it runs before any
        counter read, phase boundary or snapshot — readers can never
        observe half-recorded epochs. Tap registration flushes first,
        so everything pending was recorded while the current sink set
        was active.
        """
        pending = self._pending_traffic
        if not pending:
            return
        self._pending_traffic = {}
        sinks = (self.stats, *self._stat_taps)
        for kind, batch in pending.items():
            for sink in sinks:
                sink.apply_batch(kind, batch[0], batch[1], batch[2],
                                 batch[3], batch[4])

    # ------------------------------------------------------------------
    # Event core (the eventsim switch)
    # ------------------------------------------------------------------

    def _deferred_mode(self) -> bool:
        """True when posted events carry real timestamps and drain at
        the epoch barrier instead of at the post site."""
        return (self._partitions is not None
                or self.radio.propagation_latency_s > 0.0)

    def post_unicast(self, sender: int, receiver: int, kind: str,
                     payload_bytes: int,
                     deliver: Callable[[], None] | None = None) -> None:
        """Enqueue one unicast delivery on the event core.

        Zero-delay mode pushes the ship onto the queue and drains it
        immediately, so accounting, RNG draws, handler effects and
        exceptions happen in the exact inline order (the byte-identity
        claim). Delay/partitioned mode runs ``deliver`` eagerly — the
        per-epoch lookahead window that keeps engines on epoch
        semantics — and defers the transport accounting to a
        timestamped event drained at the epoch barrier.
        """
        if not self._deferred_mode():
            def fire() -> None:
                self._ship_unicast(sender, receiver, kind, payload_bytes)
                if deliver is not None:
                    deliver()

            events = self._events
            events.push(self.sim_time_s, receiver, fire)
            self._drain_inline(events)
            return
        self._post_deferred(
            sender, receiver, (receiver,), payload_bytes,
            lambda: self._ship_unicast(sender, receiver, kind, payload_bytes))
        if deliver is not None:
            deliver()

    def post_broadcast(self, sender: int, receivers: tuple[int, ...],
                       message: WireMessage,
                       deliver: Callable[[], None] | None = None) -> None:
        """Enqueue one lossless broadcast delivery (see
        :meth:`post_unicast` for the mode semantics)."""
        if not self._deferred_mode():
            def fire() -> None:
                self._ship_broadcast(sender, receivers, message)
                if deliver is not None:
                    deliver()

            events = self._events
            events.push(self.sim_time_s, sender, fire)
            self._drain_inline(events)
            return
        self._post_deferred(
            sender, sender, receivers, message.payload_bytes,
            lambda: self._ship_broadcast(sender, receivers, message))
        if deliver is not None:
            deliver()

    def post_ship(self, sender: int, receivers: tuple[int, ...],
                  message: WireMessage) -> None:
        """Enqueue one generic (possibly lossy) multi-receiver send."""
        if not self._deferred_mode():
            events = self._events
            events.push(self.sim_time_s, sender,
                        lambda: self._ship(sender, receivers, message))
            self._drain_inline(events)
            return
        self._post_deferred(
            sender, sender, receivers, message.payload_bytes,
            lambda: self._ship(sender, receivers, message))

    def _post_deferred(self, sender: int, event_node: int,
                       receivers: tuple[int, ...], payload_bytes: int,
                       ship: Callable[[], None]) -> None:
        """Timestamp and enqueue one delivery for the barrier drain.

        The arrival time is the sender's channel-free time plus the
        message's nominal (no-retry) airtime plus the radio's
        propagation latency; the sender's channel then stays busy for
        the airtime and each receiver cannot transmit before the
        arrival. The stats phase open at the post site is captured and
        replayed around the deferred accounting, so by_phase
        attribution survives the deferral.
        """
        info = (self._cost_memo.get(payload_bytes)
                or self._memo_cost(payload_bytes))
        air_seconds = self.radio.airtime_seconds(info[1])
        ready = self._node_ready
        start = self._epoch_start_s
        send_at = ready.get(sender, start)
        arrival = send_at + air_seconds + self.radio.propagation_latency_s
        ready[sender] = send_at + air_seconds
        for receiver in receivers:
            prior = ready.get(receiver, start)
            if arrival > prior:
                ready[receiver] = arrival
        stack = self.stats._phase_stack
        phase_name = stack[-1][0] if stack else None

        def fire() -> None:
            if phase_name is None:
                ship()
            else:
                with self.stats.phase(phase_name):
                    ship()

        if self._partitions is not None:
            queue = self._partition_for(self._subtree_root(sender))[0]
        else:
            queue = self._events
        queue.push(arrival, event_node, fire)

    def _drain_inline(self, events: eventsim.EventQueue) -> None:
        """Zero-delay drain: fire every queued event synchronously at
        the post site. Fires run with ``_draining`` set, so nested
        ships (a handler shipping onward) take the inline bodies
        directly — the exact inline call order. Exceptions (lossy-link
        :class:`RoutingError`) propagate to the post site, as inline.
        """
        self._draining = True
        try:
            while events:
                event = events.pop()
                self.events_processed += 1
                event.fire()
        finally:
            self._draining = False

    def _drain_queue(self, events: eventsim.EventQueue) -> None:
        """Barrier drain of one deferred queue, in timestamp order.

        A deferred lossy delivery whose retry budget exhausts raises
        :class:`RoutingError` with the sender's frame long gone; the
        drop was already recorded inside the ship body, so the event is
        absorbed here (a documented delay-mode divergence — the inline
        path surfaces the drop to the sender).
        """
        last = self.sim_time_s
        while events:
            event = events.pop()
            self.events_processed += 1
            if event.time > last:
                last = event.time
            try:
                event.fire()
            except RoutingError:
                pass
        self.sim_time_s = last

    def _drain_deferred_events(self) -> None:
        """Drain every deferred event stream (the epoch barrier).

        Partitioned mode drains subtree streams in sorted-root order,
        each under its own loss-RNG stream and into its own stats
        batch; the batches merge afterwards in that same order, so any
        partition layout yields one deterministic ledger.
        """
        if self._events:
            self._draining = True
            try:
                self._drain_queue(self._events)
            finally:
                self._draining = False
        partitions = self._partitions
        if partitions is None:
            return
        session_rng = self._rng
        inline_pending = self._pending_traffic
        batches: list[dict[str, list]] = []
        self._draining = True
        try:
            for root in sorted(partitions):
                queue, rng = partitions[root]
                if not queue:
                    continue
                self._pending_traffic = {}
                self._rng = rng
                self._drain_queue(queue)
                batches.append(self._pending_traffic)
        finally:
            self._draining = False
            self._rng = session_rng
            self._pending_traffic = inline_pending
            for batch_map in batches:
                for kind, counts in batch_map.items():
                    batch = inline_pending.get(kind)
                    if batch is None:
                        inline_pending[kind] = counts
                    else:
                        for index in range(5):
                            batch[index] += counts[index]

    def _drain_events_at_barrier(self) -> None:
        """Cheap barrier hook: drain only when something is queued
        (zero-delay mode never leaves the queues non-empty)."""
        if self._events or self._partitions is not None:
            self._drain_deferred_events()

    def enable_subtree_partitioning(self, enabled: bool = True) -> None:
        """Give each sink-child subtree an independent event stream.

        Requires the event core (:mod:`repro.network.eventsim`). Every
        subtree gets its own queue and its own loss-RNG stream
        (``parallel.derive_seed(seed, "subtree", root)``), so one
        subtree's traffic never perturbs another's draws — the
        stream-identity property that lets worker processes each
        simulate one subtree and reproduce the full run's per-subtree
        results exactly. Deliveries defer to the epoch barrier even at
        zero latency; this mode is deliberately *not* byte-identical to
        the inline path (one global loss stream cannot be split), its
        claim is determinism at any partition layout.
        """
        self._drain_events_at_barrier()
        self._partitions = {} if enabled else None

    def _partition_for(self, root: int) -> tuple:
        entry = self._partitions.get(root)
        if entry is None:
            # repro: allow[layer-dag] -- deliberate back-edge: per-subtree loss streams reuse parallel.derive_seed so partition streams match the executor's identity-keyed derivation; imported lazily, only when partitioning is on
            from ..parallel import derive_seed

            entry = self._partitions[root] = (
                eventsim.EventQueue(),
                random.Random(derive_seed(self._seed, "subtree", root)),
            )
        return entry

    def _subtree_root(self, node_id: int) -> int:
        """The sink child whose subtree contains ``node_id`` (the sink
        itself maps to its own id — sink-originated dissemination is
        one stream of its own)."""
        if (self._subtree_tree is not self.tree
                or self._subtree_version != self._topo_version):
            self._subtree_of.clear()
            self._subtree_tree = self.tree
            self._subtree_version = self._topo_version
        root = self._subtree_of.get(node_id)
        if root is None:
            path = self.tree.path_to_root(node_id)
            root = path[-2] if len(path) > 1 else node_id
            self._subtree_of[node_id] = root
        return root

    def send_up(self, child: int, message: WireMessage) -> int:
        """Unicast from ``child`` to its tree parent; returns the parent id."""
        if hotpath.enabled():
            parent = self.tree._parents.get(child)
            if parent is None:
                parent = self.tree.parent(child)  # error semantics
            if child != self._sink_id and not self.nodes[child].alive:
                raise RoutingError(f"dead node {child} cannot transmit")
            self._ship_unicast(child, parent, message.kind,
                               message.payload_bytes)
            return parent
        parent = self.tree.parent(child)
        if child != self.sink_id and not self.nodes[child].alive:
            raise RoutingError(f"dead node {child} cannot transmit")
        self._ship(child, (parent,), message)
        return parent

    def broadcast_down(self, parent: int, message: WireMessage) -> tuple[int, ...]:
        """One transmission from ``parent`` heard by all its tree children."""
        if hotpath.enabled():
            self._validate_topo_caches()
            live = self._live_children_cache.get(parent)
            if live is None:
                nodes = self.nodes
                live = tuple(c for c in self.tree.children(parent)
                             if nodes[c].alive)
                self._live_children_cache[parent] = live
        else:
            children = self.tree.children(parent)
            live = tuple(c for c in children if self.nodes[c].alive)
        if not live:
            return ()
        if hotpath.enabled() and self.radio.loss_probability == 0.0:
            self._ship_broadcast(parent, live, message)
        else:
            self._ship(parent, live, message)
        return live

    def flood_down(self, make_message: Callable[[int], WireMessage | None]
                   ) -> int:
        """Disseminate sink→leaves: every non-leaf broadcasts once.

        ``make_message(node_id)`` builds the (possibly node-specific)
        message each forwarding parent sends; returning None suppresses
        that hop (used by probe phases to prune the dissemination to
        relevant subtrees). Returns the number of broadcasts sent.
        """
        sends = 0
        if hotpath.enabled():
            self._validate_topo_caches()
            forwarders = self._forwarders_cache
            if forwarders is None:
                sink = self._sink_id
                nodes = self.nodes
                tree = self.tree
                forwarders = self._forwarders_cache = tuple(
                    node_id for node_id in tree.pre_order()
                    if (node_id == sink or nodes[node_id].alive)
                    and tree.children(node_id)
                )
            for node_id in forwarders:
                message = make_message(node_id)
                if message is None:
                    continue
                if self.broadcast_down(node_id, message):
                    sends += 1
            return sends
        for node_id in self.tree.pre_order():
            if node_id != self.sink_id and not self.nodes[node_id].alive:
                continue
            if not self.tree.children(node_id):
                continue
            message = make_message(node_id)
            if message is None:
                continue
            if self.broadcast_down(node_id, message):
                sends += 1
        return sends

    def unicast_to_sink(self, origin: int, message: WireMessage,
                        deliver: Callable[[], None] | None = None) -> int:
        """Relay hop-by-hop from ``origin`` to the sink, no merging.

        Flat protocols (TPUT, FILA reports) route through the tree but
        do not aggregate, so the same logical message pays transmit and
        receive at every hop. Returns the number of hops charged.
        ``deliver`` — the sink-side receive handler under the event
        core — runs once after the last hop ships.
        """
        hops = 0
        if hotpath.enabled():
            path = self.tree.path_to_root(origin)
            if self.radio.loss_probability == 0.0 and not eventsim._enabled:
                hops = self._relay_lossless(path[:-1], path[1:], message)
            else:
                kind, payload_bytes = message.kind, message.payload_bytes
                for node_id, parent in zip(path, path[1:]):
                    self._ship_unicast(node_id, parent, kind, payload_bytes)
                    hops += 1
            if deliver is not None:
                deliver()
            return hops
        for node_id in self.tree.path_to_root(origin)[:-1]:
            self._ship(node_id, (self.tree.parent(node_id),), message)
            hops += 1
        if deliver is not None:
            deliver()
        return hops

    def unicast_from_sink(self, target: int, message: WireMessage) -> int:
        """Relay hop-by-hop from the sink to ``target``; returns hops."""
        path = self.tree.path_to_root(target)
        hops = 0
        if hotpath.enabled():
            if self.radio.loss_probability == 0.0 and not eventsim._enabled:
                return self._relay_lossless(path[1:], path[:-1], message)
            kind, payload_bytes = message.kind, message.payload_bytes
            for receiver, sender in zip(path[-2::-1], path[::-1]):
                self._ship_unicast(sender, receiver, kind, payload_bytes)
                hops += 1
            return hops
        for receiver, sender in zip(path[:-1][::-1] or (), path[1:][::-1] or ()):
            self._ship(sender, (receiver,), message)
            hops += 1
        return hops

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------

    def converge_cast_order(self) -> tuple[int, ...]:
        """Live sensors leaves-first (the per-epoch send schedule)."""
        if hotpath.enabled():
            self._validate_topo_caches()
            if self._order_cache is None:
                nodes = self.nodes
                sink = self._sink_id
                self._order_cache = tuple(
                    node_id for node_id in self.tree.post_order()
                    if node_id != sink and nodes[node_id].alive
                )
            return self._order_cache
        return tuple(
            node_id for node_id in self.tree.post_order()
            if node_id != self.sink_id and self.nodes[node_id].alive
        )

    def sample_all(self, attribute: str) -> dict[int, float]:
        """Every live sensor samples ``attribute`` for the current epoch."""
        return dict(self.read_many(self.alive_sensor_ids(), attribute))

    def read_many(self, node_ids: Sequence[int],
                  attribute: str) -> dict[int, float]:
        """One epoch's readings for a whole id column, in id order.

        Byte-identical to ``{n: self.nodes[n].read(attribute, epoch)
        for n in node_ids}`` — that *is* the code path with the
        columnar kernel off. With it on, nodes still needing a physical
        sample are grouped by board channel and acquired through one
        :meth:`~repro.sensing.generators.FieldGenerator.batch_values`
        call plus a vectorized clamp/quantize per channel, then booked
        per node exactly as a scalar read
        (:meth:`~repro.network.node.SensorNode.store_sample`). The row
        is cached per (attribute, epoch, id-tuple identity), so N
        concurrent sessions over the same deployment pay for one batch.

        The returned dict is shared with later same-epoch callers —
        treat it as read-only (copy it to mutate, as
        :meth:`sample_all` does).
        """
        nodes, epoch = self.nodes, self.epoch
        if not (columnar._enabled and hotpath._enabled):
            return {node_id: nodes[node_id].read(attribute, epoch)
                    for node_id in node_ids}
        row = self._columnar.cached(attribute, epoch, node_ids)
        if row is not None:
            return row
        plan = self._columnar.plan(attribute, node_ids)
        if plan is None:
            plan = self._build_sampling_plan(node_ids, attribute)
            if plan is None:
                # A dead or board-less node in the tuple: the generic
                # walk raises exactly as a scalar read would, at that
                # node's position in the loop.
                return self._read_many_generic(node_ids, attribute)
            self._columnar.store_plan(attribute, node_ids, plan)
        out = [0.0] * len(node_ids)
        # The epoch's first batch (no row stored yet for this
        # attribute+epoch, so no session warmed the per-node caches
        # through this path) skips the freshness probe entirely and
        # draws every row — ``book_sample`` still re-checks per node,
        # so a straggler sampled by a scalar ``read`` is never
        # double-booked.
        first_batch = not self._columnar.has_row(attribute, epoch)
        for field, modality, quantize, ids, rows in plan:
            if first_batch:
                values = field.batch_values(ids, epoch)
                values = (columnar.quantize_column(values, modality)
                          if quantize
                          else columnar.clamp_column(values, modality))
                cost = modality.sample_cost_joules
                for (row_index, node), value in zip(rows, values):
                    out[row_index] = node.book_sample(attribute, epoch,
                                                      value, cost)
                continue
            # Later same-epoch readers: with N concurrent sessions
            # only the first reader of an epoch pays the physical
            # draw; everyone else is served from the per-node cache
            # (exactly the scalar ``read`` fast path). Only stale
            # rows reach ``batch_values`` — a Mersenne cell draw is
            # ~100x the cost of this dict probe.
            stale = None
            for pair_index, (row_index, node) in enumerate(rows):
                cached = node._sample_cache.get(attribute)
                if cached is not None and cached[0] == epoch:
                    out[row_index] = cached[1]
                elif stale is None:
                    stale = [pair_index]
                else:
                    stale.append(pair_index)
            if stale is None:
                continue
            # All-stale (the first session each epoch) reuses the
            # plan's id list itself, so the fields' identity-keyed
            # base memos keep hitting.
            stale_ids = (ids if len(stale) == len(ids)
                         else [ids[i] for i in stale])
            values = field.batch_values(stale_ids, epoch)
            values = (columnar.quantize_column(values, modality) if quantize
                      else columnar.clamp_column(values, modality))
            cost = modality.sample_cost_joules
            for pair_index, value in zip(stale, values):
                row_index, node = rows[pair_index]
                out[row_index] = node.book_sample(attribute, epoch,
                                                  value, cost)
        readings = dict(zip(node_ids, out))
        self._columnar.store(attribute, epoch, node_ids, readings)
        return readings

    def _build_sampling_plan(self, node_ids: Sequence[int],
                             attribute: str):
        """Partition an id tuple by board channel (see
        :meth:`repro.network.columnar.ColumnarState.plan`). None when
        any node is dead or board-less — those tuples take the generic
        walk, which reproduces scalar error ordering."""
        nodes = self.nodes
        groups: dict[tuple, tuple] = {}
        for row_index, node_id in enumerate(node_ids):
            node = nodes[node_id]
            if not node.alive or node.board is None:
                return None
            field, modality, quantize = node.board.channel(attribute)
            key = (id(field), id(modality), quantize)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (field, modality, quantize, [], [])
            group[3].append(node_id)
            group[4].append((row_index, node))
        return tuple(groups.values())

    def _read_many_generic(self, node_ids: Sequence[int],
                           attribute: str) -> dict[int, float]:
        """The unplanned batch walk: per-node freshness and liveness
        checks inline, in id order (the pre-plan read_many body)."""
        nodes, epoch = self.nodes, self.epoch
        readings: dict[int, float] = {}
        pending: dict[tuple, list[int]] = {}
        channels: dict[tuple, tuple] = {}
        for node_id in node_ids:
            node = nodes[node_id]
            cached = node._sample_cache.get(attribute)
            if cached is not None and cached[0] == epoch and node.alive:
                readings[node_id] = cached[1]
                continue
            if not node.alive or node.board is None:
                readings[node_id] = node.read(attribute, epoch)
                continue
            field, modality, quantize = node.board.channel(attribute)
            key = (id(field), id(modality), quantize)
            group = pending.get(key)
            if group is None:
                group = pending[key] = []
                channels[key] = (field, modality, quantize)
            group.append(node_id)
            readings[node_id] = 0.0  # placeholder keeps dict in id order
        for key, ids in pending.items():
            field, modality, quantize = channels[key]
            values = field.batch_values(ids, epoch)
            values = (columnar.quantize_column(values, modality) if quantize
                      else columnar.clamp_column(values, modality))
            cost = modality.sample_cost_joules
            for node_id, value in zip(ids, values):
                node = nodes[node_id]
                node.ledger.charge_sensing(cost)
                node.store_sample(attribute, epoch, value)
                readings[node_id] = value
        self._columnar.store(attribute, epoch, node_ids, readings)
        return readings

    def reading_column(self, node_ids: Sequence[int], attribute: str):
        """This epoch's cached readings row as a backend float column
        aligned to ``node_ids`` (None when :meth:`read_many` has not
        built the row). FILA's mask passes consume this."""
        return self._columnar.column(attribute, self.epoch, node_ids)

    def advance_epoch(self) -> int:
        """Close the epoch: charge idle energy, bump the counter.

        Inside a :meth:`shared_epoch` block the advance is deferred:
        the request is latched and one real advance happens when the
        outermost block exits. That lets N query sessions each "finish
        their epoch" while the deployment's clock ticks exactly once.

        Under the event core this is the epoch barrier: deferred
        (delay/partitioned) event streams drain here *before* the latch
        check, so a latched advance inside :meth:`shared_epoch`
        coalesces identically whether its traffic shipped inline or
        arrived as events.
        """
        self._drain_events_at_barrier()
        self._flush_traffic()
        if self._clock_holds:
            self._advance_requested = True
            return self.epoch
        idle = self.energy.idle_joules_per_epoch
        nodes = self.nodes
        for node_id in self.alive_sensor_ids():
            nodes[node_id].ledger.idle += idle
        self.epoch += 1
        if self._node_ready:
            self._node_ready.clear()
        self._epoch_start_s = self.sim_time_s
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
        """Mirror every message shipped inside the block into ``stats``.

        Sessions use this to attribute their own traffic on a shared
        deployment: the global ledger keeps counting everything, while
        the tapped ledger sees only the block's messages.
        """
        # Whatever is pending was recorded before the tap existed; fold
        # it in now so the tap sees only the block's traffic, and give
        # the tap the drain hook so reads inside the block stay exact.
        # Deferred event streams are a tap boundary too: pre-tap posts
        # drain before registration, the block's posts drain before
        # unregistration, so the tap's attribution matches inline.
        self._drain_events_at_barrier()
        self._flush_traffic()
        self._stat_taps.append(stats)
        stats._drain_hook = self._flush_traffic
        try:
            yield stats
        finally:
            self._drain_events_at_barrier()
            self._flush_traffic()
            stats._drain_hook = None
            # Unregister by identity: list.remove() would match any
            # ledger with equal counters.
            for index, tap in enumerate(reversed(self._stat_taps)):
                if tap is stats:
                    del self._stat_taps[len(self._stat_taps) - 1 - index]
                    break

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

    def unsubscribe(self, callback: Callable[[TopologyEvent], None]) -> None:
        """Remove a lifecycle listener (missing callbacks are ignored)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

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
                         if node_id in self.tree.node_ids else None)
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
                               ControlMessage(label="attach"),
                               rng=self._recovery_rng)
            in_tree = set(self.tree.node_ids)
            for child, parent in reattached:
                dirty.add(child)
                dirty.update(self.tree.path_to_root(parent))
            if former_parent in in_tree:
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
        in_tree = set(self.tree.node_ids)
        candidates = [
            neighbor for neighbor in self.topology.neighbors(node_id)
            if neighbor in in_tree
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
            self._ship(node_id, (parent,), ControlMessage(label="join"),
                       rng=self._recovery_rng)
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

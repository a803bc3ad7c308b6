"""The optimized hot path is observationally identical to the
reference path.

The epoch loop's performance work (memoized fragment costs, cached
payload sizes, per-epoch traffic batching, topology caches, the fused
MINT update pass — see ``repro.network.hotpath``) must be *invisible*:
same answers, same :class:`~repro.network.stats.NetworkStats` counters
bit-for-bit, same per-phase snapshots, same energy ledgers, same RNG
consumption. These property tests drive random scenarios, ranks,
engines and churn schedules through both paths and compare everything.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.errors import RoutingError
from repro.network import columnar, eventsim, hotpath
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.network.link import RadioModel
from repro.network.messages import ControlMessage
from repro.network.packets import (
    HEADER_BYTES,
    PAYLOAD_MTU,
    fragment,
    fragment_cached,
)
from repro.network.simulator import Network
from repro.network.stats import NetworkStats
from repro.network.topology import grid_topology
from repro.query.plan import Algorithm
from repro.scenarios import grid_rooms_scenario


def stats_signature(stats):
    """Every observable of a NetworkStats ledger, as comparable data."""
    return (
        stats.summary(),
        dict(stats.by_kind),
        dict(stats.bytes_by_kind),
        dict(stats.by_phase),
    )


def ledger_signature(network):
    return {
        node_id: (ledger.tx, ledger.rx, ledger.sensing, ledger.idle,
                  ledger.storage)
        for node_id, ledger in sorted(
            (i, network.ledger(i))
            for i in (network.sink_id, *network.tree.sensor_ids))
    }


def certification_signature(outcome):
    """Every observable of a CertificationOutcome, as comparable data
    (None for engines that never certify)."""
    if outcome is None:
        return None
    return (
        outcome.certified,
        outcome.threshold,
        outcome.ambiguous,
        tuple((i.key, i.score, i.lb, i.ub) for i in outcome.items),
    )


def answers_of(handle):
    if handle.is_historic:
        result = handle.historic_result
        if result is None:
            return None
        return tuple((i.key, i.score, i.lb, i.ub) for i in result.items)
    return tuple(
        (r.epoch, r.exact, r.probed,
         tuple((i.key, i.score, i.lb, i.ub) for i in r.items),
         certification_signature(r.certification))
        for r in handle.results
    )


QUERY_BY_ENGINE = {
    "mint": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
             "GROUP BY roomid EPOCH DURATION 1 min", None),
    "tag": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min", Algorithm.TAG),
    "centralized": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
                    "GROUP BY roomid EPOCH DURATION 1 min",
                    Algorithm.CENTRALIZED),
    "fila": ("SELECT TOP {k} nodeid, {agg}(sound) FROM sensors "
             "GROUP BY nodeid EPOCH DURATION 1 min", Algorithm.FILA),
    "tja": ("SELECT TOP {k} epoch, {agg}(sound) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s", None),
}


def run_workload(*, seed, k, agg, engines, epochs, churn_seed):
    """One deterministic run; returns every observable as plain data."""
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    deployment = Deployment.from_scenario(scenario)
    interventions = []
    if churn_seed is not None:
        tree = scenario.network.tree
        victims = [n for n in tree.sensor_ids if tree.is_leaf(n)]
        victim = victims[churn_seed % len(victims)]
        schedule = ChurnSchedule([
            ChurnEvent(2, ChurnKind.DEATH, victim),
            ChurnEvent(3, ChurnKind.BIRTH, 99, position=(5.0, 5.0),
                       group=scenario.group_of.get(victim)),
        ])
        interventions.append(
            ChurnIntervention(schedule, board_for=scenario.board_for))
    driver = EpochDriver(deployment, interventions=interventions)
    handles = []
    for engine in engines:
        template, algorithm = QUERY_BY_ENGINE[engine]
        query = template.format(k=k, agg=agg)
        handles.append(deployment.submit(query, algorithm=algorithm))
    driver.run(epochs)
    network = scenario.network
    return (
        [answers_of(h) for h in handles],
        stats_signature(network.stats),
        [stats_signature(h.stats) for h in handles],
        ledger_signature(network),
        network.epoch,
        [h.state.value for h in handles],
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    agg=st.sampled_from(["AVG", "MAX", "SUM", "MIN"]),
    engines=st.lists(
        st.sampled_from(sorted(QUERY_BY_ENGINE)),
        min_size=1, max_size=3, unique=True),
    epochs=st.integers(3, 7),
    churn_seed=st.one_of(st.none(), st.integers(0, 7)),
)
def test_hot_path_equals_reference_path(seed, k, agg, engines, epochs,
                                        churn_seed):
    """Answers, stats, per-session taps, per-phase snapshots and energy
    ledgers are identical — bit-for-bit — on both paths, across random
    scenarios, ranks, aggregates, engine mixes and churn schedules."""
    kwargs = dict(seed=seed, k=k, agg=agg, engines=engines,
                  epochs=epochs, churn_seed=churn_seed)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert hotpath.enabled(), "reference_path() must restore the flag"
    hot = run_workload(**kwargs)
    assert hot == reference


@pytest.mark.parametrize("engine", ["mint", "tag", "fila"])
@pytest.mark.parametrize("churn_seed", [None, 1])
def test_each_engine_hot_equals_reference(engine, churn_seed):
    """Deterministic per-engine coverage: every engine with a fused
    hot-path pass (MINT's prune+update, TAG's aggregation, FILA's
    monitor+bounds) is held to the reference path individually — the
    property test above samples engine mixes, this pins each one."""
    kwargs = dict(seed=1234, k=2, agg="AVG", engines=[engine],
                  epochs=6, churn_seed=churn_seed)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert run_workload(**kwargs) == reference


def test_all_engines_concurrently_hot_equals_reference():
    """The full five-engine mix sharing one deployment and one clock:
    cross-engine interleaving must not leak between the paths."""
    kwargs = dict(seed=77, k=2, agg="MAX",
                  engines=sorted(QUERY_BY_ENGINE), epochs=5,
                  churn_seed=3)
    with hotpath.reference_path():
        reference = run_workload(**kwargs)
    assert run_workload(**kwargs) == reference


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.05, 0.4),
    payloads=st.lists(st.integers(0, 120), min_size=1, max_size=30),
)
def test_lossy_transport_equivalence(seed, loss, payloads):
    """With a lossy radio both paths draw the same retransmissions from
    the same RNG stream and record identical counters and drops."""

    def ship_all():
        network = Network(grid_topology(3),
                          radio=RadioModel(range_m=20.0,
                                           loss_probability=loss),
                          seed=seed)
        drops = 0
        for index, payload in enumerate(payloads):
            child = network.tree.sensor_ids[
                index % len(network.tree.sensor_ids)]
            try:
                network.send_up(child, ControlMessage(label="x",
                                                      size=payload))
            except Exception:
                drops += 1
        network.advance_epoch()
        return (stats_signature(network.stats), ledger_signature(network),
                drops, network._rng.random())

    with hotpath.reference_path():
        reference = ship_all()
    assert ship_all() == reference


class TestFragmentMemo:
    """Boundary behaviour of the memoized fragment table."""

    def test_zero_byte_message_still_costs_one_frame(self):
        assert fragment_cached(0) == fragment(0)
        assert fragment_cached(0).packets == 1
        assert fragment_cached(0).air_bytes == HEADER_BYTES

    @pytest.mark.parametrize("multiple", [1, 2, 3, 7])
    def test_exact_mtu_multiples(self, multiple):
        payload = PAYLOAD_MTU * multiple
        cost = fragment_cached(payload)
        assert cost == fragment(payload)
        assert cost.packets == multiple
        assert cost.air_bytes == payload + multiple * HEADER_BYTES

    @pytest.mark.parametrize("payload", [1, PAYLOAD_MTU - 1, PAYLOAD_MTU,
                                         PAYLOAD_MTU + 1, 1000])
    def test_memo_matches_reference(self, payload):
        assert fragment_cached(payload) == fragment(payload)

    def test_memo_returns_shared_instances(self):
        assert fragment_cached(42) is fragment_cached(42)

    def test_custom_mtu_keys_separately(self):
        assert fragment_cached(30).packets == 2
        assert fragment_cached(30, 30).packets == 1

    @given(payload=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_memo_equals_reference_everywhere(self, payload):
        assert fragment_cached(payload) == fragment(payload)


class TestReferencePathToggle:
    def test_toggle_restores_on_error(self):
        try:
            with hotpath.reference_path():
                assert not hotpath.enabled()
                raise ValueError("boom")
        except ValueError:
            pass
        assert hotpath.enabled()

    def test_nested_toggle(self):
        with hotpath.reference_path():
            with hotpath.reference_path():
                assert not hotpath.enabled()
            assert not hotpath.enabled()
        assert hotpath.enabled()


class TestPerPurposeRngStreams:
    """Churn recovery must not perturb the loss process (the old
    single-stream design made runs with a topologically-irrelevant
    join diverge from runs without it)."""

    def _monitor_traffic(self, with_join: bool):
        network = Network(grid_topology(3),
                          radio=RadioModel(range_m=20.0,
                                           loss_probability=0.2),
                          seed=7)
        sent = []
        sensor_ids = network.tree.sensor_ids
        for step in range(40):
            if with_join and step == 20:
                # A mote joins in radio range but never transmits any
                # session traffic: the loss outcomes of everything else
                # must be unaffected.
                network.join_node(99, (5.0, 5.0))
            child = sensor_ids[step % len(sensor_ids)]
            before = network.stats.retransmissions
            try:
                network.send_up(child, ControlMessage(label="m"))
                sent.append(network.stats.retransmissions - before)
            except Exception:
                sent.append(-1)
        return sent

    def test_join_does_not_shift_loss_stream(self):
        assert self._monitor_traffic(False) == self._monitor_traffic(True)

    def test_recovery_stream_is_deterministic_and_distinct(self):
        drawn = []
        for _ in range(2):
            network = Network(grid_topology(3), seed=3)
            drawn.append(network._recovery_rng.random())
        assert drawn[0] == drawn[1]
        # The recovery stream is derived from — not equal to — the
        # loss seed; sharing the sequence would re-couple the streams.
        assert random.Random(3).random() != drawn[0]


class TestColumnarEquivalence:
    """The columnar epoch kernel (``repro.network.columnar``) is held
    to the same discipline as the hot path itself: batched sensing,
    the identity-keyed sampling-plan cache and the vectorized Zipf
    jitter must be invisible — same answers, counters, ledgers and RNG
    draws as the scalar path, under either numeric backend."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        engines=st.lists(st.sampled_from(sorted(QUERY_BY_ENGINE)),
                         min_size=1, max_size=3, unique=True),
        churn_seed=st.one_of(st.none(), st.integers(0, 7)),
    )
    def test_columnar_equals_scalar_path(self, seed, engines,
                                         churn_seed):
        kwargs = dict(seed=seed, k=2, agg="AVG", engines=engines,
                      epochs=5, churn_seed=churn_seed)
        with columnar.scalar_path():
            scalar = run_workload(**kwargs)
        assert columnar.enabled(), "scalar_path() must restore the flag"
        assert run_workload(**kwargs) == scalar

    def test_columnar_equals_reference_path(self):
        """Three-way: the columnar kernel, the scalar hot path and the
        unoptimized reference path produce identical observables on
        the full five-engine mix with churn."""
        kwargs = dict(seed=4321, k=2, agg="MAX",
                      engines=sorted(QUERY_BY_ENGINE), epochs=5,
                      churn_seed=2)
        with hotpath.reference_path(), columnar.scalar_path():
            reference = run_workload(**kwargs)
        with columnar.scalar_path():
            scalar = run_workload(**kwargs)
        assert run_workload(**kwargs) == scalar == reference

    def test_python_backend_matches_numpy(self):
        """The pure-python fallback draws the same values as the numpy
        kernel (trivially true when numpy is absent — then both runs
        already use the fallback)."""
        kwargs = dict(seed=99, k=2, agg="SUM",
                      engines=["mint", "fila", "tag"], epochs=5,
                      churn_seed=1)
        default = run_workload(**kwargs)
        with columnar.force_python_backend():
            assert run_workload(**kwargs) == default


class TestZipfColumnarKernel:
    """The benchmark workload itself (shared ZipfEventField, hashed
    jitter, FILA MAX) is equivalence-tested here at unit scale so the
    proof doesn't live only inside ``measure_columnar``."""

    @staticmethod
    def _stream():
        from repro.perf import columnar_fleet

        session, network = columnar_fleet(64, seed=5)
        results = [
            (r.epoch, tuple(r.items), r.exact, dict(r.all_bounds))
            for r in session.run(8)
        ]
        joules = sum(n.ledger.total for n in network.nodes.values())
        samples = sum(n.samples_taken for n in network.nodes.values())
        return results, joules, samples

    def test_all_modes_identical(self):
        default = self._stream()
        with columnar.scalar_path():
            scalar = self._stream()
        with columnar.force_python_backend():
            fallback = self._stream()
        assert default == scalar
        assert default == fallback


class TestScalarPathToggle:
    def test_toggle_restores_on_error(self):
        try:
            with columnar.scalar_path():
                assert not columnar.enabled()
                raise ValueError("boom")
        except ValueError:
            pass
        assert columnar.enabled()

    def test_nested_toggle(self):
        with columnar.scalar_path():
            with columnar.scalar_path():
                assert not columnar.enabled()
            assert not columnar.enabled()
        assert columnar.enabled()


class TestEventsimEquivalence:
    """The discrete-event shipping core (``repro.network.eventsim``) in
    zero-delay mode is held to the same discipline as the other two
    switches: posting deliveries onto the event queue and draining it
    at the post site must be invisible — same answers, counters,
    per-phase snapshots, ledgers and RNG draws as the inline ship
    path, engine receive handlers included."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        engines=st.lists(st.sampled_from(sorted(QUERY_BY_ENGINE)),
                         min_size=1, max_size=3, unique=True),
        churn_seed=st.one_of(st.none(), st.integers(0, 7)),
    )
    def test_event_core_equals_inline_ship(self, seed, engines,
                                           churn_seed):
        kwargs = dict(seed=seed, k=2, agg="AVG", engines=engines,
                      epochs=5, churn_seed=churn_seed)
        inline = run_workload(**kwargs)
        assert not eventsim.enabled(), "the event core defaults off"
        with eventsim.event_core():
            assert eventsim.enabled()
            event = run_workload(**kwargs)
        assert not eventsim.enabled(), "event_core() must restore the flag"
        assert event == inline

    def test_event_core_equals_reference_path(self):
        """Four-way: the event core, the inline hot path, the columnar
        scalar path and the unoptimized reference path all produce
        identical observables on the full five-engine mix with churn
        (the whole switch stack collapses to one behaviour)."""
        kwargs = dict(seed=4321, k=2, agg="MAX",
                      engines=sorted(QUERY_BY_ENGINE), epochs=5,
                      churn_seed=2)
        with hotpath.reference_path(), columnar.scalar_path():
            reference = run_workload(**kwargs)
        with eventsim.inline_ship():
            inline = run_workload(**kwargs)
        with eventsim.event_core():
            event = run_workload(**kwargs)
        assert event == inline == reference

    def test_event_core_requires_hot_path(self):
        """Stacking: ``reference_path()`` disables the event core too,
        so the oracle at the bottom of the stack stays pristine."""
        with eventsim.event_core():
            assert eventsim.enabled()
            with hotpath.reference_path():
                assert not eventsim.enabled()
            assert eventsim.enabled()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        loss=st.floats(0.05, 0.4),
        payloads=st.lists(st.integers(0, 120), min_size=1, max_size=30),
    )
    def test_lossy_zero_delay_equivalence(self, seed, loss, payloads):
        """With a lossy radio the zero-delay event core consumes the
        same RNG stream as the inline path: same retransmissions, same
        drops surfaced to the sender, same counters."""

        def ship_all():
            network = Network(grid_topology(3),
                              radio=RadioModel(range_m=20.0,
                                               loss_probability=loss),
                              seed=seed)
            drops = 0
            for index, payload in enumerate(payloads):
                child = network.tree.sensor_ids[
                    index % len(network.tree.sensor_ids)]
                try:
                    network.send_up(child, ControlMessage(label="x",
                                                          size=payload))
                except Exception:
                    drops += 1
            network.advance_epoch()
            return (stats_signature(network.stats),
                    ledger_signature(network),
                    drops, network._rng.random())

        inline = ship_all()
        with eventsim.event_core():
            assert ship_all() == inline


class TestEventCoreToggle:
    def test_toggle_restores_on_error(self):
        assert not eventsim.enabled()
        try:
            with eventsim.event_core():
                assert eventsim.enabled()
                raise ValueError("boom")
        except ValueError:
            pass
        assert not eventsim.enabled()

    def test_nested_toggle(self):
        with eventsim.event_core():
            with eventsim.inline_ship():
                assert not eventsim.enabled()
            assert eventsim.enabled()
        assert not eventsim.enabled()


class PerHopNetwork(Network):
    """The relay loop the path kernel replaces: one
    :meth:`Network._ship_unicast` per hop."""

    def _relay_lossless(self, senders, receivers, message):
        for sender, receiver in zip(senders, receivers):
            self._ship_unicast(sender, receiver, message.kind,
                               message.payload_bytes)
        return len(senders)


#: One relay: (upward?, index into sink + sensors, payload bytes).
#: Index 0 is the sink itself, the zero-hop path.
_RELAYS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 24), st.integers(0, 120)),
    min_size=1, max_size=25)


def relay_all(relays, *, network_class=Network, loss=0.0, seed=0):
    """Relay every message to / from the sink on a 5×5 grid inside an
    open session tap, alternating two stats phases; returns every
    observable plus the hop counts, drops and event count."""
    network = network_class(
        grid_topology(5),
        radio=RadioModel(range_m=15.0, loss_probability=loss), seed=seed)
    targets = (network.sink_id, *network.tree.sensor_ids)
    tap = NetworkStats()
    hops, drops = [], 0
    with network.tap_stats(tap):
        for index, (upward, target, payload) in enumerate(relays):
            node_id = targets[target % len(targets)]
            message = ControlMessage(label="relay", size=payload)
            with network.stats.phase("update" if index % 2 else "probe"):
                try:
                    if upward:
                        hops.append(network.unicast_to_sink(node_id, message))
                    else:
                        hops.append(network.unicast_from_sink(node_id,
                                                              message))
                except RoutingError:
                    drops += 1
    network.advance_epoch()
    return ((stats_signature(network.stats), stats_signature(tap),
             ledger_signature(network), hops, drops, network._rng.random()),
            network.events_processed)


class TestPathRelayKernel:
    """``unicast_to_sink`` / ``unicast_from_sink`` ship a lossless relay
    over its whole tree path in one call. Per-node ledgers, by_kind,
    by_phase, totals and an open tap must equal both the per-hop
    ``_ship_unicast`` loop and the reference path's ``_ship`` per hop
    (the latter catches a sender/receiver swap, which the per-hop
    oracle would share with the kernel)."""

    @settings(max_examples=40, deadline=None)
    @given(relays=_RELAYS)
    def test_kernel_equals_per_hop_and_reference(self, relays):
        kernel, _ = relay_all(relays)
        per_hop, _ = relay_all(relays, network_class=PerHopNetwork)
        with hotpath.reference_path():
            reference, _ = relay_all(relays)
        assert kernel == per_hop == reference

    def test_zero_hop_path_records_nothing(self):
        network = Network(grid_topology(3))
        message = ControlMessage(label="relay")
        assert network.unicast_to_sink(network.sink_id, message) == 0
        assert network.unicast_from_sink(network.sink_id, message) == 0
        assert network._pending_traffic == {}
        assert (stats_signature(network.stats)
                == stats_signature(Network(grid_topology(3)).stats))

    @settings(max_examples=20, deadline=None)
    @given(relays=_RELAYS, seed=st.integers(0, 10_000),
           loss=st.floats(0.05, 0.4))
    def test_lossy_radio_falls_back_per_hop(self, relays, seed, loss):
        """Lossy radios keep the per-hop loop: the same retransmission
        draws from the same loss stream as the reference path."""
        hot, _ = relay_all(relays, loss=loss, seed=seed)
        with hotpath.reference_path():
            reference, _ = relay_all(relays, loss=loss, seed=seed)
        assert hot == reference

    @settings(max_examples=15, deadline=None)
    @given(relays=_RELAYS)
    def test_event_core_falls_back_per_hop(self, relays):
        """Under the event core every hop is still posted as its own
        event (no kernel), with inline-identical observables."""
        inline, inline_events = relay_all(relays)
        with eventsim.event_core():
            event, events = relay_all(relays)
        assert event == inline
        assert inline_events == 0
        assert events == sum(event[3])


class TestSamplingPlanSharing:
    """Concurrent sessions over every alive sensor read the network's
    alive tuple itself, so the columnar sampling plan is built once per
    topology version, not once per session per epoch."""

    MONITOR_QUERIES = (
        "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
        "GROUP BY roomid EPOCH DURATION 1 min",
        "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
        "GROUP BY roomid EPOCH DURATION 1 min",
        "SELECT TOP 3 roomid, SUM(sound) FROM sensors "
        "GROUP BY roomid EPOCH DURATION 1 min",
        "SELECT TOP 1 roomid, MIN(sound) FROM sensors "
        "GROUP BY roomid EPOCH DURATION 1 min",
    )
    HISTORIC_QUERY = ("SELECT TOP 3 epoch, AVG(sound) FROM sensors "
                      "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s")

    def test_one_plan_per_topology_version(self, monkeypatch):
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=3)
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment, stop_when_idle=False)
        for query in self.MONITOR_QUERIES:
            deployment.submit(query)
        historic = deployment.submit(self.HISTORIC_QUERY)
        built = []
        original = Network._build_sampling_plan

        def counting(network, node_ids, attribute):
            built.append((network._topo_version, attribute))
            return original(network, node_ids, attribute)

        monkeypatch.setattr(Network, "_build_sampling_plan", counting)
        driver.step()  # creation epoch: plans may be built here
        built.clear()
        executions = 0
        for _ in range(20):
            driver.step()
            if historic.historic_result is not None:
                executions += 1
                historic = deployment.submit(self.HISTORIC_QUERY)
        assert executions >= 2, "TJA must cycle through its window"
        assert len(built) <= len(set(built))


class _Counting:
    """Stands in for a wire class inside an engine module: counts
    constructions and forwards attribute reads (``kind``,
    ``wire_size``) to the real class."""

    def __init__(self, cls, counts):
        self._cls = cls
        self._counts = counts

    def __call__(self, *args, **kwargs):
        self._counts[self._cls.__name__] += 1
        return self._cls(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class TestNoWireObjectsOnHotPath:
    """The fused MINT update and probe passes and TAG's aggregation
    pass ship each edge's kind and wire size: after the creation epoch
    no hot epoch builds a ViewUpdateMessage, ProbeReplyMessage or
    ViewEntry. The reference path still builds every message."""

    WIRE_NAMES = ("ViewUpdateMessage", "ProbeReplyMessage", "ViewEntry")
    #: SUM with slack 0 leaves the top room ambiguous: MINT probes.
    QUERY = ("SELECT TOP 1 roomid, SUM(sound) FROM sensors "
             "GROUP BY roomid EPOCH DURATION 1 min")

    def constructions(self, monkeypatch):
        from repro.core import mint, tag
        from repro.core.mint import MintConfig

        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=1)
        deployment = Deployment.from_scenario(
            scenario, mint_config=MintConfig(slack=0))
        driver = EpochDriver(deployment)
        handle = deployment.submit(self.QUERY)
        deployment.submit(self.QUERY, algorithm=Algorithm.TAG)
        driver.step()  # creation epoch: full views are built here
        counts = Counter()
        for module in (mint, tag):
            for name in self.WIRE_NAMES:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _Counting(
                        getattr(module, name), counts))
        driver.run(10)
        assert sum(r.probed for r in handle.results[1:]) == 10
        return counts

    @pytest.mark.parametrize("event_core", [False, True])
    def test_hot_epochs_build_no_wire_objects(self, monkeypatch,
                                              event_core):
        with eventsim.event_core() if event_core else nullcontext():
            counts = self.constructions(monkeypatch)
        assert not counts

    def test_reference_path_still_builds_them(self, monkeypatch):
        with hotpath.reference_path():
            counts = self.constructions(monkeypatch)
        assert set(counts) == set(self.WIRE_NAMES)

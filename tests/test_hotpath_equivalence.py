"""The optimized hot path is observationally identical to the
reference path.

The epoch loop's performance work (memoized fragment costs, cached
payload sizes, per-epoch traffic batching, topology caches, the fused
MINT update pass — see ``repro.network.hotpath``) must be *invisible*:
same answers, same :class:`~repro.network.stats.NetworkStats` counters
bit-for-bit, same per-phase snapshots, same energy ledgers, same RNG
consumption. These property tests drive random scenarios, ranks,
engines and churn schedules through both paths and compare everything.
A deployment's path is fixed when its network is built, so every
comparison builds its reference side inside
``hotpath.reference_path()`` and checks, through
:func:`helpers.on_both_paths`, that each side really ran its path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fill_windows, make_series, on_both_paths
from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.core.aggregates import AvgAggregate, Partial, make_aggregate
from repro.core.mint import QUIET_EPOCHS, Mint, MintConfig
from repro.core.participants import Participants
from repro.core.results import is_valid_top_k, oracle_scores
from repro.core.tja import Tja, aligned_rows
from repro.errors import (
    ConfigurationError,
    KSpotError,
    ProtocolError,
    RoutingError,
    StorageError,
    TopologyError,
    ValidationError,
)
from repro.network import columnar, hotpath, simulator
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.network.link import RadioModel
from repro.network.messages import (
    ControlMessage,
    FilterReportMessage,
    ProbeRequestMessage,
    QueryMessage,
    ViewEntry,
)
from repro.network.packets import HEADER_BYTES
from repro.network.simulator import Network
from repro.network.stats import NetworkStats
from repro.network.topology import grid_topology
from repro.network.tree import RoutingTree
from repro.query.plan import Algorithm
from repro.scenarios import grid_rooms_scenario
from repro.sensing.board import SensorBoard
from repro.sensing.generators import ConstantField, TableField, ZipfEventField


def stats_signature(stats):
    """Every observable of a NetworkStats ledger, as comparable data:
    its totals, every counter (``NetworkStats._counters``: per kind the
    messages, packets, payload and air bytes, then the joules,
    retransmissions and drops) and its phases."""
    return stats.summary(), stats._counters(), dict(stats.by_phase)


def sent(signature, kind):
    """Messages of ``kind`` in a :func:`stats_signature`."""
    return signature[1][0].get(kind, (0,))[0]


def ledger_signature(network):
    return {
        node_id: (ledger.tx, ledger.rx, ledger.sensing, ledger.idle)
        for node_id, ledger in sorted(
            (i, network.ledger(i))
            for i in (network.sink_id, *network.tree.sensor_ids))
    }


def windows_signature(network):
    """Every mote's booked history: its sample count and, per
    attribute, its window's raw columns, each value by ``repr`` so an
    int booked as a float (or a float as a numpy scalar) differs. An
    empty window holds no booking: a hot sampling plan sets up each
    mote's window before its batch books, so one that stopped at a
    refused mote leaves empty windows behind it."""
    return {
        node_id: (node.samples_taken, {
            attribute: (window.epochs.tolist(),
                        list(map(repr, window.values)))
            for attribute, window in node._windows.items()
            if window.epochs})
        for node_id, node in sorted(network.nodes.items())
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
    "mint-window": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
                    "GROUP BY roomid WITH HISTORY 3 s EPOCH DURATION 1 s",
                    None),
    "tag": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min", Algorithm.TAG),
    "tag-where": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
                  "WHERE sound > 40 GROUP BY roomid EPOCH DURATION 1 min",
                  Algorithm.TAG),
    "centralized": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
                    "GROUP BY roomid EPOCH DURATION 1 min",
                    Algorithm.CENTRALIZED),
    "fila": ("SELECT TOP {k} nodeid, {agg}(sound) FROM sensors "
             "GROUP BY nodeid EPOCH DURATION 1 min", Algorithm.FILA),
    "naive": ("SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
              "GROUP BY roomid EPOCH DURATION 1 min", Algorithm.NAIVE),
    "tja": ("SELECT TOP {k} epoch, {agg}(sound) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s", None),
    "tput": ("SELECT TOP {k} epoch, {agg}(sound) FROM sensors "
             "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s",
             Algorithm.TPUT),
}


def int_board(node_ids, seed):
    """One clamp-only board (``quantize=False``) replaying seeded
    integer sound readings, some outside the channel's 0-100 range, so
    a path that books an in-range int as a float shows in
    :func:`windows_signature`."""
    draw = random.Random(seed)
    table = [{node_id: draw.randint(-10, 110) for node_id in node_ids}
             for _ in range(8)]
    return SensorBoard({"sound": TableField(table, cycle=True)},
                       quantize=False)


def build_workload(*, seed, k, agg, engines, churn_seed, loss=0.0,
                   ints=False):
    """One deterministic deployment with its sessions submitted; returns
    ``(driver, handles, network)``. A non-zero ``loss`` deploys it over
    a lossy radio whose retry budget no packet exhausts; ``ints`` swaps
    every board, a churn newborn's too, for :func:`int_board`."""
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    board_for = scenario.board_for
    if loss or ints:
        wired = scenario.network
        boards = {i: node.board for i, node in wired.nodes.items()}
        if ints:
            board = int_board((*boards, 99), seed)
            boards = dict.fromkeys(boards, board)

            def board_for(node_id):
                return board
        scenario = dataclasses.replace(scenario, network=Network(
            wired.topology,
            radio=RadioModel(range_m=wired.topology.radio_range,
                             loss_probability=loss, max_retries=20)
            if loss else None,
            boards=boards, group_of=scenario.group_of, seed=seed))
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
            ChurnIntervention(schedule, board_for=board_for))
    driver = EpochDriver(deployment, interventions=interventions)
    handles = []
    for engine in engines:
        template, algorithm = QUERY_BY_ENGINE[engine]
        # TPUT ranks by SUM: ``submit`` refuses it over MAX or MIN.
        ranked = "SUM" if engine == "tput" and agg in ("MAX", "MIN") else agg
        query = template.format(k=k, agg=ranked)
        handles.append(deployment.submit(query, algorithm=algorithm))
    return driver, handles, scenario.network


def observe(handles, network):
    """Every observable of a running workload, by field name."""
    return {
        "answers": [answers_of(h) for h in handles],
        "stats": stats_signature(network.stats),
        "taps": [stats_signature(h.stats) for h in handles],
        "ledgers": ledger_signature(network),
        "windows": windows_signature(network),
        "epoch": network.epoch,
        "states": [h.state.value for h in handles],
    }


def run_workload(*, epochs, **workload):
    """One deterministic run; returns every observable as plain data."""
    driver, handles, network = build_workload(**workload)
    driver.run(epochs)
    return observe(handles, network)


#: The mode matrix's legs: (name, built inside ``reference_path()``,
#: stepped on the pure-python column backend).
LEGS = (("reference", True, False), ("numpy", False, False),
        ("python", False, True))


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
    loss=st.sampled_from([0.0, 0.1]),
    ints=st.booleans(),
)
def test_hot_path_equals_reference_path(seed, k, agg, engines, epochs,
                                        churn_seed, loss, ints):
    """The mode matrix: one deployment built on the reference path, one
    hot on numpy and one hot on the pure-python backend, stepped
    interleaved, epoch by epoch, in one process. After every epoch the
    answers, every stats counter and phase, session taps, energy
    ledgers and booked windows (each value by ``repr``) are identical —
    bit-for-bit — across random scenarios, ranks, aggregates, engine
    mixes, churn schedules, radios and board kinds (the scenario's
    field, or clamp-only boards of integer readings). A lossy radio
    runs the reference path on every leg."""
    workload = dict(seed=seed, k=k, agg=agg, engines=engines,
                    churn_seed=churn_seed, loss=loss, ints=ints)
    legs = {}
    for name, reference, python in LEGS:
        with contextlib.ExitStack() as modes:
            if reference:
                modes.enter_context(hotpath.reference_path())
            if python:
                modes.enter_context(columnar.force_python_backend())
            legs[name] = build_workload(**workload)
        assert legs[name][2].hot is (not reference and not loss), name
    for epoch in range(epochs):
        if not legs["reference"][0].deployment.active_sessions():
            break
        seen = {}
        for name, _, python in LEGS:
            driver, handles, network = legs[name]
            with (columnar.force_python_backend() if python
                  else contextlib.nullcontext()):
                driver.step()
            seen[name] = observe(handles, network)
        for name in ("numpy", "python"):
            for field, expected in seen["reference"].items():
                assert seen[name][field] == expected, (
                    f"epoch {epoch}: {field} differs on the {name} leg")


@pytest.mark.parametrize("engine", ["mint", "tag", "fila"])
@pytest.mark.parametrize("churn_seed", [None, 1])
def test_each_engine_hot_equals_reference(engine, churn_seed):
    """Deterministic per-engine coverage: every engine with a fused
    hot-path pass (MINT's prune+update, TAG's aggregation, FILA's
    monitor+bounds) is held to the reference path individually — the
    property test above samples engine mixes, this pins each one."""
    hot, reference = on_both_paths(
        run_workload, seed=1234, k=2, agg="AVG", engines=[engine],
        epochs=6, churn_seed=churn_seed)
    assert hot == reference


def test_all_engines_concurrently_hot_equals_reference():
    """Every engine in one mix sharing one deployment and one clock:
    cross-engine interleaving must not leak between the paths."""
    hot, reference = on_both_paths(
        run_workload, seed=77, k=2, agg="MAX",
        engines=sorted(QUERY_BY_ENGINE), epochs=5, churn_seed=3)
    assert hot == reference


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.05, 0.4),
    payloads=st.lists(st.integers(0, 120), min_size=1, max_size=30),
)
def test_lossy_transport_equivalence(seed, loss, payloads):
    """A lossy radio runs the reference path whatever the default, so a
    network built under the hot default draws the same retransmissions
    from the same RNG stream, and records the same counters and drops,
    as one built inside ``reference_path()``."""

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

    hot, reference = on_both_paths(ship_all)
    assert hot == reference


class TestFragmentMemo:
    """Boundary behaviour of the per-network lossless cost memo
    (``Network._cost_memo``) that the hot kernels read in place of
    :func:`~repro.network.packets.fragment`."""

    def test_zero_byte_message_still_costs_one_frame(self):
        """A zero-byte message charged through the memo costs one
        header-only frame, exactly as the reference ``_ship`` charges it."""
        hot = Network(grid_topology(3))
        with hotpath.reference_path():
            reference = Network(grid_topology(3))
        assert hot.hot and not reference.hot
        child = hot.tree.sensor_ids[0]
        hot.ship_edges("control", [(child, hot.tree.parent(child), 0)])
        reference.send_up(child, ControlMessage(label="x", size=0))
        for network in (hot, reference):
            assert network.stats.packets == 1
            assert network.stats.air_bytes == HEADER_BYTES
        assert stats_signature(hot.stats) == stats_signature(reference.stats)
        assert ledger_signature(hot) == ledger_signature(reference)


#: Converge-cast passes: each edge is (index into the 24 sensors of a
#: 5×5 grid, payload bytes), the sensor sending to its tree parent.
_PASSES = st.lists(
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 120)),
             max_size=30),
    min_size=1, max_size=6)


def ship_passes(passes):
    """Ship every pass on a 5×5 grid, alternating two stats phases: a
    hot network ships each pass in one ``ship_edges`` call, a reference
    one edge by edge through ``send_up``. Returns every observable."""
    network = Network(grid_topology(5))
    sensors = network.tree.sensor_ids
    parent = network.tree.parent
    for index, edges in enumerate(passes):
        edges = [(sensors[i], parent(sensors[i]), size) for i, size in edges]
        with network.stats.phase("update" if index % 2 else "probe"):
            if network.hot:
                network.ship_edges("control", edges)
                continue
            for sender, _, size in edges:
                network.send_up(sender, ControlMessage(label="x", size=size))
    return stats_signature(network.stats), ledger_signature(network)


class TestShipEdges:
    """``Network.ship_edges`` ships a whole converge-cast pass in one
    call. Per-node ledgers, by_kind, by_phase and totals must equal the
    reference path's ``send_up`` per edge, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(passes=_PASSES)
    def test_one_call_per_pass_equals_send_up_per_edge(self, passes):
        hot, reference = on_both_paths(ship_passes, passes)
        assert hot == reference

    def test_empty_pass_records_nothing(self):
        network = Network(grid_topology(3))
        network.ship_edges("control", [])
        assert (stats_signature(network.stats)
                == stats_signature(Network(grid_topology(3)).stats))

    def test_lossy_radio_is_refused(self):
        """Every edge takes one attempt, so ``ship_edges`` refuses a
        lossy radio, charging nothing."""
        network = Network(grid_topology(3),
                          radio=RadioModel(range_m=15.0,
                                           loss_probability=0.1))
        child = network.tree.sensor_ids[0]
        with pytest.raises(ConfigurationError):
            network.ship_edges("control",
                               [(child, network.tree.parent(child), 8)])
        assert network.stats.messages == 0
        assert network.ledger(child).tx == 0


def built_hot():
    """Whether a network built here runs the hot path."""
    return Network(grid_topology(2)).hot


class TestReferencePathToggle:
    def test_toggle_restores_on_error(self):
        try:
            with hotpath.reference_path():
                assert not built_hot()
                raise ValueError("boom")
        except ValueError:
            pass
        assert built_hot()

    def test_nested_toggle(self):
        with hotpath.reference_path():
            with hotpath.reference_path():
                assert not built_hot()
            assert not built_hot()
        assert built_hot()

    def test_path_is_fixed_when_the_network_is_built(self, monkeypatch):
        """A deployment built outside ``reference_path()`` stays hot when
        stepped inside it, one built inside stays on the reference path
        after it, and only the hot one enters the flood kernel. Both
        answer alike. A lossy radio is never hot."""
        flooded = []
        kernel = Network._flood_lossless

        def recording(network, message):
            flooded.append(network)
            return kernel(network, message)

        monkeypatch.setattr(Network, "_flood_lossless", recording)
        hot_run = build_workload(seed=5, k=2, agg="AVG", engines=["mint"],
                                 churn_seed=None)
        with hotpath.reference_path():
            reference_run = build_workload(seed=5, k=2, agg="AVG",
                                           engines=["mint"], churn_seed=None)
        for _ in range(3):
            with hotpath.reference_path():
                hot_run[0].step()
            reference_run[0].step()
        assert hot_run[2].hot and not reference_run[2].hot
        assert flooded and set(map(id, flooded)) == {id(hot_run[2])}
        assert observe(*hot_run[1:]) == observe(*reference_run[1:])
        lossy = RadioModel(range_m=20.0, loss_probability=0.1)
        assert not Network(grid_topology(2), radio=lossy).hot


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
    """The columnar kernel's batch sensing (``repro.network.columnar``)
    runs whenever the hot path does, so the reference-path proofs above
    cover it; this class pins one more all-engine churn case and adds
    the backend split: the pure-python fallback (list sensing, the
    per-hop relay loop) must give the numpy kernel's answers,
    counters, ledgers and RNG draws."""

    def test_columnar_equals_reference_path(self):
        """The columnar kernel and the unoptimized reference path
        produce identical observables on the all-engine mix with
        churn."""
        hot, reference = on_both_paths(
            run_workload, seed=4321, k=2, agg="MAX",
            engines=sorted(QUERY_BY_ENGINE), epochs=5, churn_seed=2)
        assert hot == reference

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


needs_numpy = pytest.mark.skipif(columnar.numpy_module() is None,
                                 reason="the relay scatter runs on numpy")


def zipf_fila_fleet(side=8, seed=5, radio=None, loss_seed=0, k=25):
    """A ``side``² grid in 16 block rooms over one shared
    :class:`~repro.sensing.generators.ZipfEventField`, monitored by a
    FILA MAX top-``k`` session; returns ``(session, network)``.

    Every mote samples the same batch-capable field, so one
    ``batch_values`` call (and one ``hash01_column`` jitter draw)
    covers the fleet. ``margin=8.0 >= jitter`` keeps the room levels
    off the ``[lo, hi]`` rails, so readings stay distinct and FILA's
    filters go quiet. ``radio`` and ``loss_seed`` set the network's
    link model and loss stream.
    """
    from repro.core.aggregates import make_aggregate
    from repro.core.fila import Fila
    from repro.sensing.board import SensorBoard
    from repro.sensing.generators import ZipfEventField

    topology = grid_topology(side, spacing=10.0, radio_range=15.0)
    block = max(1, side // 4)
    room_of = {}
    for node_id in range(1, side * side + 1):
        row, col = divmod(node_id - 1, side)
        room_of[node_id] = f"R{min(row // block, 3)}{min(col // block, 3)}"
    zipf = ZipfEventField(room_of, lo=0.0, hi=100.0, skew=2.0,
                          jitter=6.0, seed=seed, margin=8.0)
    boards = {i: SensorBoard({"sound": zipf}) for i in room_of}
    network = Network(topology, radio=radio, boards=boards,
                      group_of=room_of, seed=loss_seed)
    session = Fila(network, make_aggregate("MAX", 0.0, 100.0), k,
                   attribute="sound")
    return session, network


class TestZipfColumnarKernel:
    """FILA over a shared Zipf field: the one workload that drives the
    vectorized jitter (``hash01_column``) and FILA's batched monitor,
    probe and install passes end to end, held to the reference path
    and to the pure-python backend: each epoch's answer and FILA's
    ``known`` and ``filters`` after it, which with the readings fix
    every mote's interval."""

    @staticmethod
    def _stream():
        session, network = zipf_fila_fleet()
        results = []
        for _ in range(8):
            r = session.run_epoch()
            results.append((r.epoch, tuple(r.items), r.exact,
                            dict(session.known), dict(session.filters)))
        joules = sum(n.ledger.total for n in network.nodes.values())
        samples = sum(n.samples_taken for n in network.nodes.values())
        return results, joules, samples

    def test_all_modes_identical(self):
        default, reference = on_both_paths(self._stream)
        with columnar.force_python_backend():
            fallback = self._stream()
        assert default == reference
        assert default == fallback


class TestLossyFilaStepsOnAfterADrop:
    """A drop mid-pass aborts FILA's epoch; the session then steps on.
    A lossy radio runs the reference path whatever the default, so a
    deployment built under the hot default must equal one built inside
    ``reference_path()``: answers, stats and per-node ledgers after 25
    steps with drops, and FILA's ``known`` and ``filters`` after every
    step."""

    STEPS = 25

    def run(self, seed):
        session, network = zipf_fila_fleet(
            radio=RadioModel(range_m=15.0, loss_probability=0.06,
                             max_retries=2),
            loss_seed=seed)
        results, states, drops = [], [], 0
        for _ in range(self.STEPS):
            try:
                result = session.run_epoch()
            except RoutingError:
                drops += 1
            else:
                results.append((result.epoch, result.exact, result.probed,
                                tuple(result.items)))
            states.append((dict(session.known), dict(session.filters)))
        return (results, drops, stats_signature(network.stats),
                ledger_signature(network), states)

    @pytest.mark.parametrize("seed", range(12))
    def test_hot_equals_reference(self, seed):
        hot, reference = on_both_paths(self.run, seed)
        assert hot[1] >= 1, "the radio must drop somewhere"
        for field, h, r in zip(("results", "drops", "stats", "ledgers"),
                               hot, reference):
            assert h == r, field
        for step, (h, r) in enumerate(zip(hot[4], reference[4])):
            assert h == r, f"known and filters after step {step}"


def fila_workload_scenario(side=20, seed=11):
    """The ``fila`` benchmark workload's deployment: ``side``² motes on
    a grid, mote ``i`` in cluster ``i % 16`` (16 interleaved clusters),
    over one Zipf event field (skew 2, jitter 6, margin 8)."""
    from repro.scenarios import Scenario
    from repro.sensing.board import SensorBoard
    from repro.sensing.generators import ZipfEventField

    topology = grid_topology(side, spacing=10.0, radio_range=15.0)
    cluster_of = {node_id: f"C{node_id % 16:02d}"
                  for node_id in range(1, side * side + 1)}
    field = ZipfEventField(cluster_of, lo=0.0, hi=100.0, skew=2.0,
                           jitter=6.0, seed=seed, margin=8.0)
    boards = {node_id: SensorBoard({"sound": field})
              for node_id in cluster_of}
    network = Network(topology, boards=boards, group_of=cluster_of)
    return Scenario(network=network, group_of=cluster_of,
                    attribute="sound", field=field)


class TestFilaAtFleetScale:
    """FILA at the ``fila`` workload's shape: 400 motes in 16
    interleaved Zipf clusters, ``TOP 200``, so every epoch reports,
    probes and reinstalls filters by the hundred. Through one relay's
    death and one mote's birth, after every epoch the answers (with
    their certification), stats by kind and phase, the session tap,
    per-node ledgers and FILA's ``known`` and ``filters`` must equal
    the reference path's, on either column backend."""

    EPOCHS = 10
    QUERY = ("SELECT TOP 200 nodeid, MAX(sound) FROM sensors "
             "GROUP BY nodeid EPOCH DURATION 1 min")
    FIELDS = ("answer", "stats", "tap", "ledgers", "known", "filters")

    def run(self):
        scenario = fila_workload_scenario()
        network = scenario.network
        tree = network.tree
        # A relay whose subtree must re-home when it dies.
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 3 and len(tree.subtree(n)) > 10)
        x, y = network.topology.positions[victim]
        group = scenario.group_of[victim]
        scenario.field.enroll(401, group)
        schedule = ChurnSchedule([
            ChurnEvent(3, ChurnKind.DEATH, victim),
            ChurnEvent(6, ChurnKind.BIRTH, 401, position=(x + 2.0, y + 2.0),
                       group=group),
        ])
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment, interventions=[
            ChurnIntervention(schedule, board_for=scenario.board_for)])
        handle = deployment.submit(self.QUERY, algorithm=Algorithm.FILA)
        fila = handle._session.engine.algorithm
        epochs = []
        for _ in range(self.EPOCHS):
            driver.step()
            result = handle.results[-1]
            epochs.append((
                (result.epoch, result.exact, result.probed,
                 tuple((i.key, i.score, i.lb, i.ub) for i in result.items),
                 certification_signature(result.certification)),
                stats_signature(network.stats),
                stats_signature(handle.stats),
                ledger_signature(network),
                dict(fila.known),
                dict(fila.filters),
            ))
        return epochs

    @pytest.mark.parametrize("backend", ["default", "python"])
    def test_hot_equals_reference_every_epoch(self, backend):
        with (columnar.force_python_backend() if backend == "python"
              else contextlib.nullcontext()):
            with scatter_spy() as scatters:
                hot, reference = on_both_paths(self.run)
        # FILA's passes relay by the hundred, so on numpy they scatter.
        if columnar.backend() == "numpy" and backend == "default":
            assert len(scatters) >= self.EPOCHS and None not in scatters
        else:
            assert scatters == []
        for epoch, (h, r) in enumerate(zip(hot, reference)):
            for field, hot_value, reference_value in zip(self.FIELDS, h, r):
                assert hot_value == reference_value, \
                    f"epoch {epoch}: {field}"
        final_stats = hot[-1][2]
        assert min(sent(final_stats, "filter_report"),
                   sent(final_stats, "filter_update"),
                   sent(final_stats, "probe_request")) > 1000, final_stats
        assert 401 in hot[-1][4], "the newborn must report"


class TestFilaAcrossFlips:
    """One FILA deployment whose column backend flips between epochs: a
    10×10 Zipf fleet, ``TOP 20``, and a relay that dies mid-run with
    the tree repaired. Each epoch's answer, network totals and FILA's
    ``known`` and ``filters`` must equal a run on the reference path
    throughout, whatever backend ran the epochs before it. (The
    execution path is fixed when the network is built, so it cannot
    flip.)"""

    EPOCHS = 12
    DEATH = 6
    #: Epoch → pure-python backend?
    FLIPS = {"backend-every-epoch": lambda epoch: epoch % 2 == 1}

    def run(self, flip):
        session, network = zipf_fila_fleet(side=10, k=20)
        network.subscribe(session.handle_topology_event)
        tree = network.tree
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 2 and len(tree.subtree(n)) > 3)
        epochs = []
        for epoch in range(self.EPOCHS):
            with (columnar.force_python_backend() if flip(epoch)
                  else contextlib.nullcontext()):
                if epoch == self.DEATH:
                    network.kill_node(victim)
                result = session.run_epoch()
            epochs.append((
                (result.epoch, result.exact, result.probed,
                 tuple(result.items)),
                network.stats.summary(),
                (dict(session.known), dict(session.filters)),
            ))
        return epochs

    @pytest.mark.parametrize("flips", [
        pytest.param("backend-every-epoch", marks=needs_numpy),
    ])
    def test_every_epoch_equals_the_reference_path(self, flips):
        flipped, reference = on_both_paths(self.run, self.FLIPS[flips])
        for epoch, (f, r) in enumerate(zip(flipped, reference)):
            assert f[0] == r[0], f"epoch {epoch}: answer"
            assert f[1] == r[1], f"epoch {epoch}: network totals"
            assert f[2] == r[2], f"epoch {epoch}: known and filters"
        assert any(result[2] for result, _, _ in reference), \
            "FILA must probe"


class TestReadManyErrorPath:
    """A tuple holding a node without a ``sound`` channel cannot be
    planned, so the hot path takes the reference walk: it raises the
    same error after sampling the same nodes ahead of the bad one."""

    @staticmethod
    def _read_bad_tuple(bad_channels):
        from repro.sensing.board import SensorBoard
        from repro.sensing.generators import UniformRandomField

        field = UniformRandomField(0.0, 100.0, seed=3)
        boards = {i: SensorBoard({"sound": field}) for i in range(1, 17)}
        if bad_channels is None:
            del boards[9]
        else:
            boards[9] = SensorBoard({name: field for name in bad_channels})
        network = Network(grid_topology(4), boards=boards)
        ids = tuple(range(1, 17))
        with pytest.raises(KSpotError) as raised:
            network.read_many(ids, "sound")
        samples = {i: network.node(i).samples_taken for i in ids}
        sensing = {i: network.ledger(i).sensing for i in ids}
        return type(raised.value), str(raised.value), samples, sensing

    @pytest.mark.parametrize("bad_channels, error", [
        (None, ConfigurationError),
        (("light",), ValidationError),
    ], ids=["board-less", "channel-less"])
    def test_hot_equals_reference(self, bad_channels, error):
        hot, reference = on_both_paths(self._read_bad_tuple, bad_channels)
        assert hot == reference
        assert hot[0] is error
        assert sum(hot[2].values()) == 8

    @staticmethod
    def _read_equal_tuple_after_a_kill():
        network = grid_rooms_scenario(side=4, rooms_per_axis=2,
                                      seed=5).network
        alive = network.alive_sensor_ids()
        network.read_many(alive, "sound")
        network.node(alive[6]).kill()
        fresh = tuple(list(alive))
        assert fresh == alive and fresh is not alive
        with pytest.raises(KSpotError) as raised:
            network.read_many(fresh, "sound")
        samples = {i: network.node(i).samples_taken for i in alive}
        return type(raised.value), str(raised.value), samples

    def test_a_kill_voids_the_row_of_an_equal_tuple(self):
        """Rows are keyed by the tuple's content, so a mote killed
        after its row was read must not be served from that row to an
        equal tuple: the hot path raises at the dead mote as the
        reference walk does."""
        hot, reference = on_both_paths(self._read_equal_tuple_after_a_kill)
        assert hot == reference
        assert hot[0] is ConfigurationError
        assert set(hot[2].values()) == {1}


class TestWindowBooking:
    """The epoch's first batch books into the windows' columns inline;
    a mote whose window already holds this epoch or a later one is
    booked through ``SensorNode.book_sample``, on both paths."""

    STRAGGLERS = (2, 7, 11)

    @classmethod
    def _read_with_stragglers(cls):
        network = grid_rooms_scenario(side=4, rooms_per_axis=2,
                                      seed=5).network
        alive = network.alive_sensor_ids()
        scalar = {}
        for epoch in range(3):
            for node_id in cls.STRAGGLERS:
                scalar[epoch, node_id] = network.node(node_id).read(
                    "sound", epoch)
            row = network.read_many(alive, "sound")
            for node_id in cls.STRAGGLERS:
                assert row[node_id] == scalar[epoch, node_id]
            network.advance_epoch()
        cost = network.node(1).board.modality("sound").sample_cost_joules
        return (windows_signature(network),
                {i: network.ledger(i).sensing for i in alive}, cost)

    def test_a_straggler_is_booked_and_charged_once(self):
        """A mote a scalar ``read`` sampled before the epoch's first
        batch keeps that one sample: one window entry and one sensing
        charge per epoch, as every other mote."""
        hot, reference = on_both_paths(self._read_with_stragglers)
        assert hot == reference
        windows, sensing, cost = hot
        for node_id, charged in sensing.items():
            samples, columns = windows[node_id]
            assert samples == 3
            assert columns["sound"][0] == [0, 1, 2]
            assert charged == cost + cost + cost

    @staticmethod
    def _read_past_a_compaction(epochs):
        network = grid_rooms_scenario(side=3, rooms_per_axis=1,
                                      seed=5).network
        alive = network.alive_sensor_ids()
        for _ in range(epochs):
            network.read_many(alive, "sound")
            network.advance_epoch()
        return windows_signature(network)

    def test_the_columns_compact_alike(self):
        """A 1,024-reading window's columns drop their oldest 1,024
        entries at the 2,048th append, whether the batch appends
        inline or ``SlidingWindow.append`` does."""
        hot, reference = on_both_paths(self._read_past_a_compaction, 2100)
        assert hot == reference
        samples, columns = hot[1]
        assert samples == 2100
        assert columns["sound"][0] == list(range(1024, 2100))

    @staticmethod
    def _read_behind_a_window():
        network = grid_rooms_scenario(side=4, rooms_per_axis=2,
                                      seed=5).network
        alive = network.alive_sensor_ids()
        network.node(alive[5]).window_for("sound").append(4, 50.0)
        with pytest.raises(StorageError, match="out-of-order"):
            network.read_many(alive, "sound")
        return (windows_signature(network),
                {i: network.ledger(i).sensing for i in alive})

    def test_an_older_epoch_is_refused_at_that_mote(self):
        """A window holding a later epoch refuses the epoch's sample:
        the motes ahead of it are booked, it and the motes behind it
        are not, and nothing is charged for the refused sample."""
        hot, reference = on_both_paths(self._read_behind_a_window)
        assert hot == reference
        windows, sensing = hot
        booked = [node_id for node_id, charged in sensing.items() if charged]
        assert booked == list(range(1, 6))
        assert windows[6] == (0, {"sound": ([4], ["50.0"])})
        assert windows[7] == (0, {})


class TestClampOnlyBoard:
    """A clamp-only board (``quantize=False``) books its readings as
    the board gives them on every path and backend: the reference path
    clamps each value with ``Modality.clamp``, and so does the
    columnar kernel, so an int reading inside the range stays an
    int."""

    @staticmethod
    def _read_ints():
        rows = [{node_id: 40 + node_id + epoch for node_id in range(1, 10)}
                for epoch in range(3)]
        rows[2][9] = 130
        board = SensorBoard({"sound": TableField(rows)}, quantize=False)
        network = Network(grid_topology(3),
                          boards={node_id: board for node_id in range(1, 10)})
        alive = network.alive_sensor_ids()
        readings = []
        for _ in range(3):
            row = network.read_many(alive, "sound")
            readings.append([repr(row[node_id]) for node_id in alive])
            network.advance_epoch()
        return readings, windows_signature(network)

    def test_int_readings_are_booked_as_ints(self):
        hot, reference = on_both_paths(self._read_ints)
        with columnar.force_python_backend():
            python = self._read_ints()
        assert hot == reference == python
        readings, windows = hot
        assert readings[0][0] == "41"
        assert readings[2][-1] == "100.0"
        assert windows[1] == (3, {"sound": ([0, 1, 2], ["41", "42", "43"])})


class PerHopNetwork(Network):
    """The relay loop the batch relay kernel replaces: node by node,
    one one-edge :meth:`Network.ship_edges` call per hop."""

    def relay_many(self, nodes, down=None, up=None):
        hops = 0
        for node_id in nodes:
            path = self.tree.path_to_root(node_id)
            if down is not None:
                kind, size = down
                for receiver, sender in zip(path[-2::-1], path[::-1]):
                    self.ship_edges(kind, [(sender, receiver, size)])
                    hops += 1
            if up is not None:
                kind, size = up
                for sender, receiver in zip(path, path[1:]):
                    self.ship_edges(kind, [(sender, receiver, size)])
                    hops += 1
        return hops


#: One relay: (upward?, index into sink + sensors, payload bytes).
#: Index 0 is the sink itself, the zero-hop path.
_RELAYS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 24), st.integers(0, 120)),
    min_size=1, max_size=25)


def relay_all(relays, *, network_class=Network, loss=0.0, seed=0):
    """Relay every message to / from the sink on a 5×5 grid inside an
    open session tap, alternating two stats phases; returns every
    observable plus the hop counts and drops."""
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
    return (stats_signature(network.stats), stats_signature(tap),
            ledger_signature(network), hops, drops, network._rng.random())


class TestPathRelayKernel:
    """``unicast_to_sink`` / ``unicast_from_sink`` ship a lossless relay
    over its whole tree path in one ``relay_many`` call. Per-node
    ledgers, by_kind,
    by_phase, totals and an open tap must equal both the per-hop
    ``ship_edges`` loop and the reference path's ``_ship`` per hop
    (the latter catches a sender/receiver swap, which the per-hop
    oracle would share with the kernel)."""

    @settings(max_examples=40, deadline=None)
    @given(relays=_RELAYS)
    def test_kernel_equals_per_hop_and_reference(self, relays):
        kernel, reference = on_both_paths(relay_all, relays)
        per_hop = relay_all(relays, network_class=PerHopNetwork)
        assert kernel == per_hop == reference

    def test_zero_hop_path_records_nothing(self):
        network = Network(grid_topology(3))
        message = ControlMessage(label="relay")
        assert network.unicast_to_sink(network.sink_id, message) == 0
        assert network.unicast_from_sink(network.sink_id, message) == 0
        assert (stats_signature(network.stats)
                == stats_signature(Network(grid_topology(3)).stats))

    @settings(max_examples=20, deadline=None)
    @given(relays=_RELAYS, seed=st.integers(0, 10_000),
           loss=st.floats(0.05, 0.4))
    def test_lossy_radio_falls_back_per_hop(self, relays, seed, loss):
        """A lossy radio runs the reference path's per-hop loop whatever
        the default (the relay kernel refuses it): a network built under
        the hot default draws the same retransmissions from the same
        loss stream as one built inside ``reference_path()``."""
        hot, reference = on_both_paths(relay_all, relays, loss=loss,
                                       seed=seed)
        assert hot == reference


#: One batch relay: (shape, picks into sink + sensors, probe request
#: groups, report entries). Picks repeat, and pick 0 is the sink itself.
_BATCHES = st.lists(
    st.tuples(st.sampled_from(["up", "down", "down+up"]),
              st.lists(st.integers(0, 24), max_size=10),
              st.integers(0, 60), st.integers(0, 15)),
    min_size=1, max_size=8)


#: The sensor that :func:`batch_relay_all` kills and re-joins: a
#: neighbour of the corner sink that relays for eight motes on the
#: 10×10 grid.
REJOINER = 12


#: Batches large enough for the numpy scatter: (shape, picks into sink
#: + sensors of a 10×10 grid, probe request groups, report entries).
_LARGE_BATCHES = st.lists(
    st.tuples(st.sampled_from(["up", "down", "down+up"]),
              st.lists(st.integers(0, 100),
                       min_size=simulator._SCATTER_MIN_MOTES, max_size=150),
              st.integers(0, 60), st.integers(0, 15)),
    min_size=2, max_size=4)


@contextlib.contextmanager
def scatter_spy():
    """Record what each ``Network._relay_scatter`` call returned: its
    hops, or None when it handed the batch back to the loop."""
    calls = []
    scatter = Network._relay_scatter

    def spy(self, *args):
        calls.append(scatter(self, *args))
        return calls[-1]

    Network._relay_scatter = spy
    try:
        yield calls
    finally:
        Network._relay_scatter = scatter


def batch_relay_all(batches, dead=(), *, side=5, rejoin=False,
                    per_node=False, network_class=Network):
    """Relay every batch on a ``side``×``side`` grid whose ``dead``
    sensors were killed without repair, inside an open session tap,
    alternating two stats phases: a probe request down and a filter
    report up per node, as FILA's passes do. One ``relay_many`` call
    per batch, or with ``per_node`` one ``unicast_*`` call per node and
    leg. With ``rejoin``, :data:`REJOINER` dies (repairing the tree)
    halfway through and re-joins as a leaf with a fresh ledger, and
    every later batch relays it too. Returns every observable plus the
    hops of each batch."""
    network = network_class(grid_topology(side))
    for node_id in sorted(dead):
        network.kill_node(node_id, repair=False)
    tap = NetworkStats()
    hops = []
    rejoin_at = len(batches) // 2 if rejoin else None
    with network.tap_stats(tap):
        for index, (shape, picks, groups, entries) in enumerate(batches):
            if index == rejoin_at:
                network.kill_node(REJOINER)
                network.join_node(REJOINER, (9.0, 9.0))
            targets = (network.sink_id, *network.tree.sensor_ids)
            nodes = [targets[pick % len(targets)] for pick in picks]
            if rejoin_at is not None and index >= rejoin_at:
                nodes.append(REJOINER)
            down = ProbeRequestMessage(epoch=1, groups=(0,) * groups)
            up = FilterReportMessage(
                epoch=1, entries=(ViewEntry(0, 1.0, 1),) * entries)
            with network.stats.phase("probe" if index % 2 else "monitor"):
                if per_node:
                    count = 0
                    for node_id in nodes:
                        if "down" in shape:
                            count += network.unicast_from_sink(node_id, down)
                        if "up" in shape:
                            count += network.unicast_to_sink(node_id, up)
                else:
                    count = network.relay_many(
                        nodes,
                        down=(ProbeRequestMessage.kind,
                              ProbeRequestMessage.wire_size(groups))
                        if "down" in shape else None,
                        up=(FilterReportMessage.kind,
                            FilterReportMessage.wire_size(entries))
                        if "up" in shape else None)
                hops.append(count)
    network.advance_epoch()
    return (stats_signature(network.stats), stats_signature(tap),
            ledger_signature(network), hops, network._rng.random())


class TestBatchRelayKernel:
    """``relay_many`` relays a whole list of motes — up only, down only,
    or down then up per mote — in one call. Per-node ledgers, by_kind,
    by_phase, totals and an open tap must equal the per-node
    ``unicast_*`` loop (through the kernel one node at a time and
    through the per-hop oracle) and the reference path's ``_ship`` per
    hop, over lists with repeats, the sink itself and dead relays."""

    @settings(max_examples=40, deadline=None)
    @given(batches=_BATCHES, dead=st.sets(st.integers(1, 25), max_size=8))
    def test_kernel_equals_per_node_and_reference(self, batches, dead):
        kernel = batch_relay_all(batches, dead)
        per_node, reference = on_both_paths(batch_relay_all, batches, dead,
                                            per_node=True)
        per_hop = batch_relay_all(batches, dead, per_node=True,
                                  network_class=PerHopNetwork)
        assert kernel == per_node == per_hop == reference

    def test_empty_and_sink_only_batches_record_nothing(self):
        network = Network(grid_topology(3))
        down, up = ("probe_request", 6), ("filter_report", 12)
        assert network.relay_many([], down=down, up=up) == 0
        assert network.relay_many([network.sink_id] * 3, down, up) == 0
        assert (stats_signature(network.stats)
                == stats_signature(Network(grid_topology(3)).stats))

    def test_lossy_radio_is_refused(self):
        """Every relayed hop takes one attempt, so the kernel refuses a
        lossy radio, charging nothing: its deployments run the
        reference path, which relays hop by hop."""
        network = Network(grid_topology(3),
                          radio=RadioModel(range_m=15.0,
                                           loss_probability=0.1))
        with pytest.raises(ConfigurationError):
            network.relay_many([5, 9], down=("probe_request", 6),
                               up=("filter_report", 12))
        assert network.stats.messages == 0
        assert network.ledger(9).tx == 0

    @needs_numpy
    @settings(max_examples=30, deadline=None)
    @given(batches=_LARGE_BATCHES,
           dead=st.sets(st.integers(1, 100), max_size=8),
           rejoin=st.booleans())
    def test_scatter_equals_the_loop_and_reference(self, batches, dead,
                                                   rejoin):
        """Batches of at least ``_SCATTER_MIN_MOTES`` motes on a 10×10
        grid take the numpy scatter, which must equal the loop on the
        pure-python backend, the per-hop oracle and the reference
        path, through repeats, the sink, dead relays and a re-joined
        id's fresh ledger."""
        with scatter_spy() as calls:
            kernel = batch_relay_all(batches, dead, side=10, rejoin=rejoin)
        assert len(calls) == len(batches)
        assert None not in calls
        with scatter_spy() as calls, columnar.force_python_backend():
            loop = batch_relay_all(batches, dead, side=10, rejoin=rejoin)
        assert calls == []
        per_hop = batch_relay_all(batches, dead, side=10, rejoin=rejoin,
                                  network_class=PerHopNetwork)
        per_node, reference = on_both_paths(
            batch_relay_all, batches, dead, side=10, rejoin=rejoin,
            per_node=True)
        assert kernel == loop == per_hop == per_node == reference

    @needs_numpy
    def test_one_mote_calls_keep_the_loop(self):
        network = Network(grid_topology(10))
        message = ControlMessage(label="relay")
        with scatter_spy() as calls:
            assert network.unicast_to_sink(100, message) > 0
            assert network.unicast_from_sink(100, message) > 0
            network.relay_many([100] * (simulator._SCATTER_MIN_MOTES - 1),
                               up=("relay", 4))
        assert calls == []

    def _relay_with_a_stranger(self):
        """A 40-mote down+up batch on a 10×10 grid with an id outside
        the tree at position 30; returns the error and every
        observable it left behind."""
        network = Network(grid_topology(10))
        nodes = [1 + (7 * i) % 100 for i in range(40)]
        nodes[30] = 999
        tap = NetworkStats()
        with network.tap_stats(tap):
            with pytest.raises(TopologyError) as raised:
                network.relay_many(nodes, down=("probe_request", 6),
                                   up=("filter_report", 12))
        return (str(raised.value), stats_signature(network.stats),
                stats_signature(tap), ledger_signature(network))

    @needs_numpy
    def test_unknown_mote_falls_back_to_the_loop(self):
        """The scatter charges nothing and hands the batch to the loop,
        which raises at the stranger after relaying the 30 motes before
        it, as on the pure-python backend."""
        with scatter_spy() as calls:
            scatter = self._relay_with_a_stranger()
        assert calls == [None]
        with columnar.force_python_backend():
            loop = self._relay_with_a_stranger()
        assert scatter == loop
        assert "999" in scatter[0]
        assert sent(scatter[1], "filter_report") > 0


class PerForwarderNetwork(Network):
    """The flood loop the flood kernel replaces: one :meth:`Network._ship`
    per forwarder of the flood plan."""

    def _flood_lossless(self, message):
        plan = self._flood_plan()
        for sender, receivers in plan:
            self._ship(sender, receivers, message)
        return len(plan)


class NoFloodKernelNetwork(Network):
    """Fails if a flood reaches the hot path's flood kernel."""

    def _flood_lossless(self, message):
        raise AssertionError("a lossy flood reached the lossless kernel")


#: Payload bytes of each flood.
_FLOODS = st.lists(st.integers(0, 120), min_size=1, max_size=12)
#: Sensors of the 5×5 grid killed, tree left unrepaired, before the
#: floods: some forwarders lose every child, some relays go dark.
_DEAD = st.sets(st.integers(1, 25), max_size=12)


def flood_all(floods, dead=(), *, network_class=Network, loss=0.0, seed=0):
    """Flood every message down a 5×5 grid whose ``dead`` sensors were
    killed without repair, inside an open session tap, alternating two
    stats phases; returns every observable plus the send counts and
    drops."""
    network = network_class(
        grid_topology(5),
        radio=RadioModel(range_m=15.0, loss_probability=loss), seed=seed)
    for node_id in sorted(dead):
        network.kill_node(node_id, repair=False)
    tap = NetworkStats()
    sends, drops = [], 0
    with network.tap_stats(tap):
        for index, payload in enumerate(floods):
            message = ControlMessage(label="flood", size=payload)
            with network.stats.phase("probe" if index % 2 else "creation"):
                try:
                    sends.append(network.flood_down(message))
                except RoutingError:
                    drops += 1
    network.advance_epoch()
    return (stats_signature(network.stats), stats_signature(tap),
            ledger_signature(network), sends, drops, network._rng.random())


class TestFloodKernel:
    """``flood_down`` on a hot network ships the whole flood in one
    ``_flood_lossless`` call. Per-node ledgers, by_kind, by_phase,
    totals and an open tap must equal both a per-forwarder ``_ship``
    loop over the same plan and the reference path, which walks the
    tree and calls ``broadcast_down`` per non-leaf."""

    @settings(max_examples=40, deadline=None)
    @given(floods=_FLOODS, dead=_DEAD)
    def test_kernel_equals_per_forwarder_and_reference(self, floods, dead):
        kernel, reference = on_both_paths(flood_all, floods, dead)
        per_forwarder = flood_all(floods, dead,
                                  network_class=PerForwarderNetwork)
        assert kernel == per_forwarder == reference

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["hot", "reference"])
    def test_forwarder_with_dead_children_sends_nothing(self, reference):
        with (hotpath.reference_path() if reference
              else contextlib.nullcontext()):
            network = Network(grid_topology(3))
        assert network.hot is not reference
        tree = network.tree
        forwarder = next(n for n in tree.sensor_ids if tree.children(n))
        for child in tree.children(forwarder):
            network.kill_node(child, repair=False)
        senders = [n for n in tree.node_ids
                   if (n == network.sink_id or network.nodes[n].alive)
                   and any(network.nodes[c].alive for c in tree.children(n))]
        sends = network.flood_down(QueryMessage(query_id=1))
        assert forwarder not in senders
        assert sends == len(senders) == network.stats.messages
        assert network.ledger(forwarder).tx == 0
        assert all(network.ledger(n).tx > 0 for n in senders)

    @settings(max_examples=20, deadline=None)
    @given(floods=_FLOODS, dead=_DEAD, seed=st.integers(0, 10_000),
           loss=st.floats(0.05, 0.4))
    def test_lossy_radio_falls_back_per_forwarder(self, floods, dead, seed,
                                                  loss):
        """A lossy radio runs the reference path's broadcast per
        forwarder whatever the default: a network built under the hot
        default never enters the lossless kernel and draws the same
        retransmissions from the same loss stream as one built inside
        ``reference_path()``."""
        hot, reference = on_both_paths(
            flood_all, floods, dead, network_class=NoFloodKernelNetwork,
            loss=loss, seed=seed)
        assert hot == reference


def rebuilt_tree(network):
    """The network's tree built from scratch from its parent map."""
    tree = network.tree
    return RoutingTree(tree.root,
                       {n: tree.parent(n) for n in tree.sensor_ids})


def derived_plans(network):
    """The converge-cast and flood plans derived afresh from the tree's
    parent map and the nodes' liveness. The orders come from a tree
    rebuilt from that map, so a wrongly patched order cannot hide."""
    tree, nodes, sink = rebuilt_tree(network), network.nodes, network.sink_id

    def live_children(node_id):
        return tuple(c for c in tree.children(node_id) if nodes[c].alive)

    converge = tuple(
        (n, tree.parent(n), live_children(n), tree.parent(n) == sink)
        for n in tree.post_order() if n != sink and nodes[n].alive)
    flood = tuple(
        (n, live_children(n)) for n in tree.pre_order()
        if (n == sink or nodes[n].alive) and live_children(n))
    return converge, flood


def derived_alive_and_roots(network):
    """The alive tuple, and each live sensor whose path to the sink
    runs through live motes only mapped to the sink child it passes,
    root-first (the converge-cast order reversed), derived afresh."""
    tree, nodes, sink = rebuilt_tree(network), network.nodes, network.sink_id
    alive = tuple(n for n in tree.node_ids if n != sink and nodes[n].alive)
    roots = {}
    for n in reversed(tree.post_order()):
        path = tree.path_to_root(n)[:-1]
        if path and all(nodes[hop].alive for hop in path):
            roots[n] = path[-1]
    return alive, roots


def derived_sampling_plan(network, ids, attribute):
    """An id tuple grouped by board channel, asking every board."""
    groups = {}
    for row, node_id in enumerate(ids):
        node = network.nodes[node_id]
        field, modality, quantize = node.board.channel(attribute)
        group = groups.setdefault((id(field), id(modality), quantize),
                                  (field, modality, quantize, [], []))
        group[3].append(node_id)
        group[4].append((row, node, node.window_for(attribute)))
    return tuple(groups.values())


def relay_table_paths(network, table):
    """Each tree node's path as the relay table spells it: the node
    owning each hop's child-side ledger, then the last hop's
    parent-side owner. A stale ledger (one no tree node owns any more)
    raises KeyError."""
    ledgers, row_of, starts, hops, child, parent = table
    owner = {id(network.ledger(n)): n for n in network.tree.node_ids}
    paths = {}
    for node_id, row in row_of.items():
        span = range(starts[row], starts[row] + hops[row])
        path = [owner[id(ledgers[child[at]])] for at in span]
        assert path[1:] == [owner[id(ledgers[parent[at]])]
                            for at in span][:-1]
        tail = (owner[id(ledgers[parent[span[-1]]])] if span
                else node_id)
        paths[node_id] = (*path, tail)
    return paths


#: Topology changes: a repaired kill, an unrepaired kill, a direct
#: ``SensorNode.kill`` (bypassing the network), a batch of 2–4 kills
#: repaired on the last victim (as ``ChurnSchedule.apply`` batches
#: them) or a join; the integer picks the victims or the join's anchor.
_CHANGES = st.lists(
    st.tuples(st.sampled_from(["kill", "kill-unrepaired", "node-kill",
                               "batch", "join"]),
              st.integers(0, 10_000)),
    min_size=1, max_size=8)


class TestTreePlans:
    """The network caches one converge-cast plan, one flood plan, one
    ``sink_roots`` map, the alive tuple, its sampling plans and (on
    numpy) one relay table per topology version; every kill and join
    must invalidate them, the rows a rebuild reuses must still be
    right, and a join's fresh ledger must replace the one a killed id
    left behind."""

    @settings(max_examples=40, deadline=None)
    @given(changes=_CHANGES)
    def test_plans_equal_a_fresh_derivation_after_every_change(
            self, changes):
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=1)
        network = scenario.network
        next_id = 100
        for kind, pick in [(None, 0), *changes]:
            before = network.converge_cast_plan()
            alive = network.alive_sensor_ids()
            if kind == "join":
                anchors = (network.sink_id, *alive)
                x, y = network.topology.positions[anchors[pick % len(anchors)]]
                network.join_node(next_id, (x + 3.0, y + 4.0),
                                  board=scenario.board_for(next_id))
                next_id += 1
            elif kind == "batch" and alive:
                victims = list(dict.fromkeys(
                    alive[(pick + 5 * i) % len(alive)]
                    for i in range(2 + pick % 3)))
                for victim in victims[:-1]:
                    network.kill_node(victim, repair=False)
                network.kill_node(victims[-1])
            elif kind is not None and alive:
                victim = alive[pick % len(alive)]
                if kind == "node-kill":
                    network.node(victim).kill()
                else:
                    network.kill_node(victim, repair=kind == "kill")
            plans = (network.converge_cast_plan(), network._flood_plan())
            assert plans == derived_plans(network)
            assert network.converge_cast_plan() is plans[0]
            # A change always builds a new plan: MINT's group census is
            # keyed on the plan's identity.
            changed = kind == "join" or (kind is not None and bool(alive))
            assert (plans[0] is not before) is changed
            ids, roots = derived_alive_and_roots(network)
            assert network.alive_sensor_ids() == ids
            assert list(network.sink_roots().items()) == list(roots.items())
            assert network.sink_roots() is network.sink_roots()
            assert set(network._plan_rows) == set(ids)
            ids = network.alive_sensor_ids()
            network.read_many(ids, "sound")
            if ids:  # an emptied fleet's row is the cached empty one
                assert (network._columnar.plan("sound", ids)
                        == derived_sampling_plan(network, ids, "sound"))
            assert set(network._columnar.channels("sound")) <= set(ids)
            np = columnar.numpy_module()
            if np is not None:
                table = network._relay_table(np)
                assert relay_table_paths(network, table) == {
                    n: network.tree.path_to_root(n)
                    for n in network.tree.node_ids}
                assert network._relay_table(np) is table


class TestSamplingPlanChannels:
    """A sampling plan regroups a node without asking its board again
    only while ``node.board`` is the board it grouped."""

    def test_a_board_swap_regroups_the_node(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=2)
        network = scenario.network
        ids = network.alive_sensor_ids()
        network.read_many(ids, "sound")
        assert len(network._columnar.plan("sound", ids)) == 1
        swapped = ids[3]
        other = ZipfEventField({swapped: "R00"}, lo=0.0, hi=100.0,
                               skew=1.0)
        network.node(swapped).board = SensorBoard({"sound": other})
        network.kill_node(ids[-1])  # a new alive tuple
        ids = network.alive_sensor_ids()
        network.read_many(ids, "sound")
        plan = network._columnar.plan("sound", ids)
        assert plan == derived_sampling_plan(network, ids, "sound")
        assert [group[3] for group in plan if group[0] is other] == [
            [swapped]]


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

    def run_mix(self, monkeypatch, epochs, births=()):
        """Step the monitor mix (four MINT room queries and a TJA query
        re-submitted whenever it completes) after its creation epoch;
        ``births`` are ``(epoch, anchor)`` pairs, each a mote born next
        to ``anchor`` in its room. Returns one record per epoch: the
        topology version after it, whether the TJA query was
        re-submitted before it, and the sampling plans it built."""
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=3)
        events = []
        for index, (epoch, anchor) in enumerate(births):
            x, y = scenario.network.topology.positions[anchor]
            node_id = 100 + index
            group = scenario.group_of[anchor]
            scenario.field.enroll(node_id, group)
            events.append(ChurnEvent(epoch, ChurnKind.BIRTH, node_id,
                                     position=(x + 2.0, y + 2.0),
                                     group=group))
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment, stop_when_idle=False, interventions=(
            ChurnIntervention(ChurnSchedule(events)),))
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
        epochs_seen = []
        resubmitted = False
        for _ in range(epochs):
            built.clear()
            driver.step()
            epochs_seen.append((scenario.network._topo_version,
                                resubmitted, list(built)))
            resubmitted = historic.historic_result is not None
            if resubmitted:
                historic = deployment.submit(self.HISTORIC_QUERY)
        return epochs_seen

    def test_one_plan_per_topology_version(self, monkeypatch):
        epochs = self.run_mix(monkeypatch, 20)
        assert sum(resubmitted for _, resubmitted, _ in epochs) >= 2, (
            "TJA must cycle through its window")
        built = [plan for _, _, plans in epochs for plan in plans]
        assert len(built) <= len(set(built))

    def test_a_newborn_does_not_make_the_sessions_evict_each_other(
            self, monkeypatch):
        """A mote born mid-run joins the MINT sessions, which then read
        the alive tuple, but not the historic query, which reads a
        subset: the two tuples keep one plan each. After the birth's
        epoch, an epoch that changes no topology and submits nothing
        builds no plan."""
        epochs = self.run_mix(monkeypatch, 12, births=[(3, 8)])
        version = None
        quiet = 0
        for number, (after, resubmitted, plans) in enumerate(epochs, 1):
            if number > 3 and after == version and not resubmitted:
                assert plans == [], f"epoch {number} rebuilt {plans}"
                quiet += 1
            version = after
        assert quiet >= 5

    def test_sessions_with_equal_membership_read_one_subset(
            self, monkeypatch):
        """A mote born with no room joins no room session, so each one
        then reads a subset of the alive tuple. Two sessions with equal
        maps read equal tuples, and so share one sampling plan, one
        batch and one readings row in every epoch."""
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=3)
        network = scenario.network
        x, y = network.topology.positions[1]
        birth = ChurnEvent(2, ChurnKind.BIRTH, 100,
                           position=(x + 1.0, y + 1.0), group=None)
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment, interventions=[ChurnIntervention(
            ChurnSchedule([birth]), board_for=scenario.board_for)])
        for query in self.MONITOR_QUERIES[:2]:
            deployment.submit(query)
        reads, stores, plans = Counter(), Counter(), Counter()
        read_many = network.read_many
        state = network._columnar
        store = columnar.ColumnarState.store
        build = network._build_sampling_plan

        def reading(node_ids, attribute):
            reads[network.epoch] += 1
            return read_many(node_ids, attribute)

        def storing(self, attribute, epoch, ids, readings):
            if self is state:
                stores[epoch] += 1
            return store(self, attribute, epoch, ids, readings)

        def building(node_ids, attribute):
            plans[network.epoch] += 1
            return build(node_ids, attribute)

        monkeypatch.setattr(network, "read_many", reading)
        monkeypatch.setattr(columnar.ColumnarState, "store", storing)
        monkeypatch.setattr(network, "_build_sampling_plan", building)
        driver.run(6)
        assert 100 in network.alive_sensor_ids()
        assert reads == {epoch: 2 for epoch in range(6)}
        assert stores == {epoch: 1 for epoch in range(6)}
        assert plans == {0: 1, 2: 1}


class _Counting:
    """Stands in for a wire class inside an engine module: counts
    constructions under ``label`` and forwards attribute reads
    (``kind``, ``wire_size``) to the real class."""

    def __init__(self, cls, counts, label):
        self._cls = cls
        self._counts = counts
        self._label = label

    def __call__(self, *args, **kwargs):
        self._counts[self._label] += 1
        return self._cls(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class TestNoWireObjectsOnHotPath:
    """The fused MINT creation, update and probe passes, TAG's
    aggregation pass, FILA's set-up, monitor, probe and install passes
    and TJA's union and join passes ship each edge's kind and wire
    size: no hot epoch, the creation epoch included, builds one of the
    wire objects below. The reference path still builds every one.
    (MINT still builds the one probe-request message each probe flood
    ships, so that class is watched in FILA only.)"""

    WIRE_NAMES = {
        "mint": ("ViewUpdateMessage", "ProbeReplyMessage", "ViewEntry"),
        "tag": ("ViewUpdateMessage", "ViewEntry"),
        "fila": ("FilterReportMessage", "FilterUpdateMessage",
                 "ProbeRequestMessage", "ViewEntry"),
        "tja": ("LBReplyMessage", "JoinReplyMessage", "ObjectScore"),
    }
    #: SUM with slack 0 leaves the top room ambiguous: MINT probes.
    QUERY = ("SELECT TOP 1 roomid, SUM(sound) FROM sensors "
             "GROUP BY roomid EPOCH DURATION 1 min")
    #: FILA reports and reinstalls filters every epoch here, and probes
    #: in nine of the ten epochs after its set-up.
    FILA_QUERY = ("SELECT TOP 2 nodeid, MAX(sound) FROM sensors "
                  "GROUP BY nodeid EPOCH DURATION 1 min")

    def constructions(self, monkeypatch):
        from repro.core import fila, mint, tag, tja
        from repro.core.mint import MintConfig

        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=1)
        deployment = Deployment.from_scenario(
            scenario, mint_config=MintConfig(slack=0))
        driver = EpochDriver(deployment)
        handle = deployment.submit(self.QUERY)
        deployment.submit(self.QUERY, algorithm=Algorithm.TAG)
        filter_handle = deployment.submit(self.FILA_QUERY,
                                          algorithm=Algorithm.FILA)
        # Executes at its fifth acquisition epoch, inside the run below.
        historic = deployment.submit(
            TestSamplingPlanSharing.HISTORIC_QUERY)
        counts = Counter()
        for module in (mint, tag, fila, tja):
            short = module.__name__.rsplit(".", 1)[-1]
            for name in self.WIRE_NAMES[short]:
                monkeypatch.setattr(module, name, _Counting(
                    getattr(module, name), counts, f"{short}.{name}"))
        driver.step()  # creation epoch: full views, FILA's filter setup
        assert filter_handle.stats.by_kind["filter_report"] > 0
        before = dict(filter_handle.stats.by_kind)
        driver.run(10)
        assert sum(r.probed for r in handle.results[1:]) == 10
        assert sum(r.probed for r in filter_handle.results[1:]) == 9
        after = filter_handle.stats.by_kind
        assert all(after[kind] > before.get(kind, 0) for kind in (
            "filter_report", "filter_update", "probe_request"))
        assert historic.historic_result is not None
        assert historic.stats.by_kind["join_reply"] == 25
        return counts

    def test_hot_epochs_build_no_wire_objects(self, monkeypatch):
        counts = self.constructions(monkeypatch)
        assert not counts

    def test_reference_path_still_builds_them(self, monkeypatch):
        with hotpath.reference_path():
            counts = self.constructions(monkeypatch)
        assert set(counts) == {f"{module}.{name}"
                               for module, names in self.WIRE_NAMES.items()
                               for name in names}


class TestMintStateAtFleetScale:
    """The hot update pass commits by swapping the kept view V'_i in as
    ``reported`` and only counts the delta. On the 400-mote monitor mix
    (the four e11 room queries, k 1–3), through one relay's death and
    one mote's birth, every MINT session's per-node ``(reported,
    gamma_reported, withheld)`` must equal the reference path's after
    every epoch, each cache in the same order. The adaptive case grows
    slack after probing epochs and shrinks it after ``QUIET_EPOCHS``
    quiet ones, so kept views shrink in the last epoch and nodes ship
    retractions with no new entry."""

    EPOCHS = QUIET_EPOCHS + 2

    @staticmethod
    def node_states(handle):
        """Each node's caches as ordered items: a view's order is the
        prune's tie-break between labels that print alike."""
        mint = handle._session.engine.algorithm
        assert isinstance(mint, Mint)
        return {node_id: (tuple(state.reported.items()),
                          state.gamma_reported,
                          tuple(state.withheld.items()))
                for node_id, state in mint.states.items()}

    def run(self, mint_config):
        scenario = grid_rooms_scenario(side=20, rooms_per_axis=4, seed=11)
        network = scenario.network
        tree = network.tree
        # A relay whose subtree must re-home when it dies.
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 3 and len(tree.subtree(n)) > 10)
        x, y = network.topology.positions[victim]
        group = scenario.group_of[victim]
        scenario.field.enroll(401, group)
        schedule = ChurnSchedule([
            ChurnEvent(3, ChurnKind.DEATH, victim),
            ChurnEvent(6, ChurnKind.BIRTH, 401, position=(x + 2.0, y + 2.0),
                       group=group),
        ])
        deployment = Deployment.from_scenario(scenario,
                                              mint_config=mint_config)
        driver = EpochDriver(deployment, interventions=[
            ChurnIntervention(schedule, board_for=scenario.board_for)])
        handles = [deployment.submit(query)
                   for query in TestSamplingPlanSharing.MONITOR_QUERIES]
        states = []
        for _ in range(self.EPOCHS):
            driver.step()
            states.append([self.node_states(h) for h in handles])
        return (states, [answers_of(h) for h in handles],
                stats_signature(network.stats), ledger_signature(network),
                [h.recovery for h in handles])

    @pytest.mark.parametrize("mint_config", [
        None, MintConfig(adaptive=True)],
        ids=["default", "adaptive"])
    def test_node_state_hot_equals_reference_every_epoch(self, mint_config):
        hot, reference = on_both_paths(self.run, mint_config)
        for epoch, (hot_states, reference_states) in enumerate(
                zip(hot[0], reference[0])):
            for session, (h, r) in enumerate(zip(hot_states,
                                                 reference_states)):
                assert h == r, f"epoch {epoch}, session {session + 1}"
        assert hot[1:] == reference[1:]
        final = hot[0][-1]
        assert 401 in final[0], "the newborn must join every session"
        assert any(withheld for session in final
                   for _, _, withheld in session.values()), \
            "the mix must prune somewhere"


class TestUnannouncedMintJoin:
    """A MINT engine driven without the session layer hears of no join.
    The newborn (no board, no cluster) gets a fresh state on first use
    and relays as a non-member, as an unannounced death drops out: over
    two epochs before the join and three after it, the answers, stats
    and ledgers equal the reference path's, and every answer is the
    oracle's over the members' readings."""

    @staticmethod
    def run():
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=1)
        network = scenario.network
        aggregate = make_aggregate("AVG", 0.0, 120.0)
        mint = Mint(network, aggregate, 1, scenario.group_of)

        def step():
            result = mint.run_epoch()
            readings = {}
            for node_id in scenario.group_of:
                window = network.node(node_id).window_for("sound")
                assert window.epochs[-1] == result.epoch
                readings[node_id] = window.values[-1]
            truth = oracle_scores(readings, scenario.group_of, aggregate)
            assert is_valid_top_k(result.items, truth, 1, tolerance=1e-9)
            return (result.epoch, result.probed,
                    tuple((i.key, i.score, i.lb, i.ub) for i in result.items),
                    certification_signature(result.certification))

        answers = [step() for _ in range(2)]
        x, y = network.topology.positions[24]
        network.join_node(100, (x + 1.0, y + 1.0))
        answers += [step() for _ in range(3)]
        assert 100 in mint.states and 100 not in mint.group_of
        return answers, stats_signature(network.stats), \
            ledger_signature(network)

    def test_hot_equals_reference_and_the_oracle(self):
        hot, reference = on_both_paths(self.run)
        assert hot == reference
        assert len(hot[0]) == 5
        assert hot[1][2]["update"].messages > 0


class TestMintSinkProtocolErrors:
    """The sink refuses child caches that break MINT's bound contract,
    with the same message on both paths. SUM at ``k = 1`` with no slack
    on 36 motes prunes below the sink and probes from the second epoch
    on; after three epochs a sink child that withholds a group's
    readings loses its γ, or the fourth epoch's probe loses one
    withheld partial of a probed group."""

    EPOCHS = 3

    @classmethod
    def mint(cls):
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=3, seed=0)
        mint = Mint(scenario.network, make_aggregate("SUM", 0.0, 120.0), 1,
                    scenario.group_of, config=MintConfig(slack=0))
        assert [r.probed for r in mint.run(cls.EPOCHS)] == [0, 1, 1]
        return mint

    @classmethod
    def withholding_without_gamma(cls):
        mint = cls.mint()
        network = mint.network
        child = next(
            child for child in network.tree.children(network.sink_id)
            if any(mint.states[child].reported.get(group, (0.0, 0))[1]
                   < expected for group, expected
                   in mint.child_group_totals[child].items()))
        assert mint.states[child].gamma_reported is not None
        mint.states[child].gamma_reported = None
        with pytest.raises(ProtocolError) as error:
            mint._sink_bounds()
        return str(error.value), child

    @classmethod
    def short_probe(cls):
        mint = cls.mint()
        probe = mint._probe
        dropped = []

        def drop_one_then_probe(groups):
            # A probed group that two motes withhold, so the replies
            # still carry some of it: drop it at the first holder.
            holders = {group: [node_id for node_id in sorted(mint.states)
                               if group in mint.states[node_id].withheld]
                       for group in groups}
            group = next(group for group in groups
                         if len(holders[group]) > 1)
            del mint.states[holders[group][0]].withheld[group]
            dropped.append(group)
            return probe(groups)

        mint._probe = drop_one_then_probe
        with pytest.raises(ProtocolError) as error:
            mint.run_epoch()
        return str(error.value), dropped

    def test_a_child_withholding_without_gamma_is_refused(self):
        hot, reference = on_both_paths(self.withholding_without_gamma)
        assert hot == reference
        message, child = hot
        assert message.startswith(f"child {child} withholds mass for group")
        assert message.endswith("without a γ descriptor")

    def test_a_probe_short_of_readings_is_refused(self):
        hot, reference = on_both_paths(self.short_probe)
        assert hot == reference
        message, dropped = hot
        assert dropped and message.startswith(f"probe for {dropped[0]!r} "
                                              "returned ")
        assert message.endswith(" readings")


class TestParticipantsLift:
    """Acquisition lifts each member's reading into a partial. Nine
    motes read one value: on a hot network they share one partial per
    aggregate, and switching the aggregate starts the memo over (COUNT
    lifts a reading to ``(1.0, 1)``, AVG to ``(reading, 1)``); a
    reference network lifts every reading afresh. Both lift equal
    values."""

    @staticmethod
    def lift():
        field = ConstantField({}, default=50.0)
        topology = grid_topology(4, spacing=10.0, radio_range=15.0)
        network = Network(topology, boards={
            node: SensorBoard({"sound": field})
            for node in topology.node_ids if node != 0})
        members = {node: "room" for node in range(1, 10)}
        participants = Participants(network)
        avg = make_aggregate("AVG", 0.0, 100.0)
        count = make_aggregate("COUNT", 0.0, 100.0)
        return [participants.partials(members, "sound", aggregate)
                for aggregate in (avg, count, avg)]

    def test_hot_shares_partials_and_reference_lifts_afresh(self):
        hot, reference = on_both_paths(self.lift)
        assert hot == reference
        lifted_values = [{(p.value, p.count) for p in lifted.values()}
                         for lifted in hot]
        assert lifted_values[1] == {(1.0, 1)}
        assert lifted_values[0] == lifted_values[2] != lifted_values[1]
        assert all(len(lifted) == 9 for lifted in hot)
        assert [len({id(p) for p in lifted.values()})
                for lifted in hot] == [1, 1, 1]
        assert [len({id(p) for p in lifted.values()})
                for lifted in reference] == [9, 9, 9]


class TestLossyMintCreation:
    """MINT's creation pass over a lossy radio (64 motes, 6% loss
    with one retry): each edge ships through ``send_up``, which draws
    the loss stream per packet. A drop inside the pass aborts the
    epoch with the motes before it committed; the next epoch re-runs
    creation. A lossy radio runs the reference path whatever the
    default, so after every step the per-node ``(reported,
    gamma_reported, withheld)``, and at the end the answers, stats,
    ledgers and loss-stream state of a deployment built under the hot
    default must equal one built inside ``reference_path()``."""

    STEPS = 6
    SEEDS = range(10)

    def run(self, seed):
        from repro.sensing.board import SensorBoard

        scenario = grid_rooms_scenario(side=8, rooms_per_axis=2, seed=1)
        boards = {node_id: SensorBoard({"sound": scenario.field})
                  for node_id in scenario.group_of}
        network = Network(
            scenario.network.topology,
            radio=RadioModel(range_m=15.0, loss_probability=0.06,
                             max_retries=1),
            boards=boards, group_of=scenario.group_of, seed=seed)
        mint = Mint(network, make_aggregate("SUM", 0.0, 100.0), 2,
                    scenario.group_of, config=MintConfig(slack=0))
        steps, inside = [], 0
        for _ in range(self.STEPS):
            try:
                result = mint.run_epoch()
            except RoutingError:
                outcome = "dropped"
                inside += (not mint.created and any(
                    state.reported for state in mint.states.values()))
            else:
                outcome = (result.epoch, result.probed, tuple(result.items))
            steps.append((outcome, {
                node_id: (dict(state.reported), state.gamma_reported,
                          dict(state.withheld))
                for node_id, state in mint.states.items()}))
        return (steps, stats_signature(network.stats),
                ledger_signature(network), network._rng.getstate(), inside)

    def test_hot_equals_reference(self):
        inside = 0
        for seed in self.SEEDS:
            hot, reference = on_both_paths(self.run, seed)
            for step, (h, r) in enumerate(zip(hot[0], reference[0])):
                assert h == r, f"seed {seed}, step {step}"
            assert hot[1:] == reference[1:], f"seed {seed}"
            inside += hot[4]
        assert inside >= 1, "the radio must drop inside a creation pass"


class TestLossyFilaSetUp:
    """FILA's set-up over a lossy radio (64 motes, 3% loss, one retry):
    each report relays hop by hop, and a drop inside the set-up leaves
    ``known`` holding the motes relayed before it and no filter
    installed; the next epoch re-runs the set-up. A lossy radio runs
    the reference path whatever the default, so after every step
    ``known`` and ``filters``, and at the end the answers, stats,
    ledgers and loss-stream state of a deployment built under the hot
    default must equal one built inside ``reference_path()``."""

    STEPS = 4
    SEEDS = range(10)

    def run(self, seed):
        session, network = zipf_fila_fleet(
            radio=RadioModel(range_m=15.0, loss_probability=0.03,
                             max_retries=1),
            loss_seed=seed)
        steps, mid_set_up = [], 0
        for _ in range(self.STEPS):
            try:
                result = session.run_epoch()
            except RoutingError:
                outcome = "dropped"
                mid_set_up += (not session._setup_done
                               and 0 < len(session.known) < 64)
            else:
                outcome = (result.epoch, result.probed, tuple(result.items))
            steps.append((outcome, dict(session.known),
                          dict(session.filters)))
        return (steps, stats_signature(network.stats),
                ledger_signature(network), network._rng.getstate(),
                mid_set_up)

    def test_hot_equals_reference(self):
        mid_set_up = 0
        for seed in self.SEEDS:
            hot, reference = on_both_paths(self.run, seed)
            for step, (h, r) in enumerate(zip(hot[0], reference[0])):
                assert h == r, f"seed {seed}, step {step}"
            assert hot[1:] == reference[1:], f"seed {seed}"
            mid_set_up += hot[4]
        assert mid_set_up >= 1, "the radio must drop mid-set-up"


def tja_signature(result):
    """Every observable of a TjaResult, as comparable data."""
    return (tuple((i.key, i.score, i.lb, i.ub) for i in result.items),
            result.candidates, result.cleanup_rounds,
            dict(result.per_phase_bytes))


class TestTjaAtFleetScale:
    """TJA at the ``monitor`` workload's shape: 400 motes in 16 block
    rooms running its ``TOP 3`` query over a 10-epoch window, for each
    aggregate, with one relay dying mid-window so the plan re-homes
    its subtree. A mote born later joins the plan but not the query
    (its window cannot cover the history), so it ships empty replies.
    The result (items, candidates, clean-up rounds, bytes per phase),
    stats by kind and phase, the session tap and per-node ledgers must
    equal the reference path's, on either column backend."""

    QUERY = ("SELECT TOP 3 epoch, {agg}(sound) FROM sensors "
             "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s")
    FIELDS = ("result", "stats", "tap", "ledgers")
    #: The epoch the query is submitted at: its window covers START to
    #: START + 9, and the churn events fall 4 and 6 epochs into it.
    START = 0

    def run(self, agg):
        scenario = grid_rooms_scenario(side=20, rooms_per_axis=4, seed=11)
        network = scenario.network
        tree = network.tree
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 3 and len(tree.subtree(n)) > 10)
        x, y = network.topology.positions[victim]
        group = scenario.group_of[victim]
        scenario.field.enroll(401, group)
        schedule = ChurnSchedule([
            ChurnEvent(self.START + 4, ChurnKind.DEATH, victim),
            ChurnEvent(self.START + 6, ChurnKind.BIRTH, 401,
                       position=(x + 2.0, y + 2.0), group=group),
        ])
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment, interventions=[
            ChurnIntervention(schedule, board_for=scenario.board_for)])
        if self.START:
            rooms = deployment.submit(
                "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                "GROUP BY roomid EPOCH DURATION 1 s")
            driver.run(self.START)
            deployment.cancel(rooms.id)
        handle = deployment.submit(self.QUERY.format(agg=agg))
        driver.run()
        assert network.epoch == self.START + 10
        assert not network.node(victim).alive
        assert network.node(401).alive
        return (tja_signature(handle.historic_result),
                stats_signature(network.stats),
                stats_signature(handle.stats), ledger_signature(network))

    @pytest.mark.parametrize("backend", ["default", "python"])
    @pytest.mark.parametrize("agg", ["AVG", "SUM", "MAX", "MIN"])
    def test_hot_equals_reference(self, agg, backend):
        with (columnar.force_python_backend() if backend == "python"
              else contextlib.nullcontext()):
            hot, reference = on_both_paths(self.run, agg)
        for field, hot_value, reference_value in zip(self.FIELDS, hot,
                                                     reference):
            assert hot_value == reference_value, field
        assert sent(hot[1], "lb_reply") == sent(hot[1], "join_reply") == 400
        assert hot[0][1] >= 3


class TestTjaAcrossADigitBoundary(TestTjaAtFleetScale):
    """:class:`TestTjaAtFleetScale` with the query submitted after a
    room query has run epochs 0-4, so its window covers epochs 5-14.
    The hot path orders each row by the epochs' labels, and here
    ``"10" < ... < "14" < "5" < ... < "9"`` differs from the window's
    epoch order, so every row is permuted once; the motes' windows
    also hold the five older readings, which the rows must leave
    out."""

    START = 5


class TestTjaTiedLocalValues:
    """A mote's local top-k breaks a tie in value by label, as
    :func:`~repro.core.results.rank_key` does, so epoch 10 outranks
    epoch 9 (``"10" < "9"``). The hot path orders the labels once and
    each window by value; both paths must nominate and answer
    alike."""

    def run(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1)
        column = {8: 5.0, 9: 7.0, 10: 7.0, 11: 1.0}
        series = {node_id: dict(column) for node_id in scenario.group_of}
        result = Tja(scenario.network, make_aggregate("AVG", 0.0, 100.0),
                     1, series).execute()
        return tja_signature(result), stats_signature(scenario.network.stats)

    def test_hot_equals_reference(self):
        hot, reference = on_both_paths(self.run)
        assert hot == reference
        assert [item[0] for item in hot[0][0]] == [10]
        assert hot[0][1] == 1


class TestTjaCleanUp:
    """Uncorrelated windows leave the LB candidates short of a
    certified answer, so TJA runs the CL expansion and then the CL
    join over what it nominated: every mote ships two ``lb_reply``
    and two ``join_reply`` messages. Both paths must agree on the
    result, stats by kind and phase, and ledgers. (MAX never expands:
    the mote with the highest k-th value nominates k candidates that
    score at least that value.)"""

    MOTES = 16

    def run(self, agg):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1)
        network = scenario.network
        series = make_series(list(scenario.group_of), epochs=40, seed=6)
        result = Tja(network, make_aggregate(agg, 0.0, 100.0), 3,
                     series).execute()
        return (tja_signature(result), stats_signature(network.stats),
                ledger_signature(network))

    @pytest.mark.parametrize("agg", ["AVG", "SUM", "MIN"])
    def test_hot_equals_reference(self, agg):
        hot, reference = on_both_paths(self.run, agg)
        assert hot == reference
        assert hot[0][2] == 1, "the data must need the clean-up round"
        assert (sent(hot[1], "lb_reply") == sent(hot[1], "join_reply")
                == 2 * self.MOTES)


class ShiftedAvg(AvgAggregate):
    """AVG of each reading less 20. Its lift is not the identity,
    unlike that of every built-in aggregate but COUNT."""

    def from_value(self, value):
        return Partial(value - 20.0, 1)


class TestTjaLiftedJoin:
    """TJA over aggregates whose lift is not the identity, so the hot
    join lifts each row (every other built-in aggregate reads it as
    is). Only a direct build reaches COUNT: windowed COUNT is refused
    at plan time. COUNT scores every object by its participants, so its
    unseen bound equals the k-th score and it never needs the clean-up
    round; the shifted AVG runs the CL expansion and the CL join over
    lifted values. Both paths must agree on the result, stats and
    ledgers."""

    MOTES = 16

    def run(self, aggregate):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1)
        network = scenario.network
        series = make_series(list(scenario.group_of), epochs=40, seed=6)
        result = Tja(network, aggregate, 3, series).execute()
        return (tja_signature(result), stats_signature(network.stats),
                ledger_signature(network))

    def test_count_hot_equals_reference(self):
        hot, reference = on_both_paths(
            self.run, make_aggregate("COUNT", 0.0, 100.0))
        assert hot == reference
        items, _, cleanup_rounds, _ = hot[0]
        assert [item[1] for item in items] == [float(self.MOTES)] * 3
        assert cleanup_rounds == 0

    def test_cleanup_hot_equals_reference(self):
        hot, reference = on_both_paths(self.run, ShiftedAvg(0.0, 100.0))
        assert hot == reference
        assert hot[0][2] == 1, "the data must need the clean-up round"
        assert sent(hot[1], "join_reply") == 2 * self.MOTES


class TestTjaRowsFromWindows:
    """The hot path's rows come from the windows through
    :func:`~repro.core.tja.aligned_rows`. A mote whose window holds one
    reading more than the others (epochs 1-8 against 0-7) refuses the
    execution with the "aligned" :class:`ValidationError` on both
    paths, before anything ships; and an execution built from rows
    runs on either path, the reference phases reading dict columns
    rebuilt from them."""

    QUERY = ("SELECT TOP 2 epoch, AVG(sound) FROM sensors "
             "GROUP BY epoch WITH HISTORY 8 s EPOCH DURATION 1 s")

    def misaligned(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1)
        network = scenario.network
        deployment = Deployment.from_scenario(scenario)
        handle = deployment.submit(self.QUERY)
        engine = handle._session.engine
        fill_windows(engine)
        network.node(5).window_for("sound").append(network.epoch, 50.0)
        with pytest.raises(ValidationError, match="aligned") as refusal:
            engine.execute_historic()
        return str(refusal.value), network.stats.summary()

    def test_misaligned_refused_on_both_paths(self):
        hot, reference = on_both_paths(self.misaligned)
        assert hot == reference
        assert hot[1]["messages"] == 0

    def over_rows(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1)
        network = scenario.network
        series = make_series(list(scenario.group_of), epochs=12, seed=6)
        labels, rows = aligned_rows(
            (node, *zip(*sorted(column.items())))
            for node, column in series.items())
        result = Tja.over_rows(network, make_aggregate("AVG", 0.0, 100.0), 3,
                               labels, rows).execute()
        return labels, tja_signature(result), stats_signature(network.stats)

    def test_rows_run_on_either_path(self):
        hot, reference = on_both_paths(self.over_rows)
        assert hot == reference
        assert hot[0] == (0, 1, 10, 11, *range(2, 10))


class TestLossyTja:
    """TJA over a lossy radio (64 motes, 4% loss, one retry): every
    reply ships through ``send_up``, which draws the loss stream per
    packet, and a drop in any phase raises
    :class:`~repro.errors.RoutingError`. A lossy radio runs the
    reference path whatever the default, so a deployment built under
    the hot default must raise the same drop, leave equal stats,
    ledgers and loss-stream state, and give the same result when the
    execution completes, as one built inside ``reference_path()``."""

    SEEDS = range(12)

    def run(self, seed, agg):
        network = Network(
            grid_topology(8, spacing=10.0, radio_range=15.0),
            radio=RadioModel(range_m=15.0, loss_probability=0.04,
                             max_retries=1),
            seed=seed)
        series = make_series(list(network.tree.sensor_ids), epochs=8,
                             seed=seed)
        tja = Tja(network, make_aggregate(agg, 0.0, 100.0), 3, series)
        try:
            outcome = tja_signature(tja.execute())
        except RoutingError as drop:
            outcome = ("dropped", str(drop))
        return (outcome, stats_signature(network.stats),
                ledger_signature(network), network._rng.getstate())

    @pytest.mark.parametrize("agg", ["AVG", "SUM", "MAX", "MIN"])
    def test_hot_equals_reference(self, agg):
        drops = 0
        for seed in self.SEEDS:
            hot, reference = on_both_paths(self.run, seed, agg)
            assert hot == reference, f"seed {seed}"
            drops += hot[0][0] == "dropped"
        assert 0 < drops < len(self.SEEDS), drops

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

from helpers import make_series, on_both_paths
from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.core.aggregates import make_aggregate
from repro.core.mint import Mint, MintConfig
from repro.core.tja import Tja
from repro.errors import (
    ConfigurationError,
    KSpotError,
    RoutingError,
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


def build_workload(*, seed, k, agg, engines, churn_seed, loss=0.0):
    """One deterministic deployment with its sessions submitted; returns
    ``(driver, handles, network)``. A non-zero ``loss`` deploys it over
    a lossy radio whose retry budget no packet exhausts."""
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    if loss:
        wired = scenario.network
        scenario = dataclasses.replace(scenario, network=Network(
            wired.topology,
            radio=RadioModel(range_m=wired.topology.radio_range,
                             loss_probability=loss, max_retries=20),
            boards={i: node.board for i, node in wired.nodes.items()},
            group_of=scenario.group_of, seed=seed))
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
    return driver, handles, scenario.network


def observe(handles, network):
    """Every observable of a running workload, by field name."""
    return {
        "answers": [answers_of(h) for h in handles],
        "stats": stats_signature(network.stats),
        "taps": [stats_signature(h.stats) for h in handles],
        "ledgers": ledger_signature(network),
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
)
def test_hot_path_equals_reference_path(seed, k, agg, engines, epochs,
                                        churn_seed, loss):
    """The mode matrix: one deployment built on the reference path, one
    hot on numpy and one hot on the pure-python backend, stepped
    interleaved, epoch by epoch, in one process. After every epoch the
    answers, stats by kind and phase, session taps and energy ledgers
    are identical — bit-for-bit — across random scenarios, ranks,
    aggregates, engine mixes, churn schedules and radios. A lossy
    radio runs the reference path on every leg."""
    workload = dict(seed=seed, k=k, agg=agg, engines=engines,
                    churn_seed=churn_seed, loss=loss)
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
    """The full five-engine mix sharing one deployment and one clock:
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
    cover it; this class pins one more five-engine churn case and adds
    the backend split: the pure-python fallback (list sensing, the
    per-hop relay loop) must give the numpy kernel's answers,
    counters, ledgers and RNG draws."""

    def test_columnar_equals_reference_path(self):
        """The columnar kernel and the unoptimized reference path
        produce identical observables on the full five-engine mix with
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
    and to the pure-python backend."""

    @staticmethod
    def _stream():
        session, network = zipf_fila_fleet()
        results = [
            (r.epoch, tuple(r.items), r.exact, dict(r.all_bounds))
            for r in session.run(8)
        ]
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
                                tuple(result.items),
                                dict(result.all_bounds)))
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
    their certification and ``all_bounds``), stats by kind and phase,
    the session tap, per-node ledgers and FILA's ``known`` and
    ``filters`` must equal the reference path's, on either column
    backend."""

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
                      if tree.depth(n) == 3 and tree.subtree_size(n) > 10)
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
                 certification_signature(result.certification),
                 dict(result.all_bounds)),
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
        by_kind = final_stats[1]
        assert min(by_kind["filter_report"], by_kind["filter_update"],
                   by_kind["probe_request"]) > 1000, by_kind
        assert 401 in hot[-1][4], "the newborn must report"


class TestFilaAcrossFlips:
    """One FILA deployment whose column backend flips between epochs: a
    10×10 Zipf fleet, ``TOP 20``, and a relay that dies mid-run with
    the tree repaired. Each epoch's answer, ``all_bounds`` and network
    totals must equal a run on the reference path throughout, whatever
    backend ran the epochs before it. (The execution path is fixed
    when the network is built, so it cannot flip.)"""

    EPOCHS = 12
    DEATH = 6
    #: Epoch → pure-python backend?
    FLIPS = {"backend-every-epoch": lambda epoch: epoch % 2 == 1}

    def run(self, flip):
        session, network = zipf_fila_fleet(side=10, k=20)
        network.subscribe(session.handle_topology_event)
        tree = network.tree
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 2 and tree.subtree_size(n) > 3)
        epochs = []
        for epoch in range(self.EPOCHS):
            with (columnar.force_python_backend() if flip(epoch)
                  else contextlib.nullcontext()):
                if epoch == self.DEATH:
                    network.kill_node(victim)
                result = session.run_epoch()
            epochs.append((
                (result.epoch, result.exact, result.probed,
                 tuple(result.items), dict(result.all_bounds)),
                network.stats.summary(),
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
        assert any(result[2] for result, _ in reference), "FILA must probe"


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


class PerHopNetwork(Network):
    """The relay loop the batch relay kernel replaces: node by node,
    one :meth:`Network._ship_unicast` per hop."""

    def relay_many(self, nodes, down=None, up=None):
        hops = 0
        for node_id in nodes:
            path = self.tree.path_to_root(node_id)
            if down is not None:
                for receiver, sender in zip(path[-2::-1], path[::-1]):
                    self._ship_unicast(sender, receiver, *down)
                    hops += 1
            if up is not None:
                for sender, receiver in zip(path, path[1:]):
                    self._ship_unicast(sender, receiver, *up)
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
    ``_ship_unicast`` loop and the reference path's ``_ship`` per hop
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
        assert network._pending_traffic == {}
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
        assert network._pending_traffic == {}
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
        assert network._pending_traffic == {}
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
        assert scatter[1][1]["filter_report"] > 0


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


def derived_plans(network):
    """The converge-cast and flood plans derived afresh from the tree
    and the nodes' liveness."""
    tree, nodes, sink = network.tree, network.nodes, network.sink_id

    def live_children(node_id):
        return tuple(c for c in tree.children(node_id) if nodes[c].alive)

    converge = tuple(
        (n, tree.parent(n), live_children(n), tree.parent(n) == sink)
        for n in tree.post_order() if n != sink and nodes[n].alive)
    flood = tuple(
        (n, live_children(n)) for n in tree.pre_order()
        if (n == sink or nodes[n].alive) and live_children(n))
    return converge, flood


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
#: ``SensorNode.kill`` (bypassing the network) or a join; the integer
#: picks the victim or the join's anchor.
_CHANGES = st.lists(
    st.tuples(st.sampled_from(["kill", "kill-unrepaired", "node-kill",
                               "join"]),
              st.integers(0, 10_000)),
    min_size=1, max_size=8)


class TestTreePlans:
    """The network caches one converge-cast plan, one flood plan and
    (on numpy) one relay table per topology version; every kill and
    join must invalidate them, and a join's fresh ledger must replace
    the one a killed id left behind."""

    @settings(max_examples=40, deadline=None)
    @given(changes=_CHANGES)
    def test_plans_equal_a_fresh_derivation_after_every_change(
            self, changes):
        network = Network(grid_topology(5))
        next_id = 100
        for kind, pick in [(None, 0), *changes]:
            alive = network.alive_sensor_ids()
            if kind == "join":
                anchors = (network.sink_id, *alive)
                x, y = network.topology.positions[anchors[pick % len(anchors)]]
                network.join_node(next_id, (x + 3.0, y + 4.0))
                next_id += 1
            elif kind is not None and alive:
                victim = alive[pick % len(alive)]
                if kind == "node-kill":
                    network.node(victim).kill()
                else:
                    network.kill_node(victim, repair=kind == "kill")
            plans = (network.converge_cast_plan(), network._flood_plan())
            assert plans == derived_plans(network)
            assert network.converge_cast_plan() is plans[0]
            np = columnar.numpy_module()
            if np is not None:
                table = network._relay_table(np)
                assert relay_table_paths(network, table) == {
                    n: network.tree.path_to_root(n)
                    for n in network.tree.node_ids}
                assert network._relay_table(np) is table


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
    #: FILA reports, probes and reinstalls filters every epoch here.
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
        assert sum(r.probed for r in filter_handle.results[1:]) == 10
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
    every epoch. The adaptive case shrinks slack after quiet epochs, so
    kept views shrink and nodes ship retractions with no new entry."""

    EPOCHS = 10

    @staticmethod
    def node_states(handle):
        mint = handle._session.engine.algorithm
        assert isinstance(mint, Mint)
        return {node_id: (dict(state.reported), state.gamma_reported,
                          dict(state.withheld))
                for node_id, state in mint.states.items()}

    def run(self, mint_config, recreate_at=None):
        scenario = grid_rooms_scenario(side=20, rooms_per_axis=4, seed=11)
        network = scenario.network
        tree = network.tree
        # A relay whose subtree must re-home when it dies.
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 3 and tree.subtree_size(n) > 10)
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
        for epoch in range(self.EPOCHS):
            if epoch == recreate_at:
                for handle in handles:
                    handle._session.engine.algorithm.handle_topology_change()
            driver.step()
            states.append([self.node_states(h) for h in handles])
        return (states, [answers_of(h) for h in handles],
                stats_signature(network.stats), ledger_signature(network),
                [h.recovery for h in handles])

    @pytest.mark.parametrize("mint_config", [
        None, MintConfig(adaptive=True, quiet_epochs=2)],
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

    def test_blunt_recreation_hot_equals_reference(self):
        """``handle_topology_change()`` after the death and the birth
        resets every node, so the next epoch re-runs the creation pass
        over the repaired tree, newborn included: node state after
        every epoch, answers, stats and ledgers must equal the
        reference path's."""
        hot, reference = on_both_paths(self.run, None, recreate_at=8)
        for epoch, (hot_states, reference_states) in enumerate(
                zip(hot[0], reference[0])):
            for session, (h, r) in enumerate(zip(hot_states,
                                                 reference_states)):
                assert h == r, f"epoch {epoch}, session {session + 1}"
        assert hot[1:] == reference[1:]
        # Two creation converge-casts per session: one view per alive
        # mote each (one relay dead, one newborn in by the second).
        creation = hot[2][3]["creation"].messages
        assert creation >= 2 * 4 * 399, creation
        recreated = hot[0][8]
        assert all(not withheld for session in recreated
                   for _, _, withheld in session.values())


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

    def run(self, agg):
        scenario = grid_rooms_scenario(side=20, rooms_per_axis=4, seed=11)
        network = scenario.network
        tree = network.tree
        victim = next(n for n in tree.sensor_ids
                      if tree.depth(n) == 3 and tree.subtree_size(n) > 10)
        x, y = network.topology.positions[victim]
        group = scenario.group_of[victim]
        scenario.field.enroll(401, group)
        schedule = ChurnSchedule([
            ChurnEvent(4, ChurnKind.DEATH, victim),
            ChurnEvent(6, ChurnKind.BIRTH, 401, position=(x + 2.0, y + 2.0),
                       group=group),
        ])
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment, interventions=[
            ChurnIntervention(schedule, board_for=scenario.board_for)])
        handle = deployment.submit(self.QUERY.format(agg=agg))
        driver.run()
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
        by_kind = hot[1][1]
        assert by_kind["lb_reply"] == by_kind["join_reply"] == 400
        assert hot[0][1] >= 3


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
        by_kind = hot[1][1]
        assert by_kind["lb_reply"] == by_kind["join_reply"] == 2 * self.MOTES


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

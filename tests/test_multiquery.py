"""Multi-query sessions through ``repro.api``: shared clock,
exactly-once sampling, serial/concurrent equivalence, lifecycle,
savings aggregation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Deployment, EpochDriver, SessionState
from repro.errors import SessionError, UnknownSessionError
from repro.gui.stats import SystemPanel
from repro.query.plan import Algorithm, QueryClass
from repro.scenarios import conference_scenario, grid_rooms_scenario

#: A pool of epoch-mode queries with distinct plans (different
#: aggregates / k) so concurrent sessions genuinely differ.
EPOCH_QUERIES = (
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
                  "GROUP BY epoch WITH HISTORY 6 s EPOCH DURATION 1 s")


def fresh(seed=5):
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    deployment = Deployment.from_scenario(scenario)
    return scenario, deployment, EpochDriver(deployment)


class TestSerialConcurrentEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(st.integers(min_value=0,
                                   max_value=len(EPOCH_QUERIES) - 1),
                       min_size=2, max_size=4),
        epochs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_concurrent_equals_serial(self, picks, epochs, seed):
        """N concurrent sessions produce exactly the EpochResults of
        the same N queries each run serially on a fresh deployment."""
        queries = [EPOCH_QUERIES[i] for i in picks]

        _, concurrent, driver = fresh(seed)
        handles = [concurrent.submit(q) for q in queries]
        driver.run(epochs)

        for handle, query in zip(handles, queries):
            _, serial, serial_driver = fresh(seed)
            alone = serial.submit(query)
            serial_driver.run(epochs)
            assert handle.results == alone.results

    def test_historic_piggybacks_with_same_answer(self):
        """A TJA session sharing the clock with monitoring queries
        answers exactly what a standalone run answers."""
        _, concurrent, driver = fresh(seed=9)
        concurrent.submit(EPOCH_QUERIES[0])
        hist = concurrent.submit(HISTORIC_QUERY)
        driver.run(10)
        shared_answer = hist.historic_result

        _, standalone, alone_driver = fresh(seed=9)
        alone = standalone.submit(HISTORIC_QUERY)
        alone_driver.run()
        assert shared_answer.items == alone.historic_result.items


class TestExactlyOnceSampling:
    def test_each_board_samples_once_per_epoch(self):
        """The shared clock emits each sensor sample exactly once per
        epoch no matter how many sessions consume it."""
        scenario, deployment, driver = fresh(seed=3)
        for query in EPOCH_QUERIES:
            deployment.submit(query)
        epochs = 7
        driver.run(epochs)
        network = scenario.network
        assert network.epoch == epochs
        for node_id in network.tree.sensor_ids:
            assert network.node(node_id).samples_taken == epochs

    def test_windows_hold_one_entry_per_epoch(self):
        """Shared sampling buffers one history entry per epoch — no
        duplicates from the second session's reads."""
        scenario, deployment, driver = fresh(seed=4)
        deployment.submit(EPOCH_QUERIES[0])
        deployment.submit(EPOCH_QUERIES[1])
        driver.run(5)
        node = scenario.network.node(1)
        epochs_seen = [entry.epoch for entry in node.window.last(10)]
        assert epochs_seen == sorted(set(epochs_seen)) == [0, 1, 2, 3, 4]

    def test_clock_ticks_once_per_step(self):
        scenario, deployment, driver = fresh(seed=6)
        deployment.submit(EPOCH_QUERIES[0])
        deployment.submit(EPOCH_QUERIES[2])
        driver.step()
        assert scenario.network.epoch == 1
        driver.step()
        assert scenario.network.epoch == 2

    def test_idle_energy_charged_once_per_shared_epoch(self):
        """Deferred advance charges idle energy for one epoch, not one
        per session."""
        one_scn, one_dep, one_drv = fresh(seed=8)
        one_dep.submit(EPOCH_QUERIES[0])
        one_drv.run(4)

        many_scn, many_dep, many_drv = fresh(seed=8)
        for query in EPOCH_QUERIES[:3]:
            many_dep.submit(query)
        many_drv.run(4)

        node_one = one_scn.network.node(1)
        node_many = many_scn.network.node(1)
        assert node_many.ledger.idle == node_one.ledger.idle
        assert node_many.ledger.sensing == node_one.ledger.sensing


class TestSessionLifecycle:
    def test_submit_returns_distinct_ids(self):
        _, deployment, _ = fresh()
        a = deployment.submit(EPOCH_QUERIES[0])
        b = deployment.submit(EPOCH_QUERIES[1])
        assert a.id != b.id
        assert deployment.session(a.id).algorithm is Algorithm.MINT
        assert deployment.session(b.id).query_text == EPOCH_QUERIES[1]

    def test_cancel_stops_stepping(self):
        _, deployment, driver = fresh()
        a = deployment.submit(EPOCH_QUERIES[0])
        b = deployment.submit(EPOCH_QUERIES[1])
        driver.step()
        deployment.cancel(a.id)
        outcomes = driver.step()
        assert a.id not in outcomes and b.id in outcomes
        assert len(a.results) == 1
        assert len(b.results) == 2
        assert a.state is SessionState.CANCELLED

    def test_step_without_sessions_rejected(self):
        _, _, driver = fresh()
        with pytest.raises(SessionError, match="no active sessions"):
            driver.step()

    def test_unknown_session_rejected(self):
        _, deployment, _ = fresh()
        with pytest.raises(UnknownSessionError, match="unknown session"):
            deployment.session(99)

    def test_historic_session_finishes_and_stream_stops(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(HISTORIC_QUERY)
        assert handle.is_historic
        assert handle.plan.query_class is QueryClass.HISTORIC_VERTICAL
        ticks = list(driver.stream(50))
        # 6-epoch window: five acquiring steps then the completing one.
        assert len(ticks) == 6
        assert ticks[-1][handle.id] is handle.historic_result
        assert handle.state is SessionState.FINISHED

    def test_run_historic_zero_acquisition_executes_in_place(self):
        """The step that fills the window executes over it in place,
        without further sampling or epoch advance (fill_windows(0)
        semantics): the shared clock ticks once per step."""
        scenario, deployment, driver = fresh(seed=2)
        deployment.submit(EPOCH_QUERIES[0])
        hist = deployment.submit(HISTORIC_QUERY)
        for _ in range(5):
            driver.step()
        assert hist.historic_result is None
        driver.step()
        assert hist.historic_result is not None
        assert hist.state is SessionState.FINISHED
        network = scenario.network
        assert network.epoch == 6
        assert all(network.node(node_id).samples_taken == 6
                   for node_id in network.tree.sensor_ids)

    def test_nested_stat_taps_unregister_by_identity(self):
        """Equal-but-distinct NetworkStats ledgers must not release
        each other's tap."""
        from repro.network.stats import NetworkStats

        scenario, deployment, driver = fresh(seed=2)
        deployment.submit(EPOCH_QUERIES[0])
        outer, inner = NetworkStats(), NetworkStats()
        network = scenario.network
        with network.tap_stats(outer):
            with network.tap_stats(inner):
                pass  # both ledgers equal and empty here
            driver.step()
        assert inner.messages == 0
        assert outer.messages > 0


class TestMultiAttributeBoards:
    def _two_channel_deployment(self, seed=21):
        """A deployment whose boards carry two channels."""
        from repro.network.simulator import Network
        from repro.network.topology import Topology
        from repro.sensing.board import SensorBoard
        from repro.sensing.generators import UniformRandomField

        positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0),
                     3: (5.0, 5.0), 4: (10.0, 5.0)}
        topology = Topology(positions=positions, sink_id=0,
                            radio_range=8.0)
        boards = {
            node_id: SensorBoard({
                "sound": UniformRandomField(0, 100, seed=seed),
                "temperature": UniformRandomField(-10, 60, seed=seed + 1),
            })
            for node_id in positions if node_id != 0
        }
        network = Network(topology, boards=boards,
                          group_of={n: f"R{n % 2}" for n in positions
                                    if n != 0})
        return network, Deployment(network)

    def test_per_attribute_windows_do_not_interleave(self):
        """A historic query on one channel sharing the clock with a
        monitoring query on another must rank only its own channel's
        readings."""
        network, deployment = self._two_channel_deployment()
        driver = EpochDriver(deployment)
        deployment.submit(
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min")
        hist = deployment.submit(
            "SELECT TOP 2 epoch, AVG(temperature) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s")
        driver.run(5)
        shared = hist.historic_result
        assert shared is not None

        node = network.node(1)
        sound = [e.value for e in node.window_for("sound").last(5)]
        temp = [e.value for e in node.window_for("temperature").last(5)]
        assert len(sound) == len(temp) == 5
        assert sound != temp
        assert all(-10 <= v <= 60 for v in temp)

        _, alone_dep = self._two_channel_deployment()
        alone = alone_dep.submit(
            "SELECT TOP 2 epoch, AVG(temperature) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s")
        EpochDriver(alone_dep).run()
        assert alone.historic_result.items == shared.items

    def test_flash_history_not_used_for_interleaved_attributes(self):
        """With flash attached, attribute-specific history must come
        from the per-attribute SRAM window once a second channel has
        been buffered (the flash index interleaves streams)."""
        from repro.storage.flash import FlashModel
        from repro.storage.microhash import MicroHashIndex

        network, deployment = self._two_channel_deployment(seed=33)
        driver = EpochDriver(deployment)
        for node_id in network.tree.sensor_ids:
            network.node(node_id).attach_flash(
                MicroHashIndex(FlashModel(page_bytes=64, pages=256),
                               -10.0, 1000.0))
        deployment.submit(
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min")
        hist = deployment.submit(
            "SELECT TOP 2 epoch, AVG(temperature) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s")
        driver.run(5)
        node = network.node(1)
        entries = node.history(5, attribute="temperature")
        assert [e.value for e in entries] == \
            [e.value for e in node.window_for("temperature").last(5)]
        answer = hist.historic_result
        assert all(-10 <= item.score <= 60 for item in answer.items)


class TestPerSessionAccounting:
    def test_session_stats_partition_the_global_ledger(self):
        """Every shipped message is attributed to exactly one session."""
        scenario, deployment, driver = fresh(seed=12)
        handles = [deployment.submit(q) for q in EPOCH_QUERIES[:3]]
        driver.run(6)
        per_session = [handle.stats for handle in handles]
        total = scenario.network.stats
        assert sum(s.messages for s in per_session) == total.messages
        assert sum(s.payload_bytes for s in per_session) == \
            total.payload_bytes

    def test_system_panels_aggregate_across_sessions(self):
        def factory():
            return conference_scenario(seed=7).network

        scenario = conference_scenario(seed=7)
        deployment = Deployment.from_scenario(scenario,
                                              baseline_factory=factory)
        driver = EpochDriver(deployment)
        for query in EPOCH_QUERIES[:2]:
            deployment.submit(query)
        driver.run(5)
        panels = [handle.system_panel
                  for handle in deployment.sessions()]
        assert all(panel is not None and len(panel.samples) == 5
                   for panel in panels)
        fleet = SystemPanel.aggregate(panel.cumulative for panel in panels)
        assert fleet.payload_bytes == sum(
            p.cumulative.payload_bytes for p in panels)
        assert fleet.baseline_payload_bytes == sum(
            p.cumulative.baseline_payload_bytes for p in panels)
        # MINT sessions never cost more than their TAG shadows.
        assert fleet.payload_bytes <= fleet.baseline_payload_bytes

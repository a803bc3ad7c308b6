"""The layered public API: Deployment / EpochDriver / SessionHandle.

Covers the facade's contracts: declarative construction, session
lifecycle states, push subscriptions (including callback ordering
under churn), the watch iterator, intervention plumbing, driver
policies (max_epochs, stop_when_idle, hooks), admission control, the
Display and System panels, and the session error taxonomy.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import (
    ChurnIntervention,
    Deployment,
    EpochDriver,
    Intervention,
    SessionState,
    SubmissionError,
    UnknownSessionError,
)
from repro.errors import (
    ConfigurationError,
    KSpotError,
    PlanError,
    QueryError,
    SessionError,
)
from repro.gui import DisplayPanel
from repro.gui.stats import RecoveryRecord
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.query.plan import Algorithm
from repro.scenarios import (
    conference_scenario,
    figure1_scenario,
    fleet_scenario,
    grid_rooms_scenario,
)

MONITOR = ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
           "GROUP BY roomid EPOCH DURATION 1 min")
MONITOR_MAX = ("SELECT TOP 1 roomid, MAX(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min")
HISTORIC = ("SELECT TOP 3 epoch, AVG(sound) FROM sensors "
            "GROUP BY epoch WITH HISTORY 5 s EPOCH DURATION 1 s")


def fresh(seed=5, **kwargs):
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=seed)
    deployment = Deployment.from_scenario(scenario, **kwargs)
    return scenario, deployment, EpochDriver(deployment)


class TestDeployment:
    def test_from_scenario_wires_network_groups_and_boards(self):
        scenario, deployment, _ = fresh()
        assert deployment.network is scenario.network
        assert deployment.group_of is scenario.group_of
        assert deployment.scenario is scenario
        board = deployment.board_for(999)
        assert board is not None and "sound" in board.attributes

    def test_scenario_deployment_convenience(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=5)
        deployment = scenario.deployment(max_sessions=3)
        assert deployment.scenario is scenario
        assert deployment.max_sessions == 3

    def test_raw_network_derives_schema(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=5)
        deployment = Deployment(scenario.network,
                                group_of=scenario.group_of)
        assert deployment.scenario is None
        assert deployment.board_for(999) is None
        handle = deployment.submit(MONITOR)
        assert handle.algorithm is Algorithm.MINT

    def test_submit_returns_distinct_handles(self):
        _, deployment, _ = fresh()
        a = deployment.submit(MONITOR)
        b = deployment.submit(MONITOR_MAX)
        assert a.id != b.id
        assert deployment.session(a.id) is a
        assert deployment.sessions() == (a, b)

    def test_bad_query_raises_precise_query_error(self):
        _, deployment, _ = fresh()
        with pytest.raises(QueryError):
            deployment.submit("SELECT AVG(humidity) FROM sensors")
        assert deployment.sessions() == ()

    def test_unknown_session_error(self):
        _, deployment, _ = fresh()
        with pytest.raises(UnknownSessionError, match="unknown session 7"):
            deployment.session(7)
        with pytest.raises(UnknownSessionError):
            deployment.cancel(7)
        # The taxonomy keeps the legacy catch working.
        with pytest.raises(PlanError):
            deployment.session(7)
        with pytest.raises(SessionError):
            deployment.session(7)
        with pytest.raises(KSpotError):
            deployment.session(7)

    @pytest.mark.parametrize("query, algorithm", [
        ("SELECT TOP 2 epoch, AVG(sound) FROM sensors "
         "GROUP BY epoch WITH HISTORY 1500 s EPOCH DURATION 1 s", None),
        ("SELECT TOP 1 roomid, AVG(sound) FROM sensors "
         "GROUP BY roomid WITH HISTORY 2000 s EPOCH DURATION 1 s", None),
        ("SELECT TOP 1 roomid, AVG(sound) FROM sensors "
         "GROUP BY roomid WITH HISTORY 2000 s EPOCH DURATION 1 s",
         Algorithm.TAG),
    ], ids=["historic-vertical", "windowed-mint", "windowed-tag"])
    def test_history_past_the_window_is_rejected(self, query, algorithm):
        """Each mote's SRAM window holds 1,024 readings. A longer
        history would be answered, and marked exact, from the readings
        the window had not yet evicted."""
        scenario = grid_rooms_scenario(side=3, rooms_per_axis=1, seed=2)
        deployment = Deployment.from_scenario(scenario)
        with pytest.raises(PlanError, match="1500|2000") as raised:
            deployment.submit(query, algorithm=algorithm)
        assert "1024 readings" in str(raised.value)
        assert deployment.sessions() == ()

    def test_history_within_the_window_is_accepted(self):
        vertical = ("SELECT TOP 2 epoch, AVG(sound) FROM sensors "
                    "GROUP BY epoch WITH HISTORY {} s EPOCH DURATION 1 s")
        windowed = ("SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                    "GROUP BY roomid WITH HISTORY {} s EPOCH DURATION 1 s")
        scenario = grid_rooms_scenario(side=3, rooms_per_axis=1, seed=2)
        deployment = Deployment.from_scenario(scenario)
        deployment.submit(vertical.format(1024))
        deployment.submit(windowed.format(1024))
        assert len(deployment.sessions()) == 2

    @pytest.mark.parametrize("limit", [0, -1, 2.5, True])
    def test_bad_admission_limit_rejected(self, limit):
        with pytest.raises(ConfigurationError, match="max_sessions"):
            fresh(max_sessions=limit)

    def test_admission_limit(self):
        _, deployment, driver = fresh(max_sessions=2)
        deployment.submit(MONITOR)
        b = deployment.submit(MONITOR_MAX)
        with pytest.raises(SubmissionError, match="admission limit"):
            deployment.submit(MONITOR)
        # Cancelled sessions free their slot.
        deployment.cancel(b.id)
        c = deployment.submit(MONITOR)
        assert c.state is SessionState.PENDING

    @pytest.mark.parametrize("query", [None, 5, MONITOR.encode()],
                             ids=["none", "int", "bytes"])
    def test_non_string_query_is_a_submission_error(self, query):
        _, deployment, _ = fresh()
        with pytest.raises(SubmissionError, match="query_text must be a "
                           "string, got " + type(query).__name__):
            deployment.submit(query)
        assert deployment.sessions() == ()

    @pytest.mark.parametrize("algorithm", ["fila", 3, Algorithm],
                             ids=["string", "int", "enum-class"])
    def test_bad_algorithm_is_a_submission_error(self, algorithm):
        _, deployment, _ = fresh()
        with pytest.raises(SubmissionError, match="algorithm must be an "
                           "Algorithm") as raised:
            deployment.submit(MONITOR, algorithm=algorithm)
        assert all(a.value in str(raised.value) for a in Algorithm)
        assert deployment.sessions() == ()

    def test_labels_that_print_alike_are_rejected(self):
        """Equal scores rank by ``str(group)``: the clusters ``1`` and
        ``"1"`` would tie in an order the hot path cannot reproduce.
        Grouping by ``nodeid`` never reads the cluster labels."""
        scenario = grid_rooms_scenario(side=3, rooms_per_axis=1, seed=2)
        labels = {node_id: 1 if node_id % 2 else "1"
                  for node_id in scenario.group_of}
        deployment = Deployment(scenario.network, group_of=labels)
        with pytest.raises(PlanError, match="print alike"):
            deployment.submit(MONITOR_MAX)
        assert deployment.sessions() == ()
        handle = deployment.submit(
            "SELECT TOP 2 nodeid, MAX(sound) FROM sensors "
            "GROUP BY nodeid EPOCH DURATION 1 min",
            algorithm=Algorithm.FILA)
        assert handle.state is SessionState.PENDING

    @pytest.mark.parametrize("agg", ["MAX", "MIN", "COUNT"])
    def test_tput_over_anything_but_sum_or_avg_is_rejected(self, agg):
        """TPUT ranks by SUM or AVG: ``submit`` refuses any other
        aggregate, so it never reaches a driver step, and the sessions
        already on the deployment keep stepping."""
        deployment = Deployment.from_scenario(
            grid_rooms_scenario(side=3, rooms_per_axis=1, seed=2))
        driver = EpochDriver(deployment)
        monitor = deployment.submit(MONITOR)
        with pytest.raises(PlanError):
            deployment.submit(
                f"SELECT TOP 2 epoch, {agg}(sound) FROM sensors GROUP BY "
                f"epoch WITH HISTORY 3 s EPOCH DURATION 1 s",
                algorithm=Algorithm.TPUT)
        assert deployment.sessions() == (monitor,)
        driver.run(5)
        assert len(monitor.results) == 5
        tput = deployment.submit(HISTORIC, algorithm=Algorithm.TPUT)
        driver.run(6)
        assert tput.historic_result is not None

    def test_live_registry_stays_bounded(self):
        """Cancelled sessions leave the live map at the next walk, so
        its size tracks the live set over any number of submissions;
        the full registry and the handles keep every session."""
        _, deployment, _ = fresh()
        handles = []
        for cycle in range(1000):
            handle = deployment.submit(MONITOR)
            handles.append(handle)
            if cycle % 10:
                deployment.cancel(handle.id)
            if cycle % 7 == 0:
                active = deployment.active_sessions()
                assert len(deployment._live) == len(active)
        registry = deployment._sessions
        active = deployment.active_sessions()
        assert active == tuple(s for s in registry.values() if s.active)
        assert [s.session_id for s in active] == list(range(1, 1001, 10))
        assert deployment.sessions() == tuple(handles)
        assert list(deployment._live.values()) == list(active)
        assert all(s.active for s in deployment._live.values())


class TestSessionState:
    def test_monitoring_lifecycle(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        assert handle.state is SessionState.PENDING
        assert not handle.state.terminal
        driver.step()
        assert handle.state is SessionState.RUNNING
        deployment.cancel(handle.id)
        assert handle.state is SessionState.CANCELLED
        assert handle.state.terminal
        # Results remain readable after cancellation.
        assert len(handle.results) == 1

    def test_historic_lifecycle(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(HISTORIC)
        assert handle.is_historic
        assert handle.state is SessionState.PENDING
        driver.step()
        assert handle.state is SessionState.RUNNING
        driver.run()
        assert handle.state is SessionState.FINISHED
        assert handle.state.terminal
        assert len(handle.historic_result.items) == 3

    def test_stopped_sessions_release_their_engines(self):
        """A cancelled session and a finished historic one drop their
        engine and their shadow-baseline engine: the registry keeps
        every session for its handle, and must not keep their
        algorithm state alive. What a handle reads stays readable."""
        def shadow():
            return grid_rooms_scenario(side=4, rooms_per_axis=2,
                                       seed=5).network

        _, deployment, driver = fresh(baseline_factory=shadow)
        monitor = deployment.submit(MONITOR)
        historic = deployment.submit(HISTORIC)
        engines = [weakref.ref(engine)
                   for session in deployment.active_sessions()
                   for engine in (session.engine, session.baseline_engine)
                   if engine is not None]
        assert len(engines) == 3
        driver.run(6)  # the historic session finishes at its fifth step
        deployment.cancel(monitor.id)
        gc.collect()
        assert [ref() for ref in engines] == [None, None, None]
        assert monitor.state is SessionState.CANCELLED
        assert historic.state is SessionState.FINISHED
        assert len(monitor.results) == 6
        assert len(historic.historic_result.items) == 3
        assert monitor.stats.messages > 0 and historic.stats.messages > 0
        assert monitor.recovery.records == historic.recovery.records == []
        assert len(monitor.system_panel.samples) == 6
        assert historic.system_panel is None
        assert (monitor.plan.k, historic.plan.k) == (2, 3)

    def test_cancelled_session_releases_its_shadow_network(self):
        """The System Panel keeps the shadow baseline's stats, a ledger
        that refers to no network: a cancelled session must let the
        shadow network go, and its panel must read the same samples and
        totals afterwards."""
        shadows = []

        def shadow():
            network = fleet_scenario(25, seed=3).network
            shadows.append(weakref.ref(network))
            return network

        deployment = Deployment.from_scenario(fleet_scenario(25, seed=3),
                                              baseline_factory=shadow)
        handle = deployment.submit(MONITOR)
        EpochDriver(deployment).run(4)
        panel = handle.system_panel
        samples, cumulative = list(panel.samples), panel.cumulative
        assert cumulative.baseline_messages > 0
        deployment.cancel(handle.id)
        gc.collect()
        assert [ref() for ref in shadows] == [None]
        assert panel.samples == samples
        assert panel.cumulative == cumulative

    def test_cancelled_historic_session_does_not_execute(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(HISTORIC)
        driver.step()
        session = deployment.active_sessions()[0]
        deployment.cancel(handle.id)
        with pytest.raises(SessionError, match="no longer active"):
            session.step()
        assert handle.historic_result is None
        assert handle.state is SessionState.CANCELLED

    def test_handle_accessors_are_typed_views(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        driver.run(3)
        assert handle.query_text == MONITOR
        assert handle.plan.k == 2
        assert handle.algorithm is Algorithm.MINT
        assert len(handle.results) == 3
        assert handle.last_result is handle.results[-1]
        assert handle.historic_result is None
        assert handle.stats.messages > 0
        assert handle.recovery.records == []
        assert handle.system_panel is None
        # results is a snapshot, not the live list.
        snapshot = handle.results
        driver.step()
        assert len(snapshot) == 3 and len(handle.results) == 4


class TestWatch:
    def test_watch_drives_and_yields_each_result_once(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        seen = [r.epoch for r in handle.watch(driver, epochs=4)]
        assert seen == [0, 1, 2, 3]

    def test_watch_without_driver_drains_buffered(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        driver.run(3)
        assert [r.epoch for r in handle.watch()] == [0, 1, 2]

    def test_watch_yields_historic_answer_last_and_stops(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(HISTORIC)
        items = list(handle.watch(driver, epochs=50))
        # 5-epoch window: no epoch results, one final answer.
        assert items == [handle.historic_result]
        assert handle.state is SessionState.FINISHED

    def test_unbounded_watch_of_monitoring_session_rejected(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        # Raises at the call site, not at the first next().
        with pytest.raises(ConfigurationError, match="unbounded watch"):
            handle.watch(driver)
        # Bounded by the driver's own policy it is fine.
        bounded = EpochDriver(deployment, max_epochs=2)
        assert len(list(handle.watch(bounded))) == 2

    @pytest.mark.parametrize("epochs", [-1, 1.5, True, "3"])
    def test_watch_refuses_a_bad_epoch_count(self, epochs):
        """watch() checks its count as EpochDriver.run does: at the
        call site, stepping nothing; 0 steps nothing either."""
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        with pytest.raises(ConfigurationError,
                           match="non-negative integer"):
            handle.watch(driver, epochs=epochs)
        assert list(handle.watch(driver, epochs=0)) == []
        assert deployment.network.epoch == 0

    def test_watch_rejects_foreign_driver(self):
        """A driver bound to another deployment can never advance this
        session — refuse at the call site instead of spinning."""
        _, deployment, _ = fresh(seed=5)
        handle = deployment.submit(HISTORIC)
        _, _, foreign_driver = fresh(seed=6)
        with pytest.raises(ConfigurationError,
                           match="different deployment"):
            handle.watch(foreign_driver, epochs=3)

    def test_unbounded_watch_of_terminal_session_drains(self):
        """A cancelled session is no infinite loop: watch() drains its
        produced results and returns even with no epoch bound."""
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        driver.run(3)
        deployment.cancel(handle.id)
        assert [r.epoch for r in handle.watch(driver)] == [0, 1, 2]

    def test_reprs_are_informative(self):
        scenario, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        intervention = scenario.churn_intervention(3, seed=1)
        driver.add_intervention(intervention)
        driver.run(2)
        assert "sessions active" in repr(deployment)
        assert "driven 2" in repr(driver)
        assert "running" in repr(handle)
        assert "applied" in repr(intervention)

    def test_watch_interleaves_with_other_sessions(self):
        """watch() steps the shared clock, so sibling sessions advance
        too — it is a view on the driver, not a private loop."""
        _, deployment, driver = fresh()
        a = deployment.submit(MONITOR)
        b = deployment.submit(MONITOR_MAX)
        list(a.watch(driver, epochs=3))
        assert len(b.results) == 3


class TestPushSubscriptions:
    def test_on_result_fires_per_epoch(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        epochs = []
        handle.on_result(lambda r: epochs.append(r.epoch))
        driver.run(3)
        assert epochs == [0, 1, 2]

    def test_on_result_fires_for_historic_answer(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(HISTORIC)
        answers = []
        handle.on_result(answers.append)
        driver.run()
        assert answers == [handle.historic_result]

    def test_recovery_callback_fires_before_that_epochs_result(self):
        """On an epoch absorbing churn, on_recovery precedes on_result
        — recovery runs before acquisition, push order reflects it."""
        scenario, deployment, driver = fresh(seed=23)
        victim = next(n for n in scenario.network.tree.sensor_ids
                      if scenario.network.tree.is_leaf(n))
        schedule = ChurnSchedule([ChurnEvent(2, ChurnKind.DEATH, victim)])
        driver.add_intervention(ChurnIntervention(schedule))
        handle = deployment.submit(MONITOR)
        events = []
        handle.on_result(lambda r: events.append(("result", r.epoch)))
        handle.on_recovery(
            lambda record: events.append(("recovery", record.epoch)))
        driver.run(4)
        assert ("recovery", 2) in events
        assert events.index(("recovery", 2)) \
            == events.index(("result", 2)) - 1
        # Exactly one recovery pass; every epoch produced a result.
        assert [e for e in events if e[0] == "result"] \
            == [("result", epoch) for epoch in range(4)]
        record = handle.recovery.records[0]
        assert isinstance(record, RecoveryRecord)
        assert record.failed == (victim,)


class TestInterventions:
    def test_hooks_called_in_order_with_epochs(self):
        calls = []

        class Probe(Intervention):
            def before_epoch(self, deployment, epoch):
                calls.append(("before", epoch))

            def after_epoch(self, deployment, epoch, outcomes):
                calls.append(("after", epoch, sorted(outcomes)))

        _, deployment, _ = fresh()
        driver = EpochDriver(deployment, interventions=[Probe()])
        handle = deployment.submit(MONITOR)
        driver.run(2)
        assert calls == [("before", 0), ("after", 1, [handle.id]),
                         ("before", 1), ("after", 2, [handle.id])]

    def test_churn_intervention_applies_and_records(self):
        scenario, deployment, driver = fresh(seed=11)
        tree = scenario.network.tree
        victim = next(n for n in tree.sensor_ids if tree.is_leaf(n))
        born = max(tree.sensor_ids) + 1
        anchor = min(n for n in tree.sensor_ids if n != victim)
        ax, ay = scenario.network.topology.positions[anchor]
        schedule = ChurnSchedule([
            ChurnEvent(1, ChurnKind.DEATH, victim),
            ChurnEvent(2, ChurnKind.BIRTH, born,
                       position=(ax + 2.0, ay + 2.0),
                       group=scenario.group_of.get(anchor)),
        ])
        intervention = ChurnIntervention(schedule)
        driver.add_intervention(intervention)
        handle = deployment.submit(MONITOR)
        driver.run(4)
        assert [e.node_id for e in intervention.applied] == [victim, born]
        assert not scenario.network.nodes[victim].alive
        # Default board_for comes from the scenario: the newborn senses.
        assert scenario.network.node(born).board is not None
        assert handle.recovery.failures == 1
        assert handle.recovery.joins == 1

    def test_scenario_churn_intervention_convenience(self):
        scenario, deployment, driver = fresh(seed=2)
        intervention = scenario.churn_intervention(6, preset="harsh",
                                                  seed=3)
        driver.add_intervention(intervention)
        handle = deployment.submit(MONITOR)
        driver.run(6)
        assert len(handle.results) == 6
        assert intervention.schedule.events  # harsh preset churns


class TestDriverPolicies:
    def test_step_without_sessions_raises(self):
        _, _, driver = fresh()
        with pytest.raises(SessionError, match="no active sessions"):
            driver.step()

    def test_refused_step_does_not_apply_interventions(self):
        """A step with nobody listening must not mutate the world —
        churn applied then would kill nodes no session ever detects."""
        scenario, _, driver = fresh(seed=19)
        victim = next(iter(scenario.network.tree.sensor_ids))
        schedule = ChurnSchedule([ChurnEvent(0, ChurnKind.DEATH, victim)])
        intervention = ChurnIntervention(schedule)
        driver.add_intervention(intervention)
        with pytest.raises(SessionError, match="no active sessions"):
            driver.step()
        assert intervention.applied == []
        assert scenario.network.nodes[victim].alive

    def test_max_epochs_budget(self):
        _, deployment, _ = fresh()
        driver = EpochDriver(deployment, max_epochs=3)
        deployment.submit(MONITOR)
        assert len(list(driver.stream(10))) == 3
        with pytest.raises(SessionError, match="max_epochs"):
            driver.step()

    @pytest.mark.parametrize("epochs", [-3, 2.5, "3", True])
    def test_malformed_epoch_count_rejected(self, epochs):
        _, deployment, driver = fresh()
        deployment.submit(MONITOR)
        with pytest.raises(ConfigurationError, match="epochs"):
            driver.run(epochs)
        with pytest.raises(ConfigurationError, match="epochs"):
            driver.stream(epochs)
        assert driver.epochs_driven == 0

    @pytest.mark.parametrize("budget", [-2, 1.5])
    def test_malformed_max_epochs_rejected(self, budget):
        _, deployment, _ = fresh()
        with pytest.raises(ConfigurationError, match="max_epochs"):
            EpochDriver(deployment, max_epochs=budget)

    def test_zero_epochs_drive_nothing(self):
        _, deployment, _ = fresh()
        driver = EpochDriver(deployment, max_epochs=0)
        handle = deployment.submit(MONITOR)
        assert driver.run(0) == {handle.id: ()}
        assert list(driver.stream(3)) == []

    def test_stop_when_idle_ends_stream(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(HISTORIC)
        ticks = list(driver.stream(50))
        # 5-epoch window: four acquiring steps then the completing one.
        assert len(ticks) == 5
        assert ticks[-1][handle.id] is handle.historic_result

    def test_unbounded_run_with_monitoring_session_rejected(self):
        _, deployment, driver = fresh()
        deployment.submit(MONITOR)
        with pytest.raises(ConfigurationError, match="unbounded"):
            driver.run()
        # stream() validates eagerly too — the error surfaces where the
        # policy mistake was made, not wherever the iterator drains.
        with pytest.raises(ConfigurationError, match="unbounded"):
            driver.stream()

    def test_unbounded_run_without_idle_stop_rejected(self):
        _, deployment, _ = fresh()
        driver = EpochDriver(deployment, stop_when_idle=False)
        deployment.submit(HISTORIC)
        with pytest.raises(ConfigurationError, match="unbounded"):
            driver.run()

    def test_stopped_session_error_is_catchable_precisely(self):
        _, deployment, driver = fresh()
        handle = deployment.submit(MONITOR)
        driver.step()
        deployment.cancel(handle.id)
        with pytest.raises(SessionError, match="no longer active"):
            deployment.active_sessions()  # empty now
            deployment._sessions[handle.id].step()

    def test_on_step_hooks(self):
        _, deployment, _ = fresh()
        seen = []
        driver = EpochDriver(
            deployment,
            on_step=lambda drv, outcomes: seen.append(("ctor", drv.epoch)))
        driver.add_hook(
            lambda drv, outcomes: seen.append(("added", drv.epoch)))
        deployment.submit(MONITOR)
        driver.run(2)
        assert seen == [("ctor", 1), ("added", 1), ("ctor", 2),
                        ("added", 2)]

    def test_run_returns_per_session_streams(self):
        _, deployment, driver = fresh()
        a = deployment.submit(MONITOR)
        b = deployment.submit(MONITOR_MAX)
        streams = driver.run(3)
        assert set(streams) == {a.id, b.id}
        assert streams[a.id] == a.results
        assert len(streams[b.id]) == 3


class TestPanels:
    def test_display_panel_rerank(self):
        scenario = figure1_scenario()
        display = DisplayPanel(
            width=50, height=30,
            positions={n: (min(p[0], 50), min(max(p[1], 0), 30))
                       for n, p in
                       scenario.network.topology.positions.items()},
            cluster_of=dict(scenario.group_of))
        deployment = Deployment.from_scenario(scenario, display=display)
        deployment.submit("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                          "GROUP BY roomid")
        EpochDriver(deployment).run(1)
        assert display.bullets[0].cluster == "C"
        assert display.bullets[0].rank == 1

    def test_shadow_baseline_feeds_system_panel(self):
        scenario = conference_scenario(seed=7)
        shadow = conference_scenario(seed=7)
        deployment = Deployment.from_scenario(
            scenario, baseline_factory=lambda: shadow.network)
        handle = deployment.submit(
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min")
        EpochDriver(deployment).run(6)
        panel = handle.system_panel
        assert panel is not None
        assert len(panel.samples) == 6
        # MINT never costs more than TAG on the same readings.
        assert panel.cumulative.payload_bytes <= \
            panel.cumulative.baseline_payload_bytes
        # The shadow ran the same number of epochs.
        assert shadow.network.epoch == scenario.network.epoch

    def test_identical_answers_to_baseline(self):
        query = ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                 "GROUP BY roomid EPOCH DURATION 1 min")
        scenario = conference_scenario(seed=7)
        shadow = conference_scenario(seed=7)
        deployment = Deployment.from_scenario(
            scenario, baseline_factory=lambda: shadow.network)
        handle = deployment.submit(query)
        tag = Deployment.from_scenario(conference_scenario(seed=7))
        tag_handle = tag.submit(query, algorithm=Algorithm.TAG)
        tag_driver = EpochDriver(tag)
        for _outcomes in EpochDriver(deployment).stream(5):
            tag_driver.step()
            # The shadow baseline steps with every epoch of the session.
            assert handle.system_panel is not None
            assert shadow.network.epoch == scenario.network.epoch
            assert handle.last_result.keys == tag_handle.last_result.keys
        assert len(handle.results) == 5
        assert shadow.network.epoch == scenario.network.epoch


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(SessionError, PlanError)
        assert issubclass(UnknownSessionError, SessionError)
        assert issubclass(SubmissionError, SessionError)
        for exc in (SessionError("x"), UnknownSessionError("x"),
                    SubmissionError("x")):
            assert isinstance(exc, KSpotError)

"""Churn subsystem: lifecycle hooks, typed events, tree invariants.

The hypothesis suites check the invariants the whole recovery story
leans on: after *any* sequence of kills and joins the routing tree is
still a tree — connected, acyclic, rooted at the sink, one parent per
alive sensor, every edge within radio range — and concurrent sessions
still agree with serial ones under identical churn.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import on_both_paths
from repro.core.aggregates import make_aggregate
from repro.core.results import is_valid_top_k, oracle_scores
from repro.errors import ConfigurationError, PlanError, TopologyError
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.network.events import TopologyEvent, TopologyEventKind
from repro.network.simulator import Network
from repro.network.topology import grid_topology
from repro.query.plan import Algorithm
from repro.scenarios import (
    CHURN_PRESETS,
    churn_schedule,
    grid_rooms_scenario,
)
from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.sensing.modalities import get_modality


def assert_tree_invariants(network):
    """The routing tree is a tree over exactly the alive population."""
    tree = network.tree
    topology = network.topology
    alive = {n for n, node in network.nodes.items() if node.alive}
    assert set(tree.node_ids) == alive | {network.sink_id}
    for node_id in tree.sensor_ids:
        parent = tree.parent(node_id)  # exactly one parent, by dict
        assert parent in tree.node_ids
        # Every tree edge is a usable radio link.
        assert (topology.distance(node_id, parent)
                <= topology.radio_range + 1e-9)
        # Acyclic and rooted: the parent chain reaches the sink in at
        # most |tree| hops, and depths agree with it.
        path = tree.path_to_root(node_id)
        assert len(path) <= len(tree.node_ids)
        assert path[-1] == network.sink_id
        assert tree.depth(node_id) == len(path) - 1


class TestLifecycleHooks:
    def test_kill_sink_is_a_configuration_error(self):
        net = Network(grid_topology(3))
        with pytest.raises(ConfigurationError):
            net.kill_node(net.sink_id)

    def test_join_out_of_range_refused_and_rolled_back(self):
        net = Network(grid_topology(3))
        with pytest.raises(TopologyError):
            net.join_node(99, (1e6, 1e6))
        assert 99 not in net.topology.positions
        assert 99 not in net.tree.node_ids

    def test_join_alive_id_refused(self):
        net = Network(grid_topology(3))
        with pytest.raises(ConfigurationError):
            net.join_node(1, (5.0, 5.0))

    def test_dead_node_may_rejoin_fresh(self):
        net = Network(grid_topology(3))
        net.kill_node(5)
        parent = net.join_node(5, (12.0, 8.0))
        assert net.node(5).alive
        assert net.tree.parent(5) == parent
        assert_tree_invariants(net)

    def test_join_prefers_least_drained_parent(self):
        net = Network(grid_topology(2))
        # Drain one sink neighbour; the joiner placed between the two
        # must pick the fresher one.
        from repro.network.messages import ControlMessage

        a, b = net.tree.children(net.sink_id)[:2]
        net.send_up(a, ControlMessage(label="drain", size=64))
        midpoint = tuple(
            (net.topology.positions[a][i] + net.topology.positions[b][i]) / 2
            for i in (0, 1))
        parent = net.join_node(99, midpoint)
        assert parent != a

    def test_events_published_with_dirty_closure(self):
        net = Network(grid_topology(3))
        seen: list[TopologyEvent] = []
        net.subscribe(seen.append)
        victim = next(n for n in net.tree.sensor_ids
                      if net.tree.children(n))
        net.kill_node(victim)
        net.join_node(42, (11.0, 11.0))
        assert [e.kind for e in seen] == [TopologyEventKind.NODE_FAILED,
                                          TopologyEventKind.NODE_JOINED]
        failure, join = seen
        assert failure.node_id == victim and failure.failed
        assert join.node_id == 42 and join.joined
        assert join.reattached and join.reattached[0][0] == 42
        # dirty sets are upward-closed: each dirty node's parent is
        # dirty too (or the sink).
        for event in seen:
            for node_id in event.dirty:
                parent = net.tree.parent(node_id)
                assert parent == net.sink_id or parent in event.dirty

    def test_partitioned_survivors_are_detached(self):
        from repro.network.topology import linear_topology

        net = Network(linear_topology(3))
        seen: list[TopologyEvent] = []
        net.subscribe(seen.append)
        net.kill_node(2)
        # Node 3 only heard the sink through 2: it is alive hardware
        # the deployment can no longer reach, so it leaves the fleet.
        assert not net.node(3).alive
        assert set(net.tree.node_ids) == {net.sink_id, 1}
        assert {e.node_id for e in seen} == {2, 3}
        assert_tree_invariants(net)

    def test_incremental_repair_leaves_distant_subtrees_alone(self):
        net = Network(grid_topology(4))
        victim = next(n for n in net.tree.sensor_ids
                      if net.tree.children(n))
        untouched = {
            n: net.tree.parent(n) for n in net.tree.sensor_ids
            if n != victim and net.tree.parent(n) != victim
        }
        net.kill_node(victim)
        moved = sum(1 for n, p in untouched.items()
                    if n in net.tree.node_ids and net.tree.parent(n) != p)
        # Only the orphaned subtree re-parents; everyone else keeps
        # their pointer (a full BFS rebuild offers no such promise).
        assert moved == 0


class TestSchedules:
    def test_failure_schedule_excludes_sink(self):
        schedule = ChurnSchedule.random_deaths(
            range(0, 10), count=9, epochs=30, seed=1)
        assert all(e.node_id != 0 for e in schedule.events)

    def test_failure_schedule_pool_without_sink_too_small(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule.random_deaths([0, 1, 2], count=3, epochs=10)

    def test_churn_random_deaths_excludes_sink(self):
        schedule = ChurnSchedule.random_deaths(
            range(0, 8), count=7, epochs=20, seed=3)
        assert all(e.node_id != 0 for e in schedule.events)
        assert all(e.kind is ChurnKind.DEATH for e in schedule.events)

    def test_birth_requires_position(self):
        with pytest.raises(ConfigurationError):
            ChurnEvent(1, ChurnKind.BIRTH, 9)

    def test_poisson_deterministic_and_sink_safe(self):
        topology = grid_topology(4)
        a = ChurnSchedule.poisson(topology, 40, death_rate=0.3,
                                  birth_rate=0.2, seed=9)
        b = ChurnSchedule.poisson(topology, 40, death_rate=0.3,
                                  birth_rate=0.2, seed=9)
        assert a.events == b.events
        assert all(e.node_id != topology.sink_id for e in a.events)
        assert a.deaths and a.births

    def test_poisson_respects_min_population(self):
        topology = grid_topology(3)
        schedule = ChurnSchedule.poisson(topology, 200, death_rate=1.0,
                                         birth_rate=0.0, seed=2,
                                         min_population=5)
        assert len(schedule.deaths) <= 9 - 5

    def test_harsh_floor_counts_scheduled_survivors_not_reachable_motes(
            self):
        """Replaying one seeded ``harsh`` schedule on a 6×6 grid: the
        motes the schedule has not killed never fall below the floor,
        while the motes that can reach the sink do, because a death
        that partitions the tree detaches its live subtree too."""
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=7)
        network = scenario.network
        scheduled = {n for n in network.topology.node_ids
                     if n != network.sink_id}
        floor = len(scheduled) // 2
        schedule = churn_schedule(scenario, 200, preset="harsh", seed=7)
        reachable = []
        for epoch in range(200):
            for event in schedule.due(epoch):
                if event.kind is ChurnKind.BIRTH:
                    scheduled.add(event.node_id)
                else:
                    scheduled.discard(event.node_id)
            schedule.apply(network, epoch, board_for=scenario.board_for)
            assert len(scheduled) >= floor
            alive = {n for n, node in network.nodes.items()
                     if node.alive and n != network.sink_id}
            assert alive == set(network.tree.sensor_ids)
            reachable.append(len(alive))
        assert min(reachable) < floor

    def test_scenario_presets_cover_all_names(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=2)
        for preset in CHURN_PRESETS:
            schedule = churn_schedule(scenario, 30, preset=preset, seed=4)
            assert all(e.epoch < 30 for e in schedule.events)
        with pytest.raises(ConfigurationError):
            churn_schedule(scenario, 30, preset="apocalyptic")

    def test_same_epoch_birth_and_death_both_apply(self):
        net = Network(grid_topology(3))
        anchor = min(net.tree.sensor_ids)
        ax, ay = net.topology.positions[anchor]
        born = max(net.tree.sensor_ids) + 1
        schedule = ChurnSchedule([
            ChurnEvent(0, ChurnKind.BIRTH, born, position=(ax + 2, ay + 2)),
            ChurnEvent(0, ChurnKind.DEATH, born),
        ])
        applied = schedule.apply(net, 0)
        assert len(applied) == 2
        assert not net.nodes[born].alive
        assert_tree_invariants(net)

    def test_preset_newborns_sense_their_inherited_room(self):
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=41)
        schedule = churn_schedule(scenario, 20, preset="harsh", seed=8)
        assert schedule.births, "harsh preset should schedule births"
        for event in schedule.births:
            level = scenario.field.room_level(event.group, 10)
            reading = scenario.field.value(event.node_id, 10)
            # Enrolled into the room walk, not reading the 0.0 floor.
            assert abs(reading - level) < 10.0

    def test_failure_schedule_skips_unknown_victims(self):
        net = Network(grid_topology(3))
        schedule = ChurnSchedule([ChurnEvent(0, ChurnKind.DEATH, 5),
                                  ChurnEvent(0, ChurnKind.DEATH, 999)])
        assert [e.node_id for e in schedule.apply(net, 0)] == [5]

    def test_apply_batches_deaths_and_skips_dead(self):
        net = Network(grid_topology(4))
        schedule = ChurnSchedule([
            ChurnEvent(0, ChurnKind.DEATH, 5),
            ChurnEvent(0, ChurnKind.DEATH, 6),
            ChurnEvent(2, ChurnKind.DEATH, 5),
        ])
        applied = schedule.apply(net, 0)
        assert {e.node_id for e in applied} == {5, 6}
        assert_tree_invariants(net)
        assert schedule.apply(net, 2) == ()

    def test_due_index_tracks_any_mutation(self):
        """due() must never serve stale events — appends, removals and
        length-preserving replacements all show at the next call."""
        schedule = ChurnSchedule([ChurnEvent(1, ChurnKind.DEATH, 5)])
        assert [e.node_id for e in schedule.due(1)] == [5]
        schedule.events.append(ChurnEvent(1, ChurnKind.DEATH, 6))
        assert [e.node_id for e in schedule.due(1)] == [5, 6]
        # Replace in place: same length, different event.
        schedule.events[0] = ChurnEvent(3, ChurnKind.DEATH, 7)
        assert [e.node_id for e in schedule.due(1)] == [6]
        assert [e.node_id for e in schedule.due(3)] == [7]
        del schedule.events[0]
        assert schedule.due(3) == ()


class TestChurnInvariants:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_tree_invariants_under_any_event_sequence(self, data):
        side = data.draw(st.integers(2, 4), label="side")
        net = Network(grid_topology(side))
        next_id = max(net.tree.sensor_ids) + 1
        steps = data.draw(st.integers(1, 10), label="events")
        for _ in range(steps):
            alive = net.alive_sensor_ids()
            join = (len(alive) <= 1
                    or data.draw(st.booleans(), label="join?"))
            if join:
                anchor = data.draw(
                    st.sampled_from(sorted(net.tree.node_ids)),
                    label="anchor")
                ax, ay = net.topology.positions[anchor]
                angle = data.draw(st.floats(0, 2 * math.pi,
                                            allow_nan=False),
                                  label="angle")
                radius = 0.6 * net.topology.radio_range
                net.join_node(next_id, (ax + radius * math.cos(angle),
                                        ay + radius * math.sin(angle)))
                next_id += 1
            else:
                victim = data.draw(st.sampled_from(sorted(alive)),
                                   label="victim")
                net.kill_node(victim)
            assert_tree_invariants(net)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_serial_and_concurrent_sessions_agree_under_identical_churn(
            self, seed):
        queries = [
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min",
            "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min",
        ]
        epochs = 8

        def final_answers(concurrent: bool):
            answers = []
            if concurrent:
                scenario = grid_rooms_scenario(side=4, rooms_per_axis=2,
                                               seed=17)
                schedule = churn_schedule(scenario, epochs, preset="harsh",
                                          seed=seed)
                deployment = Deployment.from_scenario(scenario)
                handles = [deployment.submit(q) for q in queries]
                EpochDriver(
                    deployment,
                    interventions=[ChurnIntervention(schedule)],
                ).run(epochs)
                for handle in handles:
                    result = handle.last_result
                    answers.append(tuple(
                        (i.key, round(i.score, 6)) for i in result.items))
            else:
                for query in queries:
                    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2,
                                                   seed=17)
                    schedule = churn_schedule(scenario, epochs,
                                              preset="harsh", seed=seed)
                    deployment = Deployment.from_scenario(scenario)
                    handle = deployment.submit(query)
                    EpochDriver(
                        deployment,
                        interventions=[ChurnIntervention(schedule)],
                    ).run(epochs)
                    result = handle.last_result
                    answers.append(tuple(
                        (i.key, round(i.score, 6)) for i in result.items))
            return answers

        assert final_answers(True) == final_answers(False)


class TestRecoveryProtocol:
    def test_mint_session_stays_exact_through_churn(self):
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=23)
        net = scenario.network
        deployment = Deployment.from_scenario(scenario)
        handle = deployment.submit(
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min")
        relay = next(n for n in net.tree.children(net.sink_id)
                     if net.tree.children(n))
        schedule = ChurnSchedule([ChurnEvent(2, ChurnKind.DEATH, relay),
                                  ChurnEvent(4, ChurnKind.DEATH, 7)])
        driver = EpochDriver(deployment,
                             interventions=[ChurnIntervention(schedule)])
        aggregate = make_aggregate("AVG", 0, 100)
        modality = get_modality("sound")
        for result in handle.watch(driver, epochs=7):
            live = {n: g for n, g in scenario.group_of.items()
                    if net.nodes[n].alive}
            readings = {
                n: modality.quantize(scenario.field.value(n, result.epoch))
                for n in live
            }
            truth = oracle_scores(readings, live, aggregate)
            assert result.exact
            assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6)
        log = handle.recovery
        assert log.failures == 2
        assert log.reprimed > 0
        assert len(log.records) == 2

    @pytest.mark.parametrize("direct", [False, True],
                             ids=["unrepaired", "direct"])
    @pytest.mark.parametrize("seed", range(6))
    def test_mint_answers_as_tag_after_a_kill_without_repair(self, seed,
                                                             direct):
        """A relay killed without repair (``kill_node(repair=False)``)
        or on the node itself (no event reaches the sessions) strands
        live sensors whose reports can no longer reach the sink. MINT
        counts only the reachable members, so it keeps answering, as
        TAG does, over the reachable sensors, on both paths."""

        def answers():
            scenario = grid_rooms_scenario(side=6, rooms_per_axis=2,
                                           seed=seed)
            net = scenario.network
            deployment = Deployment.from_scenario(scenario)
            query = ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                     "GROUP BY roomid EPOCH DURATION 1 min")
            mint = deployment.submit(query)
            tag = deployment.submit(query, algorithm=Algorithm.TAG)
            driver = EpochDriver(deployment)
            driver.run(3)
            relays = [n for n in net.tree.sensor_ids if net.tree.children(n)]
            victim = random.Random(seed).choice(relays)
            if direct:
                net.node(victim).kill()
            else:
                net.kill_node(victim, repair=False)
            seen = []
            for _ in range(4):
                driver.step()
                assert mint.last_result.keys == tag.last_result.keys
                seen.append(mint.last_result.keys)
            return seen

        hot, reference = on_both_paths(answers)
        assert hot == reference

    @pytest.mark.parametrize("repair", [False, True],
                             ids=["stranded", "all-dead"])
    def test_mint_answers_no_items_when_no_member_reaches_the_sink(
            self, repair):
        """Churn can leave no group member that reaches the sink: every
        sink child killed without a repair strands the rest, and a
        repaired kill of every mote leaves none. MINT then answers no
        items and certifies nothing, as TAG answers no items, instead
        of failing the whole driver step; on both paths."""

        def answers():
            scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1)
            net = scenario.network
            deployment = Deployment.from_scenario(scenario)
            query = ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                     "GROUP BY roomid EPOCH DURATION 1 min")
            mint = deployment.submit(query)
            tag = deployment.submit(query, algorithm=Algorithm.TAG)
            driver = EpochDriver(deployment)
            driver.run(2)
            victims = (net.alive_sensor_ids() if repair
                       else net.tree.children(net.sink_id))
            for victim in victims:
                if net.node(victim).alive:
                    net.kill_node(victim, repair=repair)
            driver.run(2)
            for handle in (mint, tag):
                assert handle.last_result.items == ()
                assert handle.last_result.exact
            assert mint.last_result.certification is None
            return [r.keys for r in mint.results]

        hot, reference = on_both_paths(answers)
        assert hot == reference

    @pytest.mark.parametrize("algorithm", [Algorithm.TJA, Algorithm.TPUT])
    def test_a_historic_query_over_a_dead_fleet_answers_no_items(
            self, algorithm):
        """A historic query whose every participant died before it ran
        has no buffered reading: it answers no items instead of failing
        the driver step."""
        scenario = grid_rooms_scenario(side=3, rooms_per_axis=1, seed=1)
        net = scenario.network
        deployment = Deployment.from_scenario(scenario)
        handle = deployment.submit(
            "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch "
            "WITH HISTORY 3 s EPOCH DURATION 1 s", algorithm=algorithm)
        driver = EpochDriver(deployment)
        driver.step()
        for victim in net.alive_sensor_ids():
            net.kill_node(victim)
        shipped = net.stats.messages
        driver.run()
        assert handle.historic_result.items == ()
        assert net.stats.messages == shipped

    #: One query per engine; the last three key on nodeid and epoch,
    #: whose membership maps list the tree's sensors.
    EMPTIED_FLEET_QUERIES = (
        ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
         "GROUP BY roomid EPOCH DURATION 1 min", None),
        ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
         "GROUP BY roomid EPOCH DURATION 1 min", Algorithm.TAG),
        ("SELECT TOP 3 nodeid, MAX(sound) FROM sensors "
         "GROUP BY nodeid EPOCH DURATION 1 min", Algorithm.FILA),
        ("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch "
         "WITH HISTORY 3 s EPOCH DURATION 1 s", Algorithm.TJA),
        ("SELECT TOP 2 epoch, SUM(sound) FROM sensors GROUP BY epoch "
         "WITH HISTORY 3 s EPOCH DURATION 1 s", Algorithm.TPUT),
    )

    def test_every_engine_answers_no_items_on_an_emptied_fleet(self):
        """Killing every child of the sink detaches the whole fleet, so
        the tree holds no sensor and a nodeid or epoch key maps none.
        Such a query is not refused as a WHERE that excludes every
        sensor (none of these has a WHERE): MINT, TAG, FILA, TJA and
        TPUT sessions answer no items and ship nothing, on both
        paths."""

        def answers():
            scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=3)
            net = scenario.network
            deployment = Deployment.from_scenario(scenario)
            for child in net.tree.children(net.sink_id):
                net.kill_node(child)
            assert not net.tree.sensor_ids
            shipped = net.stats.messages
            handles = [deployment.submit(text, algorithm=algorithm)
                       for text, algorithm in self.EMPTIED_FLEET_QUERIES]
            EpochDriver(deployment).run(4)
            continuous, historic = handles[:3], handles[3:]
            for handle in continuous:
                assert len(handle.results) == 4
                assert all(r.items == () and r.exact
                           for r in handle.results)
            for handle in historic:
                assert handle.historic_result.items == ()
            assert net.stats.messages == shipped
            return [[r.keys for r in h.results] for h in continuous]

        hot, reference = on_both_paths(answers)
        assert hot == reference

    def test_a_bare_deployment_answers_a_cluster_query_on_an_emptied_fleet(
            self):
        """A deployment given no cluster map reads the clusters off the
        motes. Once the fleet is emptied the tree holds none, but the
        dead motes still carry theirs, so a cluster query is no missing
        Configuration Panel step: it answers no items and ships
        nothing."""
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=3)
        wired = scenario.network
        net = Network(wired.topology,
                      boards={i: node.board for i, node in wired.nodes.items()},
                      group_of=scenario.group_of)
        deployment = Deployment(net)
        for child in net.tree.children(net.sink_id):
            net.kill_node(child)
        assert not net.tree.sensor_ids
        shipped = net.stats.messages
        handle = deployment.submit("SELECT TOP 1 roomid, AVG(sound) "
                                   "FROM sensors GROUP BY roomid "
                                   "EPOCH DURATION 1 min")
        EpochDriver(deployment).run(3)
        assert [r.items for r in handle.results] == [(), (), ()]
        assert net.stats.messages == shipped

    def test_a_cluster_query_without_any_cluster_is_still_refused(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=3)
        wired = scenario.network
        net = Network(wired.topology,
                      boards={i: node.board for i, node in wired.nodes.items()})
        with pytest.raises(PlanError, match="no cluster mapping"):
            Deployment(net).submit("SELECT TOP 1 roomid, AVG(sound) "
                                   "FROM sensors GROUP BY roomid "
                                   "EPOCH DURATION 1 min")

    def test_a_where_excluding_every_live_sensor_is_still_refused(self):
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=3)
        deployment = Deployment.from_scenario(scenario)
        with pytest.raises(PlanError, match="excludes every sensor"):
            deployment.submit("SELECT TOP 3 nodeid, MAX(sound) FROM sensors "
                              "WHERE nodeid > 999 GROUP BY nodeid "
                              "EPOCH DURATION 1 min",
                              algorithm=Algorithm.FILA)

    @pytest.mark.parametrize("direct", [False, True],
                             ids=["unrepaired", "direct"])
    @pytest.mark.parametrize("seed", range(6))
    def test_fila_and_centralized_rank_what_reaches_the_sink(self, seed,
                                                             direct):
        """The live motes below a relay killed without repair cannot
        report. FILA and CENTRALIZED leave them out of the node ranking,
        as TAG does, and take them back once a later repair reconnects
        them, on both paths. CENTRALIZED ranks as TAG does. FILA
        certifies the set only: its keys are TAG's, each interval holds
        TAG's score, and only its point intervals are ranked exactly."""

        def answers():
            scenario = grid_rooms_scenario(side=6, rooms_per_axis=2,
                                           seed=seed)
            net = scenario.network
            deployment = Deployment.from_scenario(scenario)
            query = ("SELECT TOP 3 nodeid, MAX(sound) FROM sensors "
                     "GROUP BY nodeid EPOCH DURATION 1 min")
            tag, fila, centralized = (
                deployment.submit(query, algorithm=algorithm)
                for algorithm in (Algorithm.TAG, Algorithm.FILA,
                                  Algorithm.CENTRALIZED))
            driver = EpochDriver(deployment)
            driver.run(3)
            tree = net.tree
            victim = min(n for n in tree.sensor_ids if tree.children(n)
                         and tree.parent(n) != net.sink_id)
            stranded = set(tree.subtree(victim))
            if direct:
                net.node(victim).kill()
            else:
                net.kill_node(victim, repair=False)
            seen = []

            def step():
                driver.step()
                keys = tag.last_result.keys
                assert centralized.last_result.keys == keys
                certified = fila.last_result.items
                assert {item.key for item in certified} == set(keys)
                score = {item.key: item.score
                         for item in tag.last_result.items}
                assert all(item.lb <= score[item.key] <= item.ub
                           for item in certified)
                points = [item.key for item in certified if item.exact]
                assert points == [key for key in keys if key in points]
                seen.append((keys, certified))

            for _ in range(4):
                step()
            leaf = max(n for n in net.tree.sensor_ids
                       if net.nodes[n].alive and not net.tree.children(n)
                       and n not in stranded)
            net.kill_node(leaf)
            for _ in range(3):
                step()
            return seen

        hot, reference = on_both_paths(answers)
        assert hot == reference

    def test_joined_node_enters_the_ranking(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=29)
        net = scenario.network
        deployment = Deployment.from_scenario(scenario)
        handle = deployment.submit(
            "SELECT TOP 3 nodeid, MAX(sound) FROM sensors "
            "GROUP BY nodeid EPOCH DURATION 1 min")
        anchor = min(net.tree.sensor_ids)
        ax, ay = net.topology.positions[anchor]
        born = max(net.tree.sensor_ids) + 1
        schedule = ChurnSchedule([
            ChurnEvent(2, ChurnKind.BIRTH, born, position=(ax + 2.0, ay + 2.0),
                       group=scenario.group_of.get(anchor)),
        ])
        EpochDriver(deployment,
                    interventions=[ChurnIntervention(schedule)]).run(6)
        assert handle.recovery.joins == 1
        # The newborn is a ranked candidate from its first full epoch
        # on: MINT's sink counts it and bounds it every epoch.
        assert handle._session.engine.algorithm.group_totals[born] == 1

    def test_recovery_log_reaches_the_system_panel(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=31)

        def shadow():
            return grid_rooms_scenario(side=4, rooms_per_axis=2,
                                       seed=31).network

        deployment = Deployment.from_scenario(scenario,
                                              baseline_factory=shadow)
        handle = deployment.submit(
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min")
        schedule = ChurnSchedule([ChurnEvent(1, ChurnKind.DEATH, 3)])
        EpochDriver(deployment,
                    interventions=[ChurnIntervention(schedule)]).run(4)
        panel = handle.system_panel
        assert panel is not None
        assert panel.recovery is handle.recovery
        assert panel.recovery.summary()["failures"] == 1

    def test_historic_session_survives_acquisition_churn(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=37)
        deployment = Deployment.from_scenario(scenario)
        handle = deployment.submit(
            "SELECT TOP 3 epoch, AVG(sound) FROM sensors "
            "GROUP BY epoch WITH HISTORY 6 s EPOCH DURATION 1 s")
        schedule = ChurnSchedule([ChurnEvent(2, ChurnKind.DEATH, 5)])
        EpochDriver(deployment,
                    interventions=[ChurnIntervention(schedule)]).run(8)
        assert handle.historic_result is not None
        assert len(handle.historic_result.items) == 3


class TestCachesStayBounded:
    """The cache half of a soak: long churn grows no memo. Every
    node-keyed memo holds only nodes of the current tree, and every
    tuple-keyed one stays within its fixed bound. (Retained results
    grow by design and are left out.)"""

    ROOM_QUERIES = (
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
    EPOCHS = 600

    def test_monitor_mix_under_harsh_churn(self):
        from repro.network import columnar, simulator

        scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=7)
        network = scenario.network
        deployment = Deployment.from_scenario(scenario)
        churn = scenario.churn_intervention(self.EPOCHS, preset="harsh",
                                            seed=7)
        driver = EpochDriver(deployment, interventions=(churn,),
                             stop_when_idle=False)
        for query in self.ROOM_QUERIES:
            deployment.submit(query)
        historic = self.resubmit(deployment)
        state = network._columnar
        bound = columnar._MAX_TUPLES + 1
        for _ in range(self.EPOCHS):
            driver.step()
            if historic.historic_result is not None:
                historic = self.resubmit(deployment)
            tree = network.tree
            nodes = set(tree.node_ids)
            assert set(network._plan_rows) <= nodes
            for known in state._channels.values():
                assert set(known) <= nodes
            # Plans and rows go with the topology, and rows also with
            # the epoch, so every tuple either table still holds is of
            # live motes.
            live = set(network.alive_sensor_ids())
            for entries in (*state._plans.values(),
                            *(rows for _, rows in state._rows.values())):
                assert len(entries) <= bound
                assert all(set(ids) <= live for ids in entries)
            assert len(network._cost_memo) <= simulator._COST_MEMO_SIZES
            for session in deployment.active_sessions():
                engine = session.engine
                algorithm = engine._algorithm  # None for a historic one
                if hasattr(algorithm, "states"):
                    assert set(algorithm.states) <= nodes
                alive = network.alive_sensor_ids()
                for participants in (engine._live_participants,
                                     getattr(algorithm, "_participants",
                                             None)):
                    memo = getattr(participants, "_memo", None)
                    assert memo is None or memo[0] is alive
        applied = churn.applied
        assert sum(e.kind is ChurnKind.DEATH for e in applied) > 30
        assert sum(e.kind is ChurnKind.BIRTH for e in applied) > 20

    def resubmit(self, deployment):
        """The historic query again; once churn has left the deployment
        no sensor to read, it answers no items."""
        return deployment.submit(self.HISTORIC_QUERY)

"""Topology: placements, connectivity, room layouts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import TopologyError
from repro.gui.scenario import load_scenario
from repro.network.topology import (
    RoomSpec,
    Topology,
    grid_topology,
    linear_topology,
    random_topology,
    room_topology,
    star_topology,
)
from repro.scenarios import (
    CONFERENCE_CLUSTERS,
    conference_scenario,
    figure1_scenario,
    fleet_scenario,
)


def all_pairs_adjacency(positions, radio_range):
    """The reference links: every pair tested with the link rule,
    ``math.hypot(ax - bx, ay - by) <= radio_range``, neighbours in
    ascending id order."""
    ids = sorted(positions)
    adjacency = {node_id: [] for node_id in ids}
    for index, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[index + 1:]:
            bx, by = positions[b]
            if math.hypot(ax - bx, ay - by) <= radio_range:
                adjacency[a].append(b)
                adjacency[b].append(a)
    return {node_id: tuple(ns) for node_id, ns in adjacency.items()}


def assert_all_pairs_links(topo):
    assert topo._adjacency == all_pairs_adjacency(topo.positions,
                                                  topo.radio_range)


class TestTopologyBasics:
    def test_requires_sink_position(self):
        with pytest.raises(TopologyError):
            Topology(positions={1: (0, 0)}, radio_range=10)

    def test_requires_positive_range(self):
        with pytest.raises(TopologyError):
            Topology(positions={0: (0, 0)}, radio_range=0)

    def test_distance_is_euclidean(self):
        topo = Topology(positions={0: (0, 0), 1: (3, 4)}, radio_range=10)
        assert topo.distance(0, 1) == 5.0

    def test_neighbors_symmetric(self):
        topo = Topology(positions={0: (0, 0), 1: (5, 0), 2: (50, 0)},
                        radio_range=10)
        assert 1 in topo.neighbors(0)
        assert 0 in topo.neighbors(1)
        assert 2 not in topo.neighbors(0)

    def test_unknown_node_raises(self):
        topo = Topology(positions={0: (0, 0)}, radio_range=10)
        with pytest.raises(TopologyError):
            topo.neighbors(9)

    def test_sensor_ids_exclude_sink(self):
        topo = Topology(positions={0: (0, 0), 1: (1, 0)}, radio_range=10)
        assert topo.sensor_ids == (1,)

    def test_remove_node_updates_adjacency(self):
        topo = Topology(positions={0: (0, 0), 1: (5, 0), 2: (10, 0)},
                        radio_range=6)
        topo.remove_node(1)
        assert topo.neighbors(0) == ()

    def test_remove_sink_rejected(self):
        topo = Topology(positions={0: (0, 0), 1: (1, 0)}, radio_range=10)
        with pytest.raises(TopologyError):
            topo.remove_node(0)

    def test_move_relinks_edges(self):
        topo = Topology(positions={0: (0, 0), 1: (5, 0), 2: (50, 0)},
                        radio_range=10)
        topo.add_node(1, (45, 0))
        assert topo.neighbors(0) == ()
        assert topo.neighbors(1) == (2,)
        assert topo.neighbors(2) == (1,)


#: One topology edit: ("add", id, x, y) places or moves a node,
#: ("remove", id, 0, 0) deletes it when present. Integer coordinates
#: on a small field put many pairs exactly at the radio range.
_EDITS = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(1, 12),
              st.integers(0, 30), st.integers(0, 30)),
    max_size=40)


class TestIncrementalAdjacency:
    @settings(max_examples=100, deadline=None)
    @given(edits=_EDITS, radio_range=st.sampled_from([5.0, 10.0, 12.5]))
    def test_matches_full_rebuild(self, edits, radio_range):
        """After any add/move/remove sequence the incrementally kept
        adjacency equals a from-scratch rebuild, neighbour order
        included."""
        topo = Topology(positions={0: (15.0, 15.0)}, radio_range=radio_range)
        for op, node_id, x, y in edits:
            if op == "add":
                topo.add_node(node_id, (x, y))
            elif node_id in topo.positions:
                topo.remove_node(node_id)
            rebuilt = Topology(positions=dict(topo.positions),
                               radio_range=radio_range)
            assert topo._adjacency == rebuilt._adjacency


#: Coordinates: integers and halves on a field straddling the origin
#: (negative cells; many pairs exactly at the range, across cell
#: edges; duplicate positions), plus floats at and just inside the
#: cell edges the ranges below give, tiny and huge magnitudes.
_COORDS = st.one_of(
    st.integers(-40, 40).map(float),
    st.integers(-80, 80).map(lambda v: v / 2),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53,
                     16.0 - 2.0 ** -49, -16.0 + 2.0 ** -49, 32.0, -32.0,
                     64.0 - 1e-12, 1e15, -1e15 - 16.0]))
#: Radio ranges: cell widths 1, 16, 32 and 64, ranges equal to a
#: power of two and just under one.
_RANGES = st.sampled_from([0.5, 1.0, 5.0, 12.5, 15.0, 16.0,
                           16.0 - 2.0 ** -48, 32.0, 45.0])
#: One edit: place or move a node, or remove it when present (a later
#: "add" of a removed id is a rejoin).
_GRID_EDITS = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(1, 8),
              _COORDS, _COORDS),
    max_size=30)


class TestGridLinks:
    """Radio links come from a grid of cells at least as wide as the
    range; they must equal the all-pairs loop's links everywhere."""

    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(st.tuples(_COORDS, _COORDS), max_size=30),
           sink=st.tuples(_COORDS, _COORDS), radio_range=_RANGES,
           edits=_GRID_EDITS)
    def test_grid_equals_all_pairs(self, points, sink, radio_range, edits):
        positions = {0: sink}
        positions.update(enumerate(points, start=1))
        topo = Topology(positions=positions, radio_range=radio_range)
        assert_all_pairs_links(topo)
        for op, node_id, x, y in edits:
            if op == "add":
                topo.add_node(node_id, (x, y))
            elif node_id in topo.positions:
                topo.remove_node(node_id)
            assert_all_pairs_links(topo)

    @pytest.mark.parametrize("a, b", [
        ((8.0, 0.0), (23.0, 0.0)),
        ((-8.0, 0.0), (7.0, 0.0)),
        ((7.0, 7.0), (16.0, 19.0)),
        ((-1.0, -1.0), (-1.0, -16.0)),
    ], ids=["across-x-edge", "across-origin", "diagonal", "negative"])
    def test_pair_at_the_range_across_a_cell_edge(self, a, b):
        """Range 15 gives 16-wide cells: each pair sits in adjacent
        cells, exactly 15 apart, and is linked."""
        topo = Topology(positions={0: (1000.0, 1000.0), 1: a, 2: b},
                        radio_range=15.0)
        assert topo.neighbors(1) == (2,)
        assert topo.neighbors(2) == (1,)

    @pytest.mark.parametrize("build", [
        *[pytest.param(lambda side=side: grid_topology(side),
                       id=f"grid-{side}") for side in (*range(1, 13), 31)],
        pytest.param(lambda: grid_topology(7, spacing=3.0, radio_range=3.0),
                     id="grid-range-at-spacing"),
        pytest.param(lambda: linear_topology(30), id="linear"),
        pytest.param(lambda: star_topology(12), id="star"),
        *[pytest.param(lambda seed=seed: random_topology(60, seed=seed),
                       id=f"random-{seed}") for seed in range(3)],
        pytest.param(lambda: room_topology(CONFERENCE_CLUSTERS,
                                           radio_range=30.0)[0], id="rooms"),
        pytest.param(lambda: figure1_scenario().network.topology,
                     id="figure1"),
        pytest.param(lambda: conference_scenario().network.topology,
                     id="conference"),
        pytest.param(lambda: fleet_scenario(400).network.topology,
                     id="fleet-400"),
        pytest.param(lambda: fleet_scenario(1000).network.topology,
                     id="fleet-1000"),
    ])
    def test_builders_equal_all_pairs(self, build):
        assert_all_pairs_links(build())

    def test_scenario_init_file_equals_all_pairs(self, tmp_path, capsys):
        path = tmp_path / "deployment.json"
        assert main(["scenario-init", str(path)]) == 0
        assert_all_pairs_links(load_scenario(path).to_topology())

    @staticmethod
    def _count_hypot(monkeypatch):
        calls = [0]
        hypot = math.hypot

        def counting(*args):
            calls[0] += 1
            return hypot(*args)

        monkeypatch.setattr(math, "hypot", counting)
        return calls

    def test_links_cost_a_few_tests_per_node(self, monkeypatch):
        """A 50×50 grid's 2,501 nodes are each tested against the nodes
        of nine cells, about 22 of them, not against all others (an
        all-pairs loop makes 3.1 million tests); placing one more node
        tests it against its own nine cells only."""
        calls = self._count_hypot(monkeypatch)
        topo = grid_topology(50)
        nodes = len(topo.positions)
        assert calls[0] <= 30 * nodes
        calls[0] = 0
        topo.add_node(nodes, (255.0, 255.0))
        topo.add_node(7, (5.0, 5.0))
        assert calls[0] <= 60


class TestNonFiniteGeometry:
    """``math.floor`` cannot bin a NaN or infinite coordinate, so a
    non-finite radio range or coordinate is refused by name."""

    @pytest.mark.parametrize("radio_range", [math.nan, math.inf])
    def test_radio_range(self, radio_range):
        with pytest.raises(TopologyError, match="radio range"):
            Topology(positions={0: (0.0, 0.0)}, radio_range=radio_range)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sensor_coordinate(self, bad):
        with pytest.raises(TopologyError, match="node 2 has a non-finite"):
            Topology(positions={0: (0.0, 0.0), 1: (1.0, 0.0),
                                2: (3.0, bad)}, radio_range=10.0)

    def test_sink_coordinate(self):
        with pytest.raises(TopologyError, match="sink 0 has a non-finite"):
            Topology(positions={0: (math.nan, 0.0), 1: (1.0, 0.0)},
                     radio_range=10.0)

    @pytest.mark.parametrize("node_id", [3, 1], ids=["new", "move"])
    def test_add_node_leaves_the_topology_unchanged(self, node_id):
        topo = Topology(positions={0: (0.0, 0.0), 1: (5.0, 0.0),
                                   2: (9.0, 0.0)}, radio_range=6.0)
        before = Topology(positions=dict(topo.positions), radio_range=6.0)
        with pytest.raises(TopologyError, match=f"node {node_id} has a"):
            topo.add_node(node_id, (math.inf, 0.0))
        assert topo == before
        topo.add_node(node_id, (4.0, 0.0))
        assert_all_pairs_links(topo)


class TestGrid:
    def test_node_count(self):
        assert len(grid_topology(4).sensor_ids) == 16

    def test_connected(self):
        assert grid_topology(5).is_connected()

    def test_row_major_positions(self):
        topo = grid_topology(3, spacing=10)
        assert topo.positions[1] == (0.0, 0.0)
        assert topo.positions[2] == (10.0, 0.0)
        assert topo.positions[4] == (0.0, 10.0)

    def test_bad_side_rejected(self):
        with pytest.raises(TopologyError):
            grid_topology(0)


class TestLinearAndStar:
    def test_linear_is_a_chain(self):
        topo = linear_topology(5)
        assert topo.is_connected()
        assert topo.neighbors(3) == (2, 4)

    def test_star_all_one_hop(self):
        topo = star_topology(8)
        assert set(topo.neighbors(0)) >= set(range(1, 9))

    def test_star_needs_sensors(self):
        with pytest.raises(TopologyError):
            star_topology(0)


class TestRandom:
    def test_deterministic_given_seed(self):
        a = random_topology(20, seed=3)
        b = random_topology(20, seed=3)
        assert a.positions == b.positions

    def test_always_connected(self):
        for seed in range(5):
            assert random_topology(25, seed=seed).is_connected()

    def test_impossible_range_raises(self):
        with pytest.raises(TopologyError, match="increase the range"):
            random_topology(50, area=1000.0, radio_range=1.0,
                            max_attempts=3)


class TestRooms:
    SPECS = [
        RoomSpec("A", 0, 0, 20, 20, sensors=3),
        RoomSpec("B", 30, 0, 20, 20, sensors=2),
    ]

    def test_membership_mapping(self):
        _, room_of = room_topology(self.SPECS, radio_range=60)
        assert sorted(room_of.values()) == ["A", "A", "A", "B", "B"]

    def test_sensors_inside_their_rooms(self):
        topo, room_of = room_topology(self.SPECS, radio_range=60)
        for node_id, room in room_of.items():
            spec = next(s for s in self.SPECS if s.name == room)
            x, y = topo.positions[node_id]
            assert spec.x <= x <= spec.x + spec.width
            assert spec.y <= y <= spec.y + spec.height

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            room_topology([RoomSpec("A", 0, 0, 5, 5, 1),
                           RoomSpec("A", 9, 0, 5, 5, 1)], radio_range=60)

    def test_disconnected_layout_rejected(self):
        far = [RoomSpec("A", 0, 0, 5, 5, 1),
               RoomSpec("B", 1000, 0, 5, 5, 1)]
        with pytest.raises(TopologyError, match="not connected"):
            room_topology(far, radio_range=10)

    def test_empty_room_rejected(self):
        with pytest.raises(TopologyError):
            RoomSpec("A", 0, 0, 5, 5, sensors=0)

"""Topology: placements, connectivity, room layouts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network.topology import (
    RoomSpec,
    Topology,
    grid_topology,
    group_counts,
    linear_topology,
    random_topology,
    room_topology,
    star_topology,
)


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

    def test_group_counts(self):
        assert group_counts({1: "A", 2: "A", 3: "B"}) == {"A": 2, "B": 1}

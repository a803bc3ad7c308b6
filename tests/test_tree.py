"""Routing tree: construction, traversals, repair."""

import pytest

from repro.errors import TopologyError
from repro.network.topology import grid_topology, linear_topology
from repro.network.tree import RoutingTree
from repro.scenarios import FIGURE1_PARENTS


@pytest.fixture
def fig1_tree():
    return RoutingTree(0, FIGURE1_PARENTS)


class TestConstruction:
    def test_explicit_parent_map(self, fig1_tree):
        assert fig1_tree.parent(9) == 4
        assert fig1_tree.children(6) == (5, 7, 8)

    def test_root_cannot_have_parent(self):
        with pytest.raises(TopologyError):
            RoutingTree(0, {0: 1})

    def test_dangling_parent_rejected(self):
        with pytest.raises(TopologyError):
            RoutingTree(0, {1: 5})

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            RoutingTree(0, {1: 2, 2: 1})

    def test_bfs_from_grid_reaches_all(self):
        topo = grid_topology(4)
        tree = RoutingTree.from_topology(topo)
        assert set(tree.node_ids) == set(topo.node_ids)

    def test_bfs_is_min_hop(self):
        topo = linear_topology(6)
        tree = RoutingTree.from_topology(topo)
        for node in range(1, 7):
            assert tree.depth(node) == node

    def test_bfs_deterministic_tie_break(self):
        topo = grid_topology(3)
        a = RoutingTree.from_topology(topo)
        b = RoutingTree.from_topology(topo)
        assert all(a.parent(n) == b.parent(n) for n in a.sensor_ids)

    def test_unreachable_node_rejected(self):
        topo = grid_topology(2)
        topo.positions[99] = (1000.0, 1000.0)
        topo._rebuild_adjacency()
        with pytest.raises(TopologyError, match="unreachable"):
            RoutingTree.from_topology(topo)


class TestTraversals:
    def test_post_order_children_before_parents(self, fig1_tree):
        order = fig1_tree.post_order()
        position = {node: i for i, node in enumerate(order)}
        for node in fig1_tree.sensor_ids:
            assert position[node] < position[fig1_tree.parent(node)]

    def test_post_order_covers_everything_once(self, fig1_tree):
        order = fig1_tree.post_order()
        assert sorted(order) == sorted(fig1_tree.node_ids)

    def test_pre_order_parents_before_children(self, fig1_tree):
        order = fig1_tree.pre_order()
        position = {node: i for i, node in enumerate(order)}
        for node in fig1_tree.sensor_ids:
            assert position[fig1_tree.parent(node)] < position[node]

    def test_root_last_and_first(self, fig1_tree):
        assert fig1_tree.post_order()[-1] == 0
        assert fig1_tree.pre_order()[0] == 0


class TestStructure:
    def test_depths(self, fig1_tree):
        assert fig1_tree.depth(0) == 0
        assert fig1_tree.depth(2) == 1
        assert fig1_tree.depth(9) == 2
        assert fig1_tree.height == 2

    def test_subtree(self, fig1_tree):
        assert fig1_tree.subtree(4) == (4, 9)
        assert fig1_tree.subtree_size(6) == 4

    def test_subtree_of_root_is_everything(self, fig1_tree):
        assert fig1_tree.subtree(0) == tuple(sorted(fig1_tree.node_ids))

    def test_is_leaf(self, fig1_tree):
        assert fig1_tree.is_leaf(9)
        assert not fig1_tree.is_leaf(4)

    def test_path_to_root(self, fig1_tree):
        assert fig1_tree.path_to_root(9) == (9, 4, 0)

    def test_parent_of_root_raises(self, fig1_tree):
        with pytest.raises(TopologyError):
            fig1_tree.parent(0)


class TestRepair:
    def test_survivors_rerouted(self):
        topo = grid_topology(4)
        tree = RoutingTree.from_topology(topo)
        victim = next(n for n in tree.sensor_ids if tree.children(n))
        repaired, report = tree.repaired([victim], topo)
        assert victim not in repaired.node_ids
        assert set(repaired.node_ids) == set(tree.node_ids) - {victim}
        assert set(report.orphaned) >= set(tree.children(victim))
        assert report.reattached
        for child, parent in report.reattached:
            assert repaired.parent(child) == parent
            assert parent in topo.neighbors(child)

    def test_sink_cannot_die(self):
        topo = grid_topology(2)
        tree = RoutingTree.from_topology(topo)
        with pytest.raises(TopologyError):
            tree.repaired([0], topo)

    def test_partition_detected(self):
        topo = linear_topology(4)
        tree = RoutingTree.from_topology(topo)
        # Killing node 2 strands nodes 3 and 4.
        with pytest.raises(TopologyError):
            tree.repaired([2], topo)

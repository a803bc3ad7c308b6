"""Routing tree: construction, traversals, repair."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_repair
from repro.errors import TopologyError
from repro.network.simulator import Network
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
        assert len(fig1_tree.subtree(6)) == 4

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


def tree_signature(tree):
    """Every observable of a routing tree: parents, child tuples,
    depths and both traversal orders."""
    nodes = tree.node_ids
    return (
        {n: tree.parent(n) for n in tree.sensor_ids},
        {n: tree.children(n) for n in nodes},
        {n: tree.depth(n) for n in nodes},
        tree.pre_order(),
        tree.post_order(),
    )


def rebuilt(tree):
    """The same tree built from scratch from its parent map."""
    return RoutingTree(tree.root,
                       {node: tree.parent(node) for node in tree.sensor_ids})


#: Edits on a deployed grid: a repaired kill of 1–4 victims batched as
#: ``ChurnSchedule.apply`` batches them (unrepaired kills, the last one
#: repaired), an unrepaired kill, a direct ``SensorNode.kill``, a join,
#: or a partition (every alive mote of one grid row dies in one batch,
#: stranding the rows beyond it). The integers pick the victims, the
#: join's anchor or the row.
_EDITS = st.lists(
    st.tuples(st.sampled_from(["kill", "unrepaired", "node-kill", "join",
                               "partition"]),
              st.integers(0, 10_000), st.integers(1, 4)),
    min_size=1, max_size=10)


class TestRepairFollowsTheDamage:
    """The repair walks only the dead nodes' subtrees and re-derives
    depths only inside each re-homed component; ``attach`` and
    ``repaired`` patch the previous tree. Both must equal the
    survivor-wide repair they replaced (``helpers.reference_repair``)
    and a tree built from scratch from the same parent map."""

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(3, 8), diagonal=st.booleans(), edits=_EDITS,
           spent=st.lists(st.integers(0, 3), min_size=64, max_size=64))
    def test_every_edit_equals_the_references(self, side, diagonal,
                                              edits, spent):
        # 1.5 spacings link the 8-neighbourhood, 1.1 only the 4.
        topology = grid_topology(side, radio_range=15.0 if diagonal
                                 else 11.0)
        network = Network(topology)
        for node_id in network.nodes:
            network.ledger(node_id).tx = float(spent[node_id % 64])
        repairs = []
        repaired = RoutingTree.repaired

        def checked(tree, dead, topology, energy_of=None,
                    detach_unreachable=False):
            dead = list(dead)
            expected = reference_repair(tree, dead, topology, energy_of,
                                        detach_unreachable)
            result = repaired(tree, dead, topology, energy_of,
                              detach_unreachable)
            assert result[1] == expected[1]
            assert tree_signature(result[0]) == tree_signature(expected[0])
            repairs.append(result[1])
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RoutingTree, "repaired", checked)
            self.apply(network, side, edits, repairs)

    @staticmethod
    def apply(network, side, edits, repairs):
        topology = network.topology
        next_id = 100
        for kind, pick, count in edits:
            alive = network.alive_sensor_ids()
            if kind == "join":
                anchors = (network.sink_id, *alive)
                x, y = topology.positions[anchors[pick % len(anchors)]]
                network.join_node(next_id, (x + 3.0, y + 4.0))
                next_id += 1
            elif alive:
                if kind == "partition":
                    row = 1 + pick % max(1, side - 1)
                    victims = [n for n in alive
                               if topology.positions[n][1] == row * 10.0]
                else:
                    victims = [alive[(pick + 7 * i) % len(alive)]
                               for i in range(count)]
                    victims = list(dict.fromkeys(victims))
                if not victims:
                    continue
                if kind == "node-kill":
                    network.node(victims[0]).kill()
                elif kind == "unrepaired":
                    network.kill_node(victims[0], repair=False)
                else:
                    for victim in victims[:-1]:
                        network.kill_node(victim, repair=False)
                    before = len(repairs)
                    network.kill_node(victims[-1])
                    assert len(repairs) == before + 1
            tree = network.tree
            assert tree_signature(tree) == tree_signature(rebuilt(tree))
            assert tree.node_ids == tuple(sorted(
                {tree.root, *tree.sensor_ids}))
            assert tree.height == max(tree.depth(n) for n in tree.node_ids)

    def test_attach_shares_every_untouched_child_tuple(self):
        tree = RoutingTree.from_topology(grid_topology(4))
        grown = tree.attach(99, 6)
        assert tree_signature(grown) == tree_signature(rebuilt(grown))
        assert grown.children(6) == (*tree.children(6), 99)
        for node in tree.node_ids:
            if node != 6:
                assert grown.children(node) is tree.children(node)

    def test_repair_rejects_an_edit_that_leaves_a_node_without_a_depth(
            self):
        tree = RoutingTree.from_topology(grid_topology(3))
        parents = {n: tree.parent(n) for n in tree.sensor_ids}
        depths = {n: tree.depth(n) for n in tree.node_ids}
        del depths[9]
        with pytest.raises(TopologyError, match="cycle or unreachable"):
            tree._edited(parents, depths, moved=(), removed=())

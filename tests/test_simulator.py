"""The epoch simulator: transport primitives and cost charging."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.network.link import RadioModel
from repro.network.messages import ControlMessage, QueryMessage
from repro.network.simulator import Network
from repro.network.topology import grid_topology, linear_topology
from repro.scenarios import figure1_scenario


@pytest.fixture
def net():
    return Network(grid_topology(3))


class TestSendUp:
    def test_returns_parent(self, net):
        child = net.tree.sensor_ids[0]
        parent = net.send_up(child, ControlMessage(label="x"))
        assert parent == net.tree.parent(child)

    def test_charges_tx_to_sender_rx_to_parent(self, net):
        # Pick a sensor whose parent is another sensor (depth >= 2).
        child = next(n for n in net.tree.sensor_ids
                     if net.tree.parent(n) != net.sink_id)
        parent = net.tree.parent(child)
        net.send_up(child, ControlMessage(label="x"))
        assert net.ledger(child).tx > 0
        assert net.ledger(child).rx == 0
        assert net.ledger(parent).rx > 0
        assert net.ledger(parent).tx == 0

    def test_dead_node_cannot_send(self, net):
        child = next(n for n in net.tree.sensor_ids if net.tree.is_leaf(n))
        net.node(child).kill()
        with pytest.raises(RoutingError):
            net.send_up(child, ControlMessage(label="x"))

    def test_stats_recorded(self, net):
        net.send_up(net.tree.sensor_ids[0], ControlMessage(label="x", size=8))
        assert net.stats.messages == 1
        assert net.stats.payload_bytes == 8


class TestBroadcastDown:
    def test_single_tx_many_rx(self, net):
        children = net.tree.children(net.sink_id)
        net.broadcast_down(net.sink_id, QueryMessage(query_id=1))
        assert net.stats.messages == 1
        for child in children:
            assert net.ledger(child).rx > 0

    def test_skips_dead_children(self, net):
        children = net.tree.children(net.sink_id)
        net.node(children[0]).kill()
        live = net.broadcast_down(net.sink_id, QueryMessage(query_id=1))
        assert children[0] not in live

    def test_leaf_broadcast_is_free(self, net):
        leaf = next(n for n in net.tree.sensor_ids if net.tree.is_leaf(n))
        assert net.broadcast_down(leaf, QueryMessage(query_id=1)) == ()
        assert net.stats.messages == 0


class TestFloodDown:
    def test_every_nonleaf_broadcasts_once(self, net):
        nonleaves = [n for n in net.tree.node_ids
                     if net.tree.children(n)]
        sends = net.flood_down(QueryMessage(query_id=1))
        assert sends == len(nonleaves)


class TestUnicastPaths:
    def test_to_sink_charges_per_hop(self):
        net = Network(linear_topology(4))
        hops = net.unicast_to_sink(4, ControlMessage(label="x"))
        assert hops == 4
        assert net.stats.messages == 4

    def test_from_sink_reverses_path(self):
        net = Network(linear_topology(3))
        hops = net.unicast_from_sink(3, ControlMessage(label="x"))
        assert hops == 3
        # Intermediate node 1 both received and transmitted.
        assert net.ledger(1).tx > 0
        assert net.ledger(1).rx > 0

    def test_sink_to_itself_is_free(self, net):
        assert net.unicast_from_sink(net.sink_id,
                                     ControlMessage(label="x")) == 0


class TestEpochMachinery:
    def test_converge_cast_order_children_first(self, net):
        order = net.converge_cast_order()
        position = {n: i for i, n in enumerate(order)}
        for node in order:
            parent = net.tree.parent(node)
            if parent != net.sink_id:
                assert position[node] < position[parent]

    def test_advance_epoch_charges_idle(self, net):
        node = net.tree.sensor_ids[0]
        net.advance_epoch()
        assert net.ledger(node).idle > 0
        assert net.epoch == 1

    def test_read_many_uses_boards(self):
        """Every alive sensor samples its board in one batch read."""
        network = figure1_scenario().network
        readings = network.read_many(network.alive_sensor_ids(), "sound")
        assert readings[7] == 78.0
        assert list(readings) == list(network.alive_sensor_ids())


class TestFailureInjection:
    def test_kill_repairs_tree(self):
        net = Network(grid_topology(3))
        victim = next(n for n in net.tree.sensor_ids
                      if net.tree.children(n))
        net.kill_node(victim)
        assert victim not in net.tree.node_ids
        assert not net.node(victim).alive

    def test_sink_cannot_be_killed(self, net):
        with pytest.raises(ConfigurationError):
            net.kill_node(net.sink_id)

    def test_bottleneck_energy(self, net):
        child = net.tree.children(net.sink_id)[0]
        net.send_up(child, ControlMessage(label="x", size=20))
        node_id, joules = net.bottleneck_energy()
        assert node_id == child
        assert joules > 0


class TestLossAccounting:
    def test_retransmissions_cost_energy(self):
        lossless = Network(grid_topology(2))
        lossy = Network(grid_topology(2),
                        radio=RadioModel(loss_probability=0.4,
                                         max_retries=100),
                        seed=5)
        for _ in range(30):
            child = lossless.tree.sensor_ids[0]
            lossless.send_up(child, ControlMessage(label="x"))
            lossy.send_up(child, ControlMessage(label="x"))
        assert lossy.stats.retransmissions > 0
        assert lossy.stats.tx_joules > lossless.stats.tx_joules

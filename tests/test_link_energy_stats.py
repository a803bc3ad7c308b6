"""Energy model, energy ledgers, statistics ledger."""

import gc
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.network.energy import EnergyLedger, EnergyModel, lifetime_epochs
from repro.network.messages import ControlMessage
from repro.network.simulator import Network
from repro.network.stats import NetworkStats
from repro.network.topology import grid_topology


class TestEnergyModel:
    def test_tx_costs_more_than_rx(self):
        model = EnergyModel()
        assert model.tx_joules_per_byte > model.rx_joules_per_byte

    def test_mica2_tx_magnitude(self):
        # 27 mA @ 3 V @ 38.4 kbit/s ≈ 16.9 µJ per byte.
        model = EnergyModel()
        assert model.tx_joules_per_byte == pytest.approx(16.875e-6, rel=1e-3)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(voltage=0)
        with pytest.raises(ConfigurationError):
            EnergyModel(bitrate_bps=0)

    def test_bitrate_is_the_deployments_air_rate(self):
        """A deployment charges its radio at the energy model's bitrate:
        at a quarter of the MICA2 rate, one 40-byte ``send_up`` costs
        exactly four times the radio joules."""
        joules = []
        for energy in (None, EnergyModel(bitrate_bps=9_600)):
            network = Network(grid_topology(3), energy=energy)
            network.send_up(5, ControlMessage(label="x", size=40))
            joules.append(network.stats.radio_joules)
        assert joules[0] == pytest.approx(0.00124875)
        assert joules[1] == 4 * joules[0]

    def test_lifetime_bottleneck(self):
        model = EnergyModel(battery_joules=100.0)
        assert lifetime_epochs(model, per_epoch_joules=1.0) == 100.0

    def test_lifetime_infinite_at_zero_burn(self):
        assert lifetime_epochs(EnergyModel(), 0.0) == float("inf")


class TestEnergyLedger:
    def test_total_sums_all_activities(self):
        ledger = EnergyLedger()
        ledger.tx += 1.0
        ledger.rx += 2.0
        ledger.sensing += 3.0
        ledger.idle += 4.0
        assert ledger.total == 10.0


class TestNetworkStats:
    def test_record_accumulates(self):
        stats = NetworkStats()
        stats.record("view_update", packets=2, payload_bytes=40,
                     air_bytes=54, tx_joules=1e-3, rx_joules=5e-4)
        stats.record("query", packets=1, payload_bytes=16,
                     air_bytes=23, tx_joules=1e-4, rx_joules=1e-4)
        assert stats.messages == 2
        assert stats.packets == 3
        assert stats.payload_bytes == 56
        assert stats.by_kind == {"view_update": 1, "query": 1}
        assert stats._counters()[0]["view_update"] == (1, 2, 40, 54)

    def test_radio_joules(self):
        stats = NetworkStats()
        stats.record("x", 1, 1, 1, tx_joules=2.0, rx_joules=3.0)
        assert stats.radio_joules == 5.0

    def test_snapshot_minus(self):
        stats = NetworkStats()
        stats.record("x", 1, 10, 17, 0.0, 0.0)
        first = stats.snapshot()
        stats.record("x", 1, 30, 37, 0.0, 0.0)
        delta = stats.snapshot().minus(first)
        assert delta.messages == 1
        assert delta.payload_bytes == 30

    def test_phase_attribution(self):
        stats = NetworkStats()
        with stats.phase("LB"):
            stats.record("lb_reply", 1, 12, 19, 0.0, 0.0)
        with stats.phase("HJ"):
            stats.record("join_reply", 1, 30, 37, 0.0, 0.0)
        assert stats.by_phase["LB"].payload_bytes == 12
        assert stats.by_phase["HJ"].payload_bytes == 30

    def test_phase_reentry_accumulates(self):
        stats = NetworkStats()
        for _ in range(2):
            with stats.phase("update"):
                stats.record("view_update", 1, 10, 17, 0.0, 0.0)
        assert stats.by_phase["update"].messages == 2

    def test_nested_phases_attribute_exclusively(self):
        """Traffic inside a nested phase belongs to the innermost phase
        only — the enclosing phase's delta excludes it, so by_phase
        partitions the traffic (no double counting)."""
        stats = NetworkStats()
        with stats.phase("outer"):
            stats.record("x", 1, 3, 10, 0.0, 0.0)
            with stats.phase("inner"):
                stats.record("x", 1, 5, 12, 0.0, 0.0)
            stats.record("x", 1, 7, 14, 0.0, 0.0)
        assert stats.by_phase["inner"].payload_bytes == 5
        assert stats.by_phase["outer"].payload_bytes == 3 + 7
        assert stats.by_phase["outer"].messages == 2
        total = sum(snap.payload_bytes for snap in stats.by_phase.values())
        assert total == stats.payload_bytes

    def test_recovery_inside_session_phase_not_double_attributed(self):
        """The regression this contract fixes: a churn repair opening
        the "recovery" phase in the middle of a session phase used to
        charge the handshake to both phases."""
        stats = NetworkStats()
        with stats.phase("update"):
            stats.record("view_update", 1, 10, 17, 0.0, 0.0)
            with stats.phase("recovery"):
                stats.record("control", 1, 8, 15, 0.0, 0.0)
            stats.record("view_update", 1, 10, 17, 0.0, 0.0)
        assert stats.by_phase["recovery"].messages == 1
        assert stats.by_phase["recovery"].payload_bytes == 8
        assert stats.by_phase["update"].messages == 2
        assert stats.by_phase["update"].payload_bytes == 20

    def test_deeply_nested_phases_partition(self):
        stats = NetworkStats()
        with stats.phase("a"):
            with stats.phase("b"):
                stats.record("x", 1, 1, 8, 0.0, 0.0)
                with stats.phase("c"):
                    stats.record("x", 1, 2, 9, 0.0, 0.0)
            # Re-entering a nested phase still accumulates into it.
            with stats.phase("b"):
                stats.record("x", 1, 4, 11, 0.0, 0.0)
            stats.record("x", 1, 8, 15, 0.0, 0.0)
        assert stats.by_phase["c"].payload_bytes == 2
        assert stats.by_phase["b"].payload_bytes == 1 + 4
        assert stats.by_phase["a"].payload_bytes == 8
        total = sum(snap.payload_bytes for snap in stats.by_phase.values())
        assert total == stats.payload_bytes == 1 + 2 + 4 + 8

    def test_ledger_outlives_its_network_and_taps_nest(self):
        """A deployment ledger refers to no network: kept past its
        deployment, it still reads its totals while the network is
        collected. A tap adds the ledger's change across its block: an
        inner tap's traffic counts in the outer tap's too, and a block
        that raises still adds what it shipped."""
        network = Network(grid_topology(3))
        message = ControlMessage(label="relay")
        mote = network.tree.sensor_ids[-1]
        outer, inner, raised = NetworkStats(), NetworkStats(), NetworkStats()
        with network.tap_stats(outer):
            hops = network.unicast_to_sink(mote, message)
            with network.tap_stats(inner):
                sends = network.flood_down(message)
        with pytest.raises(ZeroDivisionError):
            with network.tap_stats(raised):
                network.unicast_from_sink(mote, message)
                1 / 0
        assert hops > 0 and sends > 0
        assert inner.by_kind == {"control": sends}
        assert outer.by_kind == {"control": hops + sends}
        assert raised.by_kind == {"control": hops}
        assert 0 < inner.radio_joules < outer.radio_joules
        ledger = network.stats
        assert ledger.messages == outer.messages + raised.messages
        totals = ledger.summary()
        alive = weakref.ref(network)
        del network
        gc.collect()
        assert alive() is None
        assert ledger.summary() == totals

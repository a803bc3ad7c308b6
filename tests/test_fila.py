"""FILA: filter-based monitoring, correctness and suppression."""

import contextlib

import pytest

from repro.core import Fila, oracle_scores
from repro.core.aggregates import make_aggregate
from repro.errors import ValidationError
from repro.network import hotpath
from repro.scenarios import grid_rooms_scenario
from repro.sensing.modalities import get_modality


def node_truth(scenario, epoch):
    modality = get_modality(scenario.attribute)
    return {n: modality.quantize(scenario.field.value(n, epoch))
            for n in scenario.group_of}


@pytest.fixture
def deployment():
    return grid_rooms_scenario(side=4, rooms_per_axis=2, seed=21)


def valid_top_k_set(items, true_scores, k, tolerance=1e-6):
    """FILA certifies *set membership*; scores of silent nodes are
    filter-interval midpoints, so only the chosen set is checked."""
    chosen = sorted(true_scores[i.key] for i in items)
    best = sorted(sorted(true_scores.values(), reverse=True)[:k])
    return len(chosen) == min(k, len(true_scores)) and all(
        abs(a - b) <= tolerance for a, b in zip(chosen, best))


class TestCorrectness:
    def test_matches_oracle_set_every_epoch(self, deployment):
        aggregate = make_aggregate("AVG", 0, 100)
        fila = Fila(deployment.network, aggregate, 3, attribute="sound")
        nodes = {n: n for n in deployment.group_of}
        for epoch in range(15):
            result = fila.run_epoch()
            truth = oracle_scores(node_truth(deployment, epoch), nodes,
                                  aggregate)
            assert valid_top_k_set(result.items, truth, 3), \
                f"wrong at epoch {epoch}"

    def test_reported_scores_bound_truth(self, deployment):
        aggregate = make_aggregate("AVG", 0, 100)
        fila = Fila(deployment.network, aggregate, 2, attribute="sound")
        for epoch in range(8):
            result = fila.run_epoch()
            truth = node_truth(deployment, epoch)
            for item in result.items:
                assert item.lb - 1e-6 <= truth[item.key] <= item.ub + 1e-6

    def test_first_epoch_is_setup(self, deployment):
        fila = Fila(deployment.network, make_aggregate("AVG", 0, 100), 2)
        fila.run_epoch()
        assert "setup" in deployment.network.stats.by_phase
        assert len(fila.filters) == len(deployment.group_of)


class TestSuppression:
    def test_static_field_goes_silent(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=22,
                                       room_step=0.0, sensor_sigma=0.0)
        fila = Fila(scenario.network, make_aggregate("AVG", 0, 100), 2)
        fila.run_epoch()  # setup
        fila.run_epoch()  # filters settle
        before = scenario.network.stats.messages
        for _ in range(5):
            fila.run_epoch()
        after = scenario.network.stats.messages
        # A static field inside the filters produces zero traffic.
        assert after == before

    def test_separated_noisy_field_costs_less_than_reporting(self):
        """Jittery readings with well-separated ranks stay inside their
        filters — FILA's winning regime."""
        from repro.network.simulator import Network
        from repro.network.topology import grid_topology
        from repro.sensing.board import SensorBoard
        from repro.sensing.generators import ConstantField, GaussianNoiseField

        topology = grid_topology(4)
        levels = {n: 5.0 * n for n in range(1, 17)}
        field = GaussianNoiseField(ConstantField(levels), sigma=0.5, seed=1)
        network = Network(topology, boards={
            n: SensorBoard({"sound": field}) for n in range(1, 17)})
        fila = Fila(network, make_aggregate("AVG", 0, 100), 2)
        epochs = 12
        for _ in range(epochs):
            fila.run_epoch()
        tree = network.tree
        per_epoch_hops = sum(tree.depth(n) for n in tree.sensor_ids)
        assert network.stats.messages < per_epoch_hops * epochs / 2

    def test_violations_reported_on_volatile_field(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=23,
                                       room_step=20.0, sensor_sigma=8.0)
        fila = Fila(scenario.network, make_aggregate("AVG", 0, 100), 2)
        for _ in range(6):
            fila.run_epoch()
        assert scenario.network.stats.by_kind.get("filter_report", 0) > 0


class TestJoiner:
    @pytest.mark.parametrize("path", ["hot", "reference"])
    def test_joiner_gets_a_filter_at_its_first_repartition(self, path):
        """A mote that joins after setup has no filter, so it reports;
        the repartition of that epoch must install one around its
        reported value, or it would report every epoch."""
        with (hotpath.reference_path() if path == "reference"
              else contextlib.nullcontext()):
            scenario = grid_rooms_scenario(side=6, rooms_per_axis=2, seed=3)
            network = scenario.network
            fila = Fila(network, make_aggregate("MAX", 0, 100), 5)
            fila.run(3)
            x, y = network.topology.positions[36]
            group = scenario.group_of[36]
            scenario.field.enroll(99, group)
            network.join_node(99, (x + 2.0, y + 2.0),
                              board=scenario.board_for(99), group=group)
            fila.run_epoch()
            assert 99 in fila.known
            assert 99 in fila.filters
            lo, hi = fila.filters[99]
            assert lo <= fila.known[99] <= hi


class TestValidation:
    def test_bad_k_rejected(self, deployment):
        with pytest.raises(ValidationError):
            Fila(deployment.network, make_aggregate("AVG", 0, 100), 0)

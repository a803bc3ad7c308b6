"""MINT: phases, γ descriptors, probes, exactness, savings."""

import pytest

from repro.core import Mint, MintConfig, Tag, is_valid_top_k, oracle_scores
from repro.core.aggregates import make_aggregate
from repro.core.mint import MAX_SLACK, QUIET_EPOCHS
from repro.errors import ConfigurationError, ValidationError
from repro.scenarios import figure1_scenario, grid_rooms_scenario
from repro.sensing.modalities import get_modality


def quantized_readings(scenario, epoch):
    modality = get_modality(scenario.attribute)
    return {n: modality.quantize(scenario.field.value(n, epoch))
            for n in scenario.group_of}


def raw_readings(scenario, epoch):
    return {n: scenario.field.value(n, epoch) for n in scenario.group_of}


class TestFigure1:
    """The §III-A walkthrough, end to end."""

    def test_correct_answer_with_zero_slack(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of, attribute="sound",
                    config=MintConfig(slack=0))
        creation = mint.run_epoch()
        update = mint.run_epoch()
        assert creation.top.key == "C"
        assert update.top.key == "C"
        assert update.top.score == 75.0

    def test_zero_slack_triggers_probe(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of, attribute="sound",
                    config=MintConfig(slack=0))
        mint.run_epoch()
        update = mint.run_epoch()
        assert update.probed == 1
        assert "probe" in scenario.network.stats.by_phase

    def test_slack_one_avoids_probe(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of, attribute="sound",
                    config=MintConfig(slack=1))
        mint.run_epoch()
        update = mint.run_epoch()
        assert update.probed == 0
        assert update.top.key == "C"

    def test_group_cardinalities_learned_at_creation(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of, attribute="sound")
        mint.run_epoch()
        assert mint.group_totals == {"A": 2, "B": 2, "C": 2, "D": 3}


class TestExactness:
    @pytest.mark.parametrize("func", ["AVG", "MAX", "MIN", "SUM"])
    def test_matches_oracle_across_epochs(self, func):
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=11)
        aggregate = make_aggregate(func, 0, 100)
        mint = Mint(scenario.network, aggregate, 2, scenario.group_of,
                    attribute="sound")
        for epoch in range(12):
            result = mint.run_epoch()
            truth = oracle_scores(quantized_readings(scenario, epoch),
                                  scenario.group_of, aggregate)
            assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6), \
                f"{func} wrong at epoch {epoch}"

    def test_exact_even_with_zero_slack(self):
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=13)
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(scenario.network, aggregate, 1, scenario.group_of,
                    config=MintConfig(slack=0))
        for epoch in range(15):
            result = mint.run_epoch()
            truth = oracle_scores(quantized_readings(scenario, epoch),
                                  scenario.group_of, aggregate)
            assert is_valid_top_k(result.items, truth, 1, tolerance=1e-6)

    def test_node_ranking_mode(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=17)
        nodes = {n: n for n in scenario.group_of}
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(scenario.network, aggregate, 3, nodes)
        for epoch in range(8):
            result = mint.run_epoch()
            truth = oracle_scores(quantized_readings(scenario, epoch),
                                  nodes, aggregate)
            assert is_valid_top_k(result.items, truth, 3, tolerance=1e-6)


class TestCosts:
    def test_cheaper_than_tag_for_small_k(self):
        a = grid_rooms_scenario(side=6, rooms_per_axis=3, seed=2)
        b = grid_rooms_scenario(side=6, rooms_per_axis=3, seed=2)
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(a.network, aggregate, 1, a.group_of,
                    config=MintConfig(slack=1))
        tag = Tag(b.network, aggregate, 1, b.group_of)
        for _ in range(25):
            mint.run_epoch()
            tag.run_epoch()
        assert a.network.stats.payload_bytes < b.network.stats.payload_bytes

    def test_update_phase_attributed(self):
        scenario = grid_rooms_scenario(side=4, seed=3)
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of)
        mint.run_epoch()
        mint.run_epoch()
        assert scenario.network.stats.by_phase["update"].messages > 0
        assert scenario.network.stats.by_phase["creation"].messages > 0

    def test_static_field_goes_silent(self):
        """With constant readings nothing changes after creation."""
        from repro.scenarios import figure1_scenario

        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 2,
                    scenario.group_of, config=MintConfig(slack=2))
        mint.run_epoch()  # creation
        baseline = scenario.network.stats.messages
        mint.run_epoch()  # keep-all: nothing pruned, nothing changed
        assert scenario.network.stats.messages == baseline


class TestAdaptiveSlack:
    def test_slack_grows_after_probe(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of,
                    config=MintConfig(slack=0, adaptive=True))
        mint.run_epoch()
        mint.run_epoch()  # probes (slack 0), controller reacts
        assert mint.slack == 1

    def test_slack_shrinks_after_quiet_period(self):
        """Figure 1's readings are constant, so no update epoch probes:
        slack holds through creation and QUIET_EPOCHS - 1 quiet
        updates, and the QUIET_EPOCHS-th shrinks it."""
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 2,
                    scenario.group_of,
                    config=MintConfig(slack=2, adaptive=True))
        for _ in range(QUIET_EPOCHS):
            mint.run_epoch()
        assert mint.slack == 2
        mint.run_epoch()
        assert mint.slack == 1

    def test_slack_capped(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of,
                    config=MintConfig(slack=MAX_SLACK - 1, adaptive=True))
        for _ in range(3):
            mint._adapt_slack(probed=1)
        assert mint.slack == MAX_SLACK


class TestTopologyChange:
    def test_recreates_views_after_death(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=19)
        network, tree = scenario.network, scenario.network.tree
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(network, aggregate, 2, scenario.group_of)
        network.subscribe(mint.handle_topology_event)
        for _ in range(3):
            mint.run_epoch()
        victim = next(n for n in tree.sensor_ids
                      if tree.is_leaf(n) and tree.parent(n) != tree.root)
        relays = [n for n in tree.path_to_root(tree.parent(victim))
                  if n != tree.root]
        network.kill_node(victim)
        # The victim's ancestors forget their reports, so each re-ships
        # its whole pruned view next epoch; creation does not re-run.
        assert victim not in mint.states
        assert relays and all(not mint.states[n].reported for n in relays)
        assert mint.created
        epoch = network.epoch
        result = mint.run_epoch()
        survivors = {n: scenario.group_of[n]
                     for n in scenario.group_of if n != victim}
        truth = oracle_scores(
            {n: v for n, v in quantized_readings(scenario, epoch).items()
             if n != victim},
            survivors, aggregate)
        assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6)


class TestValidation:
    def test_bad_k_rejected(self):
        scenario = figure1_scenario()
        with pytest.raises(ValidationError):
            Mint(scenario.network, make_aggregate("AVG", 0, 100), 0,
                 scenario.group_of)

    def test_run_convenience(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of)
        results = mint.run(3)
        assert [r.epoch for r in results] == [0, 1, 2]

    @pytest.mark.parametrize("field, value", [("slack", -3)])
    def test_config_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            MintConfig(**{field: value})

    def test_config_edge_values_accepted(self):
        assert MintConfig(slack=0).slack == 0
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 2,
                    scenario.group_of, config=MintConfig(slack=None))
        assert mint.slack == 2

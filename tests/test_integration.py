"""Cross-algorithm integration: shared traces, failures, loss, savings.

These tests run several algorithms over *identical* readings and check
the system-level claims: every exact algorithm agrees with every other,
the cost ordering matches the paper's story, and the system keeps
answering correctly through node failures and lossy links.
"""

import pytest

from repro.core import (
    Centralized,
    Mint,
    MintConfig,
    Tag,
    is_valid_top_k,
    oracle_scores,
)
from repro.core.aggregates import make_aggregate
from repro.network.churn import ChurnSchedule
from repro.network.link import RadioModel
from repro.network.simulator import Network
from repro.scenarios import grid_rooms_scenario
from repro.sensing.modalities import get_modality


def quantized(scenario, epoch):
    modality = get_modality(scenario.attribute)
    return {n: modality.quantize(scenario.field.value(n, epoch))
            for n in scenario.group_of
            if scenario.network.node(n).alive}


class TestAlgorithmAgreement:
    def test_mint_tag_centralized_agree(self):
        deployments = [grid_rooms_scenario(side=5, rooms_per_axis=2, seed=41)
                       for _ in range(3)]
        aggregate = make_aggregate("AVG", 0, 100)
        algos = [
            Mint(deployments[0].network, aggregate, 2,
                 deployments[0].group_of),
            Tag(deployments[1].network, aggregate, 2,
                deployments[1].group_of),
            Centralized(deployments[2].network, aggregate, 2,
                        deployments[2].group_of),
        ]
        for _ in range(10):
            mint, tag, centralized = (
                {item.key: item.score for item in algo.run_epoch().items}
                for algo in algos)
            # The three fold each room's AVG sum in a different order.
            assert mint == pytest.approx(tag, rel=0, abs=1e-9)
            assert tag == pytest.approx(centralized, rel=0, abs=1e-9)

    def test_cost_ordering_small_k(self):
        deployments = [grid_rooms_scenario(side=8, rooms_per_axis=4, seed=42)
                       for _ in range(3)]
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(deployments[0].network, aggregate, 1,
                    deployments[0].group_of, config=MintConfig(slack=1))
        tag = Tag(deployments[1].network, aggregate, 1,
                  deployments[1].group_of)
        centralized = Centralized(deployments[2].network, aggregate, 1,
                                  deployments[2].group_of)
        for _ in range(20):
            mint.run_epoch()
            tag.run_epoch()
            centralized.run_epoch()
        mint_bytes = deployments[0].network.stats.payload_bytes
        tag_bytes = deployments[1].network.stats.payload_bytes
        centralized_bytes = deployments[2].network.stats.payload_bytes
        assert mint_bytes < tag_bytes < centralized_bytes

    def test_energy_ordering_matches_bytes(self):
        deployments = [grid_rooms_scenario(side=6, rooms_per_axis=3, seed=43)
                       for _ in range(2)]
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(deployments[0].network, aggregate, 1,
                    deployments[0].group_of, config=MintConfig(slack=1))
        tag = Tag(deployments[1].network, aggregate, 1,
                  deployments[1].group_of)
        for _ in range(15):
            mint.run_epoch()
            tag.run_epoch()
        assert (deployments[0].network.stats.radio_joules
                < deployments[1].network.stats.radio_joules)


class TestFailureResilience:
    def test_mint_survives_scheduled_deaths(self):
        scenario = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=44)
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(scenario.network, aggregate, 2, scenario.group_of)
        scenario.network.subscribe(mint.handle_topology_event)
        # Kill two leaf nodes mid-run (leaves cannot partition the tree).
        leaves = [n for n in scenario.network.tree.sensor_ids
                  if scenario.network.tree.is_leaf(n)]
        schedule = ChurnSchedule.random_deaths(leaves[:6], count=2,
                                               epochs=10, seed=4,
                                               first_epoch=3)
        for epoch in range(10):
            schedule.apply(scenario.network, epoch)
            result = mint.run_epoch()
            survivors = {n: g for n, g in scenario.group_of.items()
                         if scenario.network.nodes[n].alive}
            truth = oracle_scores(quantized(scenario, epoch), survivors,
                                  aggregate)
            assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6), \
                f"wrong after failures at epoch {epoch}"

    def test_tag_continues_after_subtree_loss(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=45)
        aggregate = make_aggregate("AVG", 0, 100)
        tag = Tag(scenario.network, aggregate, 2, scenario.group_of)
        tag.run_epoch()
        victim = next(n for n in scenario.network.tree.sensor_ids
                      if scenario.network.tree.children(n))
        scenario.network.kill_node(victim)
        result = tag.run_epoch()
        survivors = {n: g for n, g in scenario.group_of.items()
                     if scenario.network.nodes[n].alive}
        truth = oracle_scores(quantized(scenario, 1), survivors, aggregate)
        assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6)


class TestLossyLinks:
    def test_mint_exact_under_arq(self):
        """With retransmissions the link layer is reliable; answers stay
        exact and the retry cost shows up in the energy ledger."""
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=46)
        lossy = Network(scenario.network.topology,
                        radio=RadioModel(loss_probability=0.2,
                                         max_retries=100),
                        boards={n: scenario.network.node(n).board
                                for n in scenario.group_of},
                        group_of=scenario.group_of,
                        seed=3)
        aggregate = make_aggregate("AVG", 0, 100)
        mint = Mint(lossy, aggregate, 2, scenario.group_of)
        for epoch in range(6):
            result = mint.run_epoch()
            readings = {n: get_modality("sound").quantize(
                scenario.field.value(n, epoch)) for n in scenario.group_of}
            truth = oracle_scores(readings, scenario.group_of, aggregate)
            assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6)
        assert lossy.stats.retransmissions > 0


class TestSavingsGrowWithScale:
    def test_byte_saving_increases_with_network_size(self):
        """The demo's 'enormous savings' claim: the MINT/TAG byte ratio
        improves (or holds) as the network grows, for fixed small k."""
        savings = []
        for side in (4, 8):
            a = grid_rooms_scenario(side=side, rooms_per_axis=4, seed=47)
            b = grid_rooms_scenario(side=side, rooms_per_axis=4, seed=47)
            aggregate = make_aggregate("AVG", 0, 100)
            nodes_a = {n: n for n in a.group_of}
            nodes_b = {n: n for n in b.group_of}
            mint = Mint(a.network, aggregate, 1, nodes_a,
                        config=MintConfig(slack=1))
            tag = Tag(b.network, aggregate, 1, nodes_b)
            for _ in range(10):
                mint.run_epoch()
                tag.run_epoch()
            savings.append(1 - a.network.stats.payload_bytes
                           / b.network.stats.payload_bytes)
        assert savings[-1] > savings[0]
        assert savings[-1] > 0.3

"""TAG, centralized and naive baselines."""

import pytest

from repro.core import Centralized, NaiveTopK, Tag, oracle_scores, is_valid_top_k
from repro.core.aggregates import make_aggregate
from repro.scenarios import figure1_scenario, grid_rooms_scenario
from repro.sensing.modalities import get_modality


def quantized_readings(scenario, epoch):
    modality = get_modality(scenario.attribute)
    return {n: modality.quantize(scenario.field.value(n, epoch))
            for n in scenario.group_of}


class TestTag:
    def test_exact_per_epoch(self):
        scenario = grid_rooms_scenario(side=4, seed=5)
        aggregate = make_aggregate("AVG", 0, 100)
        tag = Tag(scenario.network, aggregate, 3, scenario.group_of)
        for epoch in range(6):
            result = tag.run_epoch()
            truth = oracle_scores(quantized_readings(scenario, epoch),
                                  scenario.group_of, aggregate)
            assert is_valid_top_k(result.items, truth, 3, tolerance=1e-6)
            assert result.exact

    def test_k_none_returns_all_groups(self):
        scenario = figure1_scenario()
        tag = Tag(scenario.network, make_aggregate("AVG", 0, 100), None,
                  scenario.group_of)
        result = tag.run_epoch()
        assert {i.key for i in result.items} == {"A", "B", "C", "D"}

    def test_every_sensor_transmits_every_epoch(self):
        scenario = figure1_scenario()
        tag = Tag(scenario.network, make_aggregate("AVG", 0, 100), 1,
                  scenario.group_of)
        tag.run_epoch()
        view_updates = scenario.network.stats.by_kind["view_update"]
        assert view_updates == len(scenario.network.tree.sensor_ids)

    def test_where_fn_filters_readings(self):
        scenario = figure1_scenario()
        tag = Tag(scenario.network, make_aggregate("AVG", 0, 100), None,
                  scenario.group_of,
                  where_fn=lambda node, group, value: value > 70.0)
        result = tag.run_epoch()
        scores = {i.key: i.score for i in result.items}
        # Room B (40, 42) is filtered out entirely.
        assert "B" not in scores
        assert scores["A"] == pytest.approx(74.5)


class TestCentralized:
    def test_exact(self):
        scenario = grid_rooms_scenario(side=4, seed=6)
        aggregate = make_aggregate("AVG", 0, 100)
        algo = Centralized(scenario.network, aggregate, 2, scenario.group_of)
        for epoch in range(4):
            result = algo.run_epoch()
            truth = oracle_scores(quantized_readings(scenario, epoch),
                                  scenario.group_of, aggregate)
            assert is_valid_top_k(result.items, truth, 2, tolerance=1e-6)

    def test_bytes_exceed_tag(self):
        # Few groups relative to sensors, so aggregation compresses.
        a = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=7)
        b = grid_rooms_scenario(side=5, rooms_per_axis=2, seed=7)
        aggregate = make_aggregate("AVG", 0, 100)
        cent = Centralized(a.network, aggregate, 2, a.group_of)
        tag = Tag(b.network, aggregate, 2, b.group_of)
        for _ in range(10):
            cent.run_epoch()
            tag.run_epoch()
        assert a.network.stats.payload_bytes > b.network.stats.payload_bytes

    def test_raw_tuples_scale_with_subtree(self):
        scenario = figure1_scenario()
        algo = Centralized(scenario.network, make_aggregate("AVG", 0, 100),
                           1, scenario.group_of)
        algo.run_epoch()
        # Total forwarded readings = sum of subtree sizes = 9 + 3·(own+desc).
        tree = scenario.network.tree
        expected = sum(len(tree.subtree(n)) for n in tree.sensor_ids)
        raw_bytes = scenario.network.stats._counters()[0]["raw_readings"][2]
        per_reading = 6
        per_message = 4  # epoch header
        n_messages = len(tree.sensor_ids)
        assert raw_bytes == expected * per_reading + n_messages * per_message


class TestNaive:
    def test_figure1_wrong_answer(self):
        scenario = figure1_scenario()
        naive = NaiveTopK(scenario.network, make_aggregate("AVG", 0, 100),
                          1, scenario.group_of)
        result = naive.run_epoch()
        assert result.top.key == "D"
        assert result.top.score == pytest.approx(76.5)
        assert not result.exact

    def test_cheaper_than_tag(self):
        a = grid_rooms_scenario(side=5, seed=8)
        b = grid_rooms_scenario(side=5, seed=8)
        aggregate = make_aggregate("AVG", 0, 100)
        naive = NaiveTopK(a.network, aggregate, 1, a.group_of)
        tag = Tag(b.network, aggregate, 1, b.group_of)
        for _ in range(10):
            naive.run_epoch()
            tag.run_epoch()
        assert a.network.stats.payload_bytes <= b.network.stats.payload_bytes

    def test_sometimes_right_sometimes_wrong(self):
        """Across many random deployments the error rate is nonzero but
        not total — the motivation metric of experiment E10."""
        from repro.scenarios import random_rooms_scenario

        wrong = 0
        total = 0
        aggregate = make_aggregate("AVG", 0, 100)
        for seed in range(12):
            scenario = random_rooms_scenario(rooms=5, sensors_per_room=3,
                                             seed=seed)
            naive = NaiveTopK(scenario.network, aggregate, 1,
                              scenario.group_of)
            result = naive.run_epoch()
            truth = oracle_scores(quantized_readings(scenario, 0),
                                  scenario.group_of, aggregate)
            total += 1
            if not is_valid_top_k(result.items, truth, 1, tolerance=1e-6):
                wrong += 1
        assert 0 < total
        assert wrong < total  # it is not always wrong

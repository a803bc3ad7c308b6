"""Canonical scenarios: Figure-1 fidelity and generators."""

import pytest

from repro.core import Mint, MintConfig, NaiveTopK, Tag, oracle_scores
from repro.core.aggregates import make_aggregate
from repro.errors import ConfigurationError
from repro.scenarios import (
    FIGURE1_READINGS,
    FIGURE1_ROOMS,
    conference_scenario,
    figure1_scenario,
    grid_rooms_scenario,
    random_rooms_scenario,
)


class TestFigure1Fidelity:
    """Every number of the paper's §III-A walkthrough."""

    def test_room_averages(self):
        avg = make_aggregate("AVG", 0, 100)
        scores = oracle_scores(FIGURE1_READINGS, FIGURE1_ROOMS, avg)
        assert scores == {"A": 74.5, "B": 41.0, "C": 75.0, "D": 64.0}

    def test_nine_sensors_four_rooms(self):
        assert len(FIGURE1_READINGS) == 9
        assert len(set(FIGURE1_ROOMS.values())) == 4

    def test_naive_answers_d_76_5(self):
        scenario = figure1_scenario()
        naive = NaiveTopK(scenario.network, make_aggregate("AVG", 0, 100),
                          1, scenario.group_of)
        result = naive.run_epoch()
        assert (result.top.key, result.top.score) == ("D", 76.5)

    def test_mint_answers_c_75(self):
        scenario = figure1_scenario()
        mint = Mint(scenario.network, make_aggregate("AVG", 0, 100), 1,
                    scenario.group_of, config=MintConfig(slack=0))
        mint.run_epoch()
        result = mint.run_epoch()
        assert (result.top.key, result.top.score) == ("C", 75.0)

    def test_tag_answers_c_75(self):
        scenario = figure1_scenario()
        tag = Tag(scenario.network, make_aggregate("AVG", 0, 100), 1,
                  scenario.group_of)
        result = tag.run_epoch()
        assert (result.top.key, result.top.score) == ("C", 75.0)

    def test_s9_routes_through_s4(self):
        scenario = figure1_scenario()
        assert scenario.network.tree.parent(9) == 4
        # s4's own room is B: the greedy elimination point of §III-A.
        assert scenario.group_of[4] == "B"
        assert scenario.group_of[9] == "D"


class TestConference:
    def test_fifteen_motes_six_clusters(self):
        scenario = conference_scenario()
        assert len(scenario.group_of) == 15
        assert len(set(scenario.group_of.values())) == 6

    def test_deterministic(self):
        a = conference_scenario(seed=7)
        b = conference_scenario(seed=7)
        assert a.network.topology.positions == b.network.topology.positions

    def test_sound_in_range(self):
        scenario = conference_scenario()
        for epoch in range(5):
            for node in scenario.group_of:
                value = scenario.field.value(node, epoch)
                assert 0.0 <= value <= 100.0


class TestGridRooms:
    def test_dimensions(self):
        scenario = grid_rooms_scenario(side=6, rooms_per_axis=3)
        assert len(scenario.group_of) == 36
        assert len(set(scenario.group_of.values())) == 9

    def test_rooms_are_contiguous_blocks(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2)
        assert scenario.group_of[1] == "R00"
        assert scenario.group_of[4] == "R01"
        assert scenario.group_of[16] == "R11"

    def test_skewed_field(self):
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, skew=1.5)
        levels = scenario.field._level.values()
        assert max(levels) > 2 * min(levels)

    @pytest.mark.parametrize("rooms", [0, -1])
    def test_no_rooms_is_a_configuration_error(self, rooms):
        with pytest.raises(ConfigurationError, match="rooms_per_axis"):
            grid_rooms_scenario(side=4, rooms_per_axis=rooms)


class TestRandomRooms:
    def test_shape(self):
        scenario = random_rooms_scenario(rooms=4, sensors_per_room=2, seed=1)
        assert len(scenario.group_of) == 8
        assert len(set(scenario.group_of.values())) == 4

    def test_connected_and_routable(self):
        for seed in range(4):
            scenario = random_rooms_scenario(seed=seed)
            assert scenario.network.tree.height >= 1

"""KSpotEngine: plan routing, WHERE handling, historic execution."""

import pytest

from helpers import fill_windows
from repro.api import Deployment
from repro.core import KSpotEngine, is_valid_top_k, oracle_scores
from repro.core.aggregates import make_aggregate
from repro.errors import PlanError
from repro.query.plan import Algorithm, compile_query
from repro.query.validator import Schema
from repro.scenarios import figure1_scenario, grid_rooms_scenario
from repro.sensing.modalities import get_modality


@pytest.fixture
def schema():
    return Schema.for_deployment(("sound",), group_keys=("roomid",))


def engine_for(scenario, text, schema, algorithm=None, **kwargs):
    _, plan = compile_query(text, schema, algorithm=algorithm)
    return KSpotEngine(scenario.network, plan, group_of=scenario.group_of,
                       **kwargs)


class TestSnapshotRouting:
    def test_paper_query_runs_mint(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(
            scenario,
            "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min", schema)
        results = engine.run(2)
        assert results[-1].algorithm == "mint"
        assert results[-1].top.key == "C"
        assert results[-1].top.score == 75.0

    def test_algorithm_override(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(
            scenario,
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid",
            schema, algorithm=Algorithm.NAIVE)
        result = engine.run_epoch()
        assert result.algorithm == "naive"
        assert result.top.key == "D"  # the wrongful answer

    def test_ungrouped_ranking_monitors_nodes(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=31)
        engine = engine_for(scenario, "SELECT TOP 3 nodeid, sound "
                            "FROM sensors", schema)
        result = engine.run_epoch()
        assert all(isinstance(item.key, int) for item in result.items)

    def test_fila_override_for_node_ranking(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=32)
        engine = engine_for(scenario, "SELECT TOP 2 nodeid, sound "
                            "FROM sensors", schema,
                            algorithm=Algorithm.FILA)
        result = engine.run_epoch()
        assert result.algorithm == "fila"

    def test_fila_rejected_for_cluster_ranking(self, schema):
        scenario = figure1_scenario()
        with pytest.raises(PlanError, match="FILA"):
            engine_for(scenario,
                       "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                       "GROUP BY roomid", schema,
                       algorithm=Algorithm.FILA).run_epoch()

    def test_non_ranking_query_runs_tag(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(scenario,
                            "SELECT roomid, AVG(sound) FROM sensors "
                            "GROUP BY roomid", schema)
        result = engine.run_epoch()
        assert result.algorithm == "tag"
        assert {i.key for i in result.items} == {"A", "B", "C", "D"}

    def test_run_requires_epoch_budget(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(scenario, "SELECT TOP 1 roomid, AVG(sound) "
                            "FROM sensors GROUP BY roomid", schema)
        with pytest.raises(PlanError, match="LIFETIME"):
            engine.run()

    def test_lifetime_sets_epoch_budget(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(scenario,
                            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                            "GROUP BY roomid EPOCH DURATION 1 min "
                            "LIFETIME 3 min", schema)
        assert len(engine.run()) == 3


class TestWhereHandling:
    def test_static_where_excludes_nodes(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(scenario,
                            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                            "WHERE roomid != 'C' GROUP BY roomid", schema)
        result = engine.run_epoch()
        assert result.top.key == "A"

    def test_static_nodeid_where(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(scenario,
                            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                            "WHERE nodeid <= 4 GROUP BY roomid", schema)
        result = engine.run_epoch()
        # Only s1..s4 participate: A = {74, 75}, B = {40, 42}.
        assert result.top.key == "A"
        assert result.top.score == pytest.approx(74.5)

    def test_dynamic_where_rejected_for_mint(self, schema):
        scenario = figure1_scenario()
        with pytest.raises(PlanError, match="static group cardinalities"):
            engine_for(scenario,
                       "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                       "WHERE sound > 50 GROUP BY roomid", schema)

    def test_dynamic_where_allowed_for_tag(self, schema):
        scenario = figure1_scenario()
        engine = engine_for(scenario,
                            "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                            "WHERE sound > 50 GROUP BY roomid", schema,
                            algorithm=Algorithm.TAG)
        result = engine.run_epoch()
        # Rooms A (74, 75), C (75, 75), D (75, 78) survive; B is gone.
        assert result.top.key == "D"
        assert result.top.score == pytest.approx(76.5)

    def test_where_excluding_everyone_rejected(self, schema):
        scenario = figure1_scenario()
        with pytest.raises(PlanError, match="excludes every sensor"):
            engine_for(scenario,
                       "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                       "WHERE nodeid > 99 GROUP BY roomid", schema)

    @pytest.mark.parametrize("text, algorithm", [
        ("SELECT TOP 2 roomid, AVG(sound) FROM sensors WHERE epoch > 100 "
         "GROUP BY roomid EPOCH DURATION 1 s", None),
        ("SELECT TOP 2 roomid, AVG(sound) FROM sensors WHERE epoch > 100 "
         "GROUP BY roomid EPOCH DURATION 1 s", Algorithm.TAG),
        ("SELECT TOP 2 nodeid, MAX(sound) FROM sensors WHERE epoch > 100 "
         "GROUP BY nodeid EPOCH DURATION 1 s", Algorithm.FILA),
        ("SELECT TOP 2 epoch, AVG(sound) FROM sensors WHERE epoch > 12 "
         "GROUP BY epoch WITH HISTORY 3 s EPOCH DURATION 1 s", None),
    ], ids=["mint", "tag", "fila", "tja"])
    def test_where_naming_epoch_refused_at_submit(self, text, algorithm):
        """No algorithm filters on ``epoch``: MINT, TAG and FILA
        answered from epoch 0 on, and under ``GROUP BY epoch`` the
        static pre-filter tested each sensor's id instead, keeping
        motes 13-16 and answering epochs 2 and 0."""
        deployment = Deployment.from_scenario(
            grid_rooms_scenario(side=4, rooms_per_axis=2, seed=1))
        with pytest.raises(PlanError, match="names epoch"):
            deployment.submit(text, algorithm=algorithm)
        assert deployment.sessions() == ()


class TestHistoric:
    def test_vertical_pipeline(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=33)
        engine = engine_for(scenario,
                            "SELECT TOP 4 epoch, AVG(sound) FROM sensors "
                            "GROUP BY epoch WITH HISTORY 20 s "
                            "EPOCH DURATION 1 s", schema)
        fill_windows(engine)
        result = engine.execute_historic()
        assert len(result.items) == 4
        # Validate against a recomputation from the boards.
        modality = get_modality("sound")
        nodes = list(scenario.group_of)
        truth = {}
        for t in range(20):
            values = [modality.quantize(scenario.field.value(n, t))
                      for n in nodes]
            truth[t] = sum(values) / len(values)
        ranked = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [i.key for i in result.items] == [t for t, _ in ranked[:4]]

    def test_vertical_tput_override(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=34)
        engine = engine_for(scenario,
                            "SELECT TOP 2 epoch, AVG(sound) FROM sensors "
                            "GROUP BY epoch WITH HISTORY 10 s "
                            "EPOCH DURATION 1 s", schema,
                            algorithm=Algorithm.TPUT)
        fill_windows(engine)
        result = engine.execute_historic()
        assert len(result.items) == 2

    def test_vertical_centralized_oracle(self, schema):
        a = grid_rooms_scenario(side=4, seed=35)
        b = grid_rooms_scenario(side=4, seed=35)
        text = ("SELECT TOP 3 epoch, AVG(sound) FROM sensors "
                "GROUP BY epoch WITH HISTORY 15 s EPOCH DURATION 1 s")
        tja_engine = engine_for(a, text, schema)
        cent_engine = engine_for(b, text, schema,
                                 algorithm=Algorithm.CENTRALIZED)
        fill_windows(tja_engine)
        fill_windows(cent_engine)
        tja_result = tja_engine.execute_historic()
        cent_result = cent_engine.execute_historic()
        assert [i.key for i in tja_result.items] == \
            [i.key for i in cent_result.items]
        assert a.network.stats.payload_bytes < b.network.stats.payload_bytes

    def test_acquisition_is_radio_silent(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=36)
        engine = engine_for(scenario,
                            "SELECT TOP 2 epoch, AVG(sound) FROM sensors "
                            "GROUP BY epoch WITH HISTORY 10 s", schema)
        fill_windows(engine)
        assert scenario.network.stats.messages == 0

    def test_epoch_mode_rejected_for_vertical(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=37)
        engine = engine_for(scenario,
                            "SELECT TOP 2 epoch, AVG(sound) FROM sensors "
                            "GROUP BY epoch WITH HISTORY 10 s", schema)
        with pytest.raises(PlanError, match="execute_historic"):
            engine.run_epoch()

    def test_historic_horizontal_windows(self, schema):
        scenario = grid_rooms_scenario(side=4, seed=38)
        engine = engine_for(scenario,
                            "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                            "GROUP BY roomid WITH HISTORY 5 s", schema)
        results = engine.run(8)
        aggregate = make_aggregate("AVG", 0, 100)
        modality = get_modality("sound")
        # At epoch 7 every node contributes its 5-reading window average.
        window_avgs = {}
        for node in scenario.group_of:
            values = [modality.quantize(scenario.field.value(node, t))
                      for t in range(3, 8)]
            window_avgs[node] = sum(values) / len(values)
        truth = oracle_scores(window_avgs, scenario.group_of, aggregate)
        assert is_valid_top_k(results[-1].items, truth, 2, tolerance=1e-6)

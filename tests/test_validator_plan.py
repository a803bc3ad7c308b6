"""Semantic validation and plan routing."""

import pytest

from repro.errors import PlanError, ValidationError
from repro.query.parser import parse
from repro.query.plan import (
    Algorithm,
    QueryClass,
    classify,
    compile_query,
)
from repro.query.validator import Schema, validate


@pytest.fixture
def schema():
    return Schema.for_deployment(("sound", "temperature"),
                                 group_keys=("roomid",))


def check(text, schema):
    validate(parse(text), schema)


class TestValidator:
    def test_paper_query_valid(self, schema):
        check("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
              "GROUP BY roomid EPOCH DURATION 1 min", schema)

    def test_unknown_relation(self, schema):
        with pytest.raises(ValidationError, match="relation"):
            check("SELECT sound FROM motes", schema)

    def test_unknown_sensed_attribute(self, schema):
        with pytest.raises(ValidationError, match="not a sensed"):
            check("SELECT AVG(humidity) FROM sensors", schema)

    def test_unknown_group_key(self, schema):
        with pytest.raises(ValidationError, match="GROUP BY"):
            check("SELECT TOP 1 floorid, AVG(sound) FROM sensors "
                  "GROUP BY floorid", schema)

    def test_non_grouped_column_rejected(self, schema):
        with pytest.raises(ValidationError, match="must appear"):
            check("SELECT nodeid, AVG(sound) FROM sensors GROUP BY roomid",
                  schema)

    def test_two_ranking_aggregates_rejected(self, schema):
        with pytest.raises(ValidationError, match="exactly one"):
            check("SELECT TOP 1 roomid, AVG(sound), MAX(sound) FROM sensors "
                  "GROUP BY roomid", schema)

    def test_grouped_topk_needs_aggregate(self, schema):
        with pytest.raises(ValidationError, match="needs an aggregate"):
            check("SELECT TOP 1 roomid FROM sensors GROUP BY roomid", schema)

    def test_ungrouped_topk_needs_one_sensed_column(self, schema):
        with pytest.raises(ValidationError, match="exactly one"):
            check("SELECT TOP 1 sound, temperature FROM sensors", schema)

    def test_select_star_cannot_rank(self, schema):
        with pytest.raises(ValidationError):
            check("SELECT TOP 1 * FROM sensors", schema)

    def test_epoch_grouping_requires_history(self, schema):
        with pytest.raises(ValidationError, match="WITH HISTORY"):
            check("SELECT TOP 1 epoch, AVG(sound) FROM sensors "
                  "GROUP BY epoch", schema)

    def test_epoch_grouping_requires_topk(self, schema):
        with pytest.raises(ValidationError, match="TOP-K"):
            check("SELECT epoch, AVG(sound) FROM sensors GROUP BY epoch "
                  "WITH HISTORY 1 h", schema)

    def test_where_unknown_attribute(self, schema):
        with pytest.raises(ValidationError, match="WHERE"):
            check("SELECT sound FROM sensors WHERE humidity > 5", schema)

    def test_count_star_allowed(self, schema):
        check("SELECT COUNT(*) FROM sensors", schema)

    def test_builtin_attributes_known(self, schema):
        check("SELECT nodeid, sound FROM sensors WHERE nodeid < 5", schema)


class TestClassify:
    def cases(self):
        return [
            ("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid",
             QueryClass.SNAPSHOT),
            ("SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid "
             "WITH HISTORY 1 h", QueryClass.HISTORIC_HORIZONTAL),
            ("SELECT TOP 1 epoch, AVG(sound) FROM sensors GROUP BY epoch "
             "WITH HISTORY 1 h", QueryClass.HISTORIC_VERTICAL),
            ("SELECT AVG(sound) FROM sensors", QueryClass.AGGREGATE),
        ]

    def test_classification(self):
        for text, expected in self.cases():
            assert classify(parse(text)) is expected


class TestRouting:
    def test_default_routing(self, schema):
        _, plan = compile_query(
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
            schema)
        assert plan.algorithm is Algorithm.MINT
        _, plan = compile_query(
            "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch "
            "WITH HISTORY 1 h", schema)
        assert plan.algorithm is Algorithm.TJA
        _, plan = compile_query("SELECT AVG(sound) FROM sensors", schema)
        assert plan.algorithm is Algorithm.TAG

    def test_override_allowed_when_compatible(self, schema):
        _, plan = compile_query(
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid",
            schema, algorithm=Algorithm.TAG)
        assert plan.algorithm is Algorithm.TAG

    def test_override_rejected_when_incompatible(self, schema):
        with pytest.raises(PlanError):
            compile_query(
                "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                "GROUP BY roomid", schema, algorithm=Algorithm.TJA)

    @pytest.mark.parametrize("text", [
        "SELECT * FROM sensors",
        "SELECT epoch FROM sensors",
        "SELECT nodeid FROM sensors",
    ])
    def test_nothing_to_sample_rejected(self, schema, text):
        with pytest.raises(PlanError):
            compile_query(text, schema)

    def test_tput_only_for_vertical(self, schema):
        _, plan = compile_query(
            "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch "
            "WITH HISTORY 1 h", schema, algorithm=Algorithm.TPUT)
        assert plan.algorithm is Algorithm.TPUT


class TestPlanFields:
    def test_window_epochs_derived(self, schema):
        _, plan = compile_query(
            "SELECT TOP 1 epoch, AVG(temperature) FROM sensors "
            "GROUP BY epoch WITH HISTORY 3 months EPOCH DURATION 1 day",
            schema)
        assert plan.window_epochs == 90
        assert plan.epoch_seconds == 86400.0

    def test_default_epoch_seconds(self, schema):
        _, plan = compile_query("SELECT AVG(sound) FROM sensors", schema)
        assert plan.epoch_seconds == 1.0
        assert not plan.continuous

    def test_continuous_flag(self, schema):
        _, plan = compile_query(
            "SELECT AVG(sound) FROM sensors EPOCH DURATION 5 s", schema)
        assert plan.continuous

    def test_lifetime_epochs(self, schema):
        _, plan = compile_query(
            "SELECT AVG(sound) FROM sensors EPOCH DURATION 1 min "
            "LIFETIME 1 h", schema)
        assert plan.lifetime_epochs == 60

    def test_ungrouped_ranking_uses_nodeid(self, schema):
        _, plan = compile_query("SELECT TOP 3 nodeid, sound FROM sensors",
                                schema)
        assert plan.group_key == "nodeid"
        assert plan.attribute == "sound"
        assert plan.agg_func == "AVG"

    def test_where_preserved(self, schema):
        _, plan = compile_query(
            "SELECT sound FROM sensors WHERE sound > 50", schema)
        assert plan.where is not None

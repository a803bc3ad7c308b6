"""Query parser: grammar coverage and round-tripping."""

import pytest

from repro.errors import ParseError
from repro.query.ast_nodes import (
    AggregateCall,
    BoolOp,
    ColumnRef,
    Comparison,
    NotOp,
)
from repro.query.parser import parse


class TestPaperQueries:
    def test_running_example(self):
        q = parse("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
                  "GROUP BY roomid EPOCH DURATION 1 min")
        assert q.top_k == 1
        assert q.group_by == "roomid"
        assert q.epoch.seconds == 60.0
        assert q.aggregates == (AggregateCall("AVG", "sound"),)

    def test_historic_horizontal(self):
        q = parse("SELECT TOP 3 roomid, AVERAGE(sound) FROM sensors "
                  "GROUP BY roomid WITH HISTORY 10 min")
        assert q.history.seconds == 600.0

    def test_historic_vertical(self):
        q = parse("SELECT TOP 5 epoch, AVG(temperature) FROM sensors "
                  "GROUP BY epoch WITH HISTORY 3 months")
        assert q.group_by == "epoch"
        assert q.history.seconds == 3 * 30 * 86400.0


class TestSelectList:
    def test_average_normalises_to_avg(self):
        q = parse("SELECT AVERAGE(sound) FROM sensors")
        assert q.aggregates[0].func == "AVG"

    def test_all_aggregates(self):
        for func in ("AVG", "MIN", "MAX", "SUM", "COUNT"):
            q = parse(f"SELECT {func}(sound) FROM sensors")
            assert q.aggregates[0].func == func

    def test_count_star(self):
        q = parse("SELECT COUNT(*) FROM sensors")
        assert q.aggregates[0].argument == "*"

    def test_avg_star_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT AVG(*) FROM sensors")

    def test_select_star(self):
        q = parse("SELECT * FROM sensors")
        assert q.plain_columns[0].name == "*"

    def test_alias(self):
        q = parse("SELECT AVG(sound) AS loudness FROM sensors")
        assert q.select[0].alias == "loudness"

    def test_multiple_items(self):
        q = parse("SELECT nodeid, sound, temperature FROM sensors")
        assert len(q.select) == 3


class TestTopK:
    def test_k_parsed(self):
        assert parse("SELECT TOP 12 sound FROM sensors").top_k == 12

    def test_missing_k_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT TOP roomid FROM sensors")

    def test_zero_k_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT TOP 0 sound FROM sensors")

    def test_fractional_k_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT TOP 2.5 sound FROM sensors")


class TestWhere:
    def test_simple_comparison(self):
        q = parse("SELECT sound FROM sensors WHERE sound > 50")
        assert q.where == Comparison(ColumnRef("sound"), ">", q.where.right)
        assert q.where.right.value == 50.0

    def test_string_literal(self):
        q = parse("SELECT sound FROM sensors WHERE roomid = 'A'")
        assert q.where.right.value == "A"

    def test_bare_identifier_rhs_is_string(self):
        q = parse("SELECT sound FROM sensors WHERE roomid = A")
        assert q.where.right.value == "A"

    def test_flipped_literal_comparison(self):
        q = parse("SELECT sound FROM sensors WHERE 50 < sound")
        assert q.where.op == ">"
        assert q.where.left.name == "sound"

    def test_and_or_precedence(self):
        q = parse("SELECT sound FROM sensors "
                  "WHERE sound > 50 AND sound < 90 OR nodeid = 1")
        assert isinstance(q.where, BoolOp)
        assert q.where.op == "OR"
        assert isinstance(q.where.operands[0], BoolOp)
        assert q.where.operands[0].op == "AND"

    def test_parentheses_override(self):
        q = parse("SELECT sound FROM sensors "
                  "WHERE sound > 50 AND (sound < 90 OR nodeid = 1)")
        assert q.where.op == "AND"
        assert isinstance(q.where.operands[1], BoolOp)

    def test_not(self):
        q = parse("SELECT sound FROM sensors WHERE NOT sound > 50")
        assert isinstance(q.where, NotOp)

    def test_epoch_in_where(self):
        q = parse("SELECT sound FROM sensors WHERE epoch > 5")
        assert q.where.left.name == "epoch"


class TestClauses:
    def test_any_clause_order(self):
        q = parse("SELECT TOP 1 epoch, AVG(sound) FROM sensors "
                  "GROUP BY epoch WITH HISTORY 1 h EPOCH DURATION 30 s "
                  "LIFETIME 1 day")
        assert q.epoch.seconds == 30.0
        assert q.history.seconds == 3600.0
        assert q.lifetime.seconds == 86400.0

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("SELECT sound FROM sensors "
                  "EPOCH DURATION 1 s EPOCH DURATION 2 s")

    def test_duration_unit_defaults_to_seconds(self):
        q = parse("SELECT sound FROM sensors EPOCH DURATION 30")
        assert q.epoch.seconds == 30.0

    def test_min_as_time_unit(self):
        q = parse("SELECT sound FROM sensors EPOCH DURATION 2 min")
        assert q.epoch.seconds == 120.0

    def test_trailing_semicolon_ok(self):
        parse("SELECT sound FROM sensors;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("SELECT sound FROM sensors banana")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT sound sensors")


class TestUnparse:
    CASES = [
        "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid "
        "EPOCH DURATION 1 min",
        "SELECT TOP 5 epoch, AVG(temperature) FROM sensors GROUP BY epoch "
        "WITH HISTORY 3 months",
        "SELECT sound FROM sensors WHERE sound > 50 AND roomid = 'A'",
        "SELECT COUNT(*) FROM sensors",
        "SELECT AVG(sound) AS loudness FROM sensors LIFETIME 2 h",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_unparse_is_stable(self, text):
        once = parse(text).unparse()
        twice = parse(once).unparse()
        assert once == twice

    def test_unparse_equivalent_ast(self):
        q = parse("select top 2 roomid , average( sound ) from sensors "
                  "group by roomid")
        again = parse(q.unparse())
        assert again == q

"""Historic-vertical queries through the engine for every aggregate."""

import pytest

from helpers import fill_windows
from repro.core import KSpotEngine
from repro.query.plan import compile_query
from repro.query.validator import Schema
from repro.scenarios import grid_rooms_scenario
from repro.sensing.modalities import get_modality


@pytest.fixture
def schema():
    return Schema.for_deployment(("sound",))


def truth_ranking(scenario, epochs, combine, k):
    modality = get_modality("sound")
    nodes = sorted(scenario.group_of)
    scores = {}
    for t in range(epochs):
        values = [modality.quantize(scenario.field.value(n, t))
                  for n in nodes]
        scores[t] = combine(values)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


COMBINERS = {
    "AVG": lambda vs: sum(vs) / len(vs),
    "SUM": sum,
    "MAX": max,
    "MIN": min,
}


@pytest.mark.parametrize("func", ["AVG", "SUM", "MAX", "MIN"])
def test_tja_through_engine(schema, func):
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=71)
    text = (f"SELECT TOP 3 epoch, {func}(sound) FROM sensors "
            f"GROUP BY epoch WITH HISTORY 18 s EPOCH DURATION 1 s")
    _, plan = compile_query(text, schema)
    engine = KSpotEngine(scenario.network, plan, group_of=scenario.group_of)
    fill_windows(engine)
    result = engine.execute_historic()
    expected = truth_ranking(scenario, 18, COMBINERS[func], 3)
    assert [i.key for i in result.items] == [t for t, _ in expected]
    for item, (_, score) in zip(result.items, expected):
        assert item.score == pytest.approx(score)


def test_windowed_sum_bounds_scale(schema):
    """SUM over a window can exceed the modality range; the engine
    scales the aggregate's bound domain accordingly (a windowed SUM of
    W readings lies in [lo, W·hi])."""
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=72)
    text = ("SELECT TOP 2 roomid, SUM(sound) FROM sensors "
            "GROUP BY roomid WITH HISTORY 10 s EPOCH DURATION 1 s")
    _, plan = compile_query(text, schema)
    engine = KSpotEngine(scenario.network, plan, group_of=scenario.group_of)
    assert engine.aggregate.hi == pytest.approx(100.0 * 10)
    results = engine.run(12)
    assert all(r.exact for r in results)

"""Property-based tests (hypothesis) on the core invariants.

These cover the claims the whole system leans on: the partial-aggregate
algebra is a commutative monoid, the bound logic is sound under
arbitrary partitions of the readings, certification never lies, MINT
and TJA always equal the centralized oracle, and the storage structures
agree with brute force.
"""

from __future__ import annotations

import functools
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Deployment, SessionState
from repro.cli import main
from repro.core.aggregates import make_aggregate
from repro.core.certify import certify_top_k
from repro.core.aggregates import Bounds, Partial
from repro.core.results import is_valid_top_k, oracle_scores, rank_key
from repro.errors import KSpotError
from repro.query.parser import parse
from repro.query.plan import Algorithm
from repro.scenarios import CHURN_PRESETS, grid_rooms_scenario

values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)
funcs = st.sampled_from(["AVG", "SUM", "MIN", "MAX"])


class TestAggregateAlgebra:
    @given(st.sampled_from(["AVG", "SUM", "COUNT", "MIN", "MAX"]),
           values, values, st.integers(0, 1000), st.integers(0, 1000))
    def test_merge_is_combine_of_values(self, func, a, b, count_a,
                                        count_b):
        """``combine`` is the value half of ``merge``: TJA's join rows
        fold a whole row of equal-count partials with it."""
        agg = make_aggregate(func, 0, 100)
        pa, pb = Partial(a, count_a), Partial(b, count_b)
        assert agg.merge(pa, pb) == Partial(agg.combine(a, b),
                                            count_a + count_b)

    @given(funcs, values, values, values)
    def test_merge_associative(self, func, a, b, c):
        agg = make_aggregate(func, 0, 100)
        pa, pb, pc = (agg.from_value(v) for v in (a, b, c))
        left = agg.merge(agg.merge(pa, pb), pc)
        right = agg.merge(pa, agg.merge(pb, pc))
        assert math.isclose(agg.finalize(left), agg.finalize(right),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert left.count == right.count

    @given(funcs, values, values)
    def test_merge_commutative(self, func, a, b):
        agg = make_aggregate(func, 0, 100)
        pa, pb = agg.from_value(a), agg.from_value(b)
        assert math.isclose(agg.finalize(agg.merge(pa, pb)),
                            agg.finalize(agg.merge(pb, pa)),
                            rel_tol=1e-12, abs_tol=1e-12)

    @given(funcs, st.lists(values, min_size=1, max_size=20))
    def test_merge_order_irrelevant(self, func, readings):
        agg = make_aggregate(func, 0, 100)
        forward = functools.reduce(
            agg.merge, [agg.from_value(v) for v in readings])
        backward = functools.reduce(
            agg.merge, [agg.from_value(v) for v in reversed(readings)])
        assert math.isclose(agg.finalize(forward), agg.finalize(backward),
                            rel_tol=1e-9, abs_tol=1e-9)


class TestBoundSoundness:
    @given(funcs,
           st.lists(values, min_size=1, max_size=16),
           st.data())
    def test_true_value_within_bounds(self, func, readings, data):
        """Partition readings into seen / pruned-partials arbitrarily;
        the certified interval must contain the true aggregate."""
        agg = make_aggregate(func, 0, 100)
        flags = data.draw(st.lists(st.booleans(),
                                   min_size=len(readings),
                                   max_size=len(readings)))
        seen_values = [v for v, seen in zip(readings, flags) if seen]
        unseen_values = [v for v, seen in zip(readings, flags) if not seen]
        if unseen_values:
            # Split the unseen mass into contiguous pruned partials.
            cut = data.draw(st.integers(0, len(unseen_values) - 1))
            parts = [unseen_values[:cut], unseen_values[cut:]]
            parts = [p for p in parts if p]
            gamma = max(
                agg.finalize(functools.reduce(
                    agg.merge, [agg.from_value(v) for v in p]))
                for p in parts
            )
        else:
            gamma = None
        seen = functools.reduce(
            agg.merge, [agg.from_value(v) for v in seen_values]
        ) if seen_values else None
        true = agg.finalize(functools.reduce(
            agg.merge, [agg.from_value(v) for v in readings]))
        bounds = agg.bounds(seen, len(unseen_values), gamma)
        assert bounds.lb - 1e-9 <= true <= bounds.ub + 1e-9


class TestCertification:
    @given(st.dictionaries(st.integers(0, 12), values, min_size=1,
                           max_size=13),
           st.integers(1, 5), st.data())
    def test_certified_answers_are_correct(self, truth, k, data):
        """Wrap every true score in a random interval; whenever the
        procedure certifies, the answer must be a valid top-k."""
        bounds = {}
        for key, score in truth.items():
            slack_lo = data.draw(st.floats(0, 30))
            slack_hi = data.draw(st.floats(0, 30))
            exact = data.draw(st.booleans())
            if exact:
                bounds[key] = Bounds(score, score)
            else:
                bounds[key] = Bounds(max(0.0, score - slack_lo),
                                     min(100.0, score + slack_hi))
        outcome = certify_top_k(bounds, k)
        if outcome.certified:
            assert is_valid_top_k(outcome.items, truth, k, tolerance=1e-6)

    @given(st.dictionaries(st.integers(0, 12), values, min_size=1,
                           max_size=13),
           st.integers(1, 5), st.data())
    def test_probing_ambiguous_always_certifies(self, truth, k, data):
        bounds = {}
        for key, score in truth.items():
            slack = data.draw(st.floats(0, 40))
            bounds[key] = Bounds(max(0.0, score - slack),
                                 min(100.0, score + slack))
        outcome = certify_top_k(bounds, k)
        if not outcome.certified:
            for key in outcome.ambiguous:
                bounds[key] = Bounds(truth[key], truth[key])
            outcome = certify_top_k(bounds, k)
            assert outcome.certified
            assert is_valid_top_k(outcome.items, truth, k, tolerance=1e-6)


class TestOracleProperties:
    @given(st.dictionaries(st.integers(1, 30), values, min_size=1,
                           max_size=30),
           st.integers(1, 6))
    def test_oracle_scores_rank_consistently(self, readings, k):
        agg = make_aggregate("AVG", 0, 100)
        group_of = {n: n % 4 for n in readings}
        scores = oracle_scores(readings, group_of, agg)
        ranked = sorted(scores.items(), key=lambda kv: rank_key(kv[0], kv[1]))
        for (_, a), (_, b) in zip(ranked, ranked[1:]):
            assert a >= b


#: One step against a window: ``("append", epoch step, value)``, whose
#: step may go back in time, or ``("read", n)``.
window_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(-2, 3),
              st.one_of(values, st.integers(0, 100))),
    st.tuples(st.just("read"), st.integers(0, 12))), max_size=80)


class TestStorageAgreement:
    @given(st.sampled_from([1, 2, 3, 5, 8]), window_steps)
    @settings(max_examples=80, deadline=None)
    def test_window_equals_a_deque_model(self, capacity, steps):
        """Random appends and reads against ``deque(maxlen=capacity)``
        of ``(epoch, value)`` pairs, through every compaction of the
        columns: each read agrees after every step, the columns' last
        positions hold the newest entry (the mote's sample cache), the
        two columns stay aligned and under twice the capacity, and an
        out-of-order append raises and leaves both columns as they
        were."""
        from collections import deque

        from repro.errors import StorageError
        from repro.storage.window import SlidingWindow

        window = SlidingWindow(capacity=capacity)
        model: deque = deque(maxlen=capacity)
        epoch, n = 0, capacity
        for step in steps:
            if step[0] == "read":
                n = step[1]
            elif model and epoch + step[1] < epoch:
                before = (window.epochs.tolist(), list(window.values))
                with pytest.raises(StorageError):
                    window.append(epoch + step[1], step[2])
                assert (window.epochs.tolist(), window.values) == before
            else:
                epoch += step[1]
                window.append(epoch, step[2])
                model.append((epoch, step[2]))
            entries = list(model)
            newest = entries[-n:] if n else []
            assert len(window) == len(entries)
            assert len(window.values) == len(window.epochs) < 2 * capacity
            assert list(zip(*window.tail(capacity))) == entries
            epochs, booked = window.tail(n)
            assert list(zip(epochs, booked)) == newest
            assert [type(v) for v in booked] == [type(v) for _, v in newest]
            if entries:
                assert (window.epochs[-1], window.values[-1]) == entries[-1]
            tail = [v for _, v in newest]
            assert window.aggregate("count", last_n=n) == len(tail)
            if tail:
                assert window.aggregate("sum", last_n=n) == sum(tail)
                assert window.aggregate("avg", last_n=n) == \
                    sum(tail) / len(tail)
                assert window.aggregate("min", last_n=n) == min(tail)
                assert window.aggregate("max", last_n=n) == max(tail)
                assert window.aggregate("max") == max(v for _, v in entries)

    @given(st.lists(values, min_size=1, max_size=60), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_window_aggregate_equals_brute_force(self, readings, n):
        from repro.storage.window import SlidingWindow

        window = SlidingWindow(capacity=128)
        for t, v in enumerate(readings):
            window.append(t, v)
        tail = readings[-n:] if n < len(readings) else readings
        assert math.isclose(window.aggregate("avg", last_n=n),
                            sum(tail) / len(tail), rel_tol=1e-12)


class TestParserProperties:
    aggregate_names = st.sampled_from(["AVG", "MIN", "MAX", "SUM"])
    identifiers = st.sampled_from(["sound", "temperature", "light"])

    @given(st.integers(1, 99), aggregate_names, identifiers,
           st.sampled_from(["roomid", "epoch", None]),
           st.sampled_from([None, (30, "s"), (1, "min"), (2, "h")]))
    def test_generated_queries_round_trip(self, k, func, attr, group, epoch):
        text = f"SELECT TOP {k} "
        if group:
            text += f"{group}, "
        text += f"{func}({attr}) FROM sensors"
        if group:
            text += f" GROUP BY {group}"
        if group == "epoch":
            text += " WITH HISTORY 5 min"
        if epoch:
            text += f" EPOCH DURATION {epoch[0]} {epoch[1]}"
        query = parse(text)
        assert parse(query.unparse()) == query


class TestEndToEndExactness:
    @given(st.integers(0, 1_000_000), st.integers(1, 4),
           st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=15, deadline=None)
    def test_mint_equals_oracle_on_random_deployments(self, seed, k, rooms,
                                                      per_room):
        from repro.core import Mint
        from repro.scenarios import random_rooms_scenario
        from repro.sensing.modalities import get_modality

        scenario = random_rooms_scenario(rooms=rooms,
                                         sensors_per_room=per_room,
                                         seed=seed % 10_000)
        agg = make_aggregate("AVG", 0, 100)
        mint = Mint(scenario.network, agg, k, scenario.group_of)
        modality = get_modality("sound")
        for epoch in range(4):
            result = mint.run_epoch()
            readings = {n: modality.quantize(scenario.field.value(n, epoch))
                        for n in scenario.group_of}
            truth = oracle_scores(readings, scenario.group_of, agg)
            assert is_valid_top_k(result.items, truth, k, tolerance=1e-6)

    @given(st.integers(0, 1_000_000), st.integers(1, 6), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_tja_equals_oracle_on_random_series(self, seed, k, correlated):
        from repro.core import Tja
        from repro.scenarios import grid_rooms_scenario

        from helpers import make_series, vertical_oracle

        scenario = grid_rooms_scenario(side=3, rooms_per_axis=2,
                                       seed=seed % 100)
        nodes = list(scenario.group_of)
        series = make_series(nodes, epochs=16, seed=seed,
                             correlated=correlated)
        agg = make_aggregate("AVG", 0, 100)
        _, expected = vertical_oracle(series, agg, k)
        result = Tja(scenario.network, agg, k, series).execute()
        assert [i.key for i in result.items] == [t for t, _ in expected]


#: Valid queries of every class the compiler routes; the fuzz below
#: mutates them.
_VALID_QUERIES = (
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid "
    "EPOCH DURATION 1 min",
    "SELECT TOP 3 epoch, MAX(sound) FROM sensors GROUP BY epoch "
    "WITH HISTORY 5 s EPOCH DURATION 1 s",
    "SELECT TOP 4 nodeid, MAX(sound) FROM sensors GROUP BY nodeid "
    "EPOCH DURATION 1 min",
    "SELECT roomid, SUM(sound) FROM sensors GROUP BY roomid",
    "SELECT sound FROM sensors",
)

#: Query-language tokens, plus a few that are not, to splice in.
_TOKENS = ("SELECT", "TOP", "FROM", "GROUP", "BY", "WITH", "HISTORY",
           "EPOCH", "DURATION", "WHERE", "AND", ",", "(", ")", "*", ">",
           "'", "0", "-1", "1.5", "99999999999999999999", "roomid",
           "epoch", "nodeid", "sound", "light", "AVG", "COUNT", "s",
           "min", "h", "sensors", ";", "--")


@st.composite
def mutated_queries(draw):
    """A valid query with one to four edits: characters inserted or
    deleted, tokens inserted, deleted or replaced."""
    text = draw(st.sampled_from(_VALID_QUERIES))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["insert-char", "delete-char",
                                     "insert-token", "delete-token",
                                     "replace-token"]))
        if edit == "insert-char":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.characters()) + text[at:]
        elif edit == "delete-char" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + 1:]
        else:
            tokens = text.split(" ")
            if edit == "insert-token":
                tokens.insert(draw(st.integers(0, len(tokens))),
                              draw(st.sampled_from(_TOKENS)))
            elif edit == "replace-token":
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                    st.sampled_from(_TOKENS))
            elif len(tokens) > 1:
                del tokens[draw(st.integers(0, len(tokens) - 1))]
            text = " ".join(tokens)
    return text


class TestSubmitFuzz:
    """Whatever text reaches ``Deployment.submit`` either opens a
    session or raises a :class:`~repro.errors.KSpotError` subclass,
    never a bare Python error."""

    @given(text=st.one_of(st.text(max_size=120), mutated_queries()),
           algorithm=st.sampled_from([None, *Algorithm]))
    @settings(max_examples=300, deadline=None)
    def test_submit_opens_a_session_or_raises_a_kspot_error(self, text,
                                                            algorithm):
        scenario = grid_rooms_scenario(side=3, rooms_per_axis=3, seed=1)
        deployment = Deployment.from_scenario(scenario)
        try:
            handle = deployment.submit(text, algorithm=algorithm)
        except KSpotError:
            assert deployment.sessions() == ()
        else:
            assert handle.state is SessionState.PENDING


#: Routing prefixes a workload line may carry: every algorithm, case
#: and spacing variants, and unknown ones (which stay part of the
#: query text).
_PREFIXES = ("", *(f"{algorithm.value}: " for algorithm in Algorithm),
             "FILA: ", " tag :", "nope: ", ":")


@st.composite
def workload_files(draw):
    """A workload file's bytes: valid or mutated queries with routing
    prefixes, comments, blank lines and, sometimes, non-UTF-8 bytes."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["query", "query", "mutated",
                                     "mutated", "comment", "blank",
                                     "bytes"]))
        if kind == "comment":
            line = ("# " + draw(st.text(max_size=20))).encode(
                "utf-8", "surrogatepass")
        elif kind == "blank":
            line = draw(st.sampled_from([b"", b"   ", b"\t"]))
        elif kind == "bytes":
            line = draw(st.binary(min_size=1, max_size=12))
        else:
            query = draw(st.sampled_from(_VALID_QUERIES) if kind == "query"
                         else mutated_queries())
            line = (draw(st.sampled_from(_PREFIXES)) + query).encode(
                "utf-8", "surrogatepass")
        lines.append(line)
    return b"\n".join(lines) + b"\n"


#: What a scenario field may be replaced with: null, a bool, a
#: positive or negative number, NaN, inf, a string, a list, an object.
_JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.sampled_from([0.5, -2.5, 1e9, math.nan, math.inf, -math.inf]),
    st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


@st.composite
def scenario_files(draw):
    """The ``scenario-init`` template with one top-level, ``map`` or
    sensor field removed or replaced."""
    payload = json.loads(_template())
    target = draw(st.sampled_from(["top", "map", "sensor"]))
    if target == "top":
        parent = payload
    elif target == "map":
        parent = payload["map"]
    else:
        parent = draw(st.sampled_from(payload["sensors"]))
    key = draw(st.sampled_from(sorted(parent)))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON_JUNK)
    return json.dumps(payload).encode()


def _cli(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code: int, err: str) -> None:
    """Exit 0, or exit 2 with stderr ending in one ``error:`` line."""
    assert code in (0, 2)
    if code == 2:
        lines = err.splitlines()
        assert lines and lines[-1].startswith("error: "), err
        assert sum(line.startswith("error: ") for line in lines) == 1, err


@functools.lru_cache(maxsize=None)
def _template() -> str:
    """The file ``scenario-init`` writes."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "scenario.json"
        assert _cli(["scenario-init", str(path)])[0] == 0
        return path.read_text()


class TestCliFileFuzz:
    """Whatever workload or scenario file reaches the CLI, ``workload``
    and ``run`` exit 0, or exit 2 with one ``error: ...`` line, and
    never raise."""

    SMALL = ("--side", "3", "--rooms", "1", "--epochs", "2")

    @given(data=workload_files())
    @settings(max_examples=40, deadline=None)
    def test_workload_files(self, data):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "queries.txt"
            path.write_bytes(data)
            _assert_clean_exit(*_cli(["workload", str(path), *self.SMALL]))

    @given(data=scenario_files())
    @settings(max_examples=40, deadline=None)
    def test_scenario_files(self, data):
        with tempfile.TemporaryDirectory() as scratch:
            scenario = Path(scratch) / "scenario.json"
            scenario.write_bytes(data)
            queries = Path(scratch) / "queries.txt"
            queries.write_text(_VALID_QUERIES[0] + "\n")
            _assert_clean_exit(*_cli(["run", str(scenario),
                                      _VALID_QUERIES[0], "--epochs", "2"]))
            _assert_clean_exit(*_cli(["workload", str(queries),
                                      "--scenario", str(scenario),
                                      "--epochs", "2"]))


#: Small integers, zero and negatives included, for integer flags.
_SMALL_INTS = st.integers(-2, 4)
#: Stands for the workload file in a drawn ``workload`` call.
_QUERY_FILE = "{queries}"


@st.composite
def flag_calls(draw):
    """A ``workload``, ``savings`` or ``sweep`` call with small integer
    flags (grids of at most 4×4) and a churn preset or none."""
    def flags(*names):
        return [f"--{name}={draw(_SMALL_INTS)}" for name in names]

    command = draw(st.sampled_from(["workload", "savings", "sweep"]))
    if command == "workload":
        argv = ["workload", _QUERY_FILE,
                *flags("side", "rooms", "epochs", "seed", "churn-seed",
                       "jobs")]
        churn = draw(st.sampled_from([None, *sorted(CHURN_PRESETS)]))
        return argv + ([f"--churn={churn}"] if churn else [])
    if command == "savings":
        return ["savings", *flags("side", "rooms", "k", "epochs", "seed")]
    sizes = draw(st.lists(_SMALL_INTS, min_size=1, max_size=2))
    churns = draw(st.lists(st.sampled_from(["none", *sorted(CHURN_PRESETS)]),
                           min_size=1, max_size=2))
    return ["sweep", "--sizes=" + ",".join(map(str, sizes)),
            "--churn=" + ",".join(churns), *flags("epochs"), "--jobs=1"]


class TestCliFlagFuzz:
    """Whatever small integers and churn presets reach the CLI's flags,
    ``workload``, ``savings`` and ``sweep`` exit 0, or exit 2 with one
    ``error: ...`` line, and never raise."""

    @given(argv=flag_calls())
    @example(argv=["sweep", "--sizes=1,4", "--churn=harsh,none",
                   "--epochs=1", "--jobs=1"])
    @settings(max_examples=40, deadline=None)
    def test_integer_flags(self, argv):
        with tempfile.TemporaryDirectory() as scratch:
            queries = Path(scratch) / "queries.txt"
            queries.write_text(_VALID_QUERIES[0] + "\n")
            argv = [str(queries) if arg == _QUERY_FILE else arg
                    for arg in argv]
            _assert_clean_exit(*_cli(argv))

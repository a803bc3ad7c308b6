"""Self-checks of the benchmark itself, at tiny run lengths (≈30 s).

    python3 bench/selfcheck.py          # or: python3 -m pytest bench/selfcheck.py

Not named ``test_*.py``: the repository's test suite does not collect
it, so the benchmark adds nothing to the suite's run time.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import run
import tracing
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def spec_names(section: str) -> set:
    """The metric names ``BENCHMARK.json`` lists under ``section``."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return {metric["name"] for metric in json.load(spec)[section]}


def _result(*argv) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(list(argv))
    text = out.getvalue()
    return status, json.loads(text.strip().splitlines()[-1]), text


def test_every_workload_prints_the_end_to_end_metrics():
    for name in WORKLOADS:
        status, result, text = _result("--workload", name, "--seed", "3",
                                       "--seconds", "0.1")
        assert status == 0, name
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == spec_names("end_to_end"), name
        for metric, body in result["metrics"].items():
            assert NAME.match(metric) and body["unit"], metric
            assert body["value"] > 0, (name, metric)
            assert re.search(rf"^{name}\s+{re.escape(metric)}\s+\S+\s+"
                             rf"{re.escape(body['unit'])}$", text, re.M)


def test_counts_repeat_under_a_seed_and_move_with_it():
    workload = WORKLOADS["turnover"]

    def counts(seed):
        measured = run.drive(workload, seed, range(1))
        return measured.counters, measured.answers.hexdigest()

    first = counts(5)
    assert counts(5) == first
    other = counts(6)
    assert other[0]["messages"] != first[0]["messages"]
    assert other[1] != first[1]


def test_tracer_nests_spans_and_restores_the_originals():
    holders = [(tracing.holder(module, owner), attribute)
               for module, owner, attribute, _ in tracing.TARGETS]
    originals = [vars(holder)[attribute] for holder, attribute in holders]
    with tracing.Tracer() as tracer:
        assert all(vars(holder)[attribute] is not original
                   for (holder, attribute), original
                   in zip(holders, originals))
        traced = run.drive(WORKLOADS["churn"], 2, range(1), tracer)
    assert all(vars(holder)[attribute] is original
               for (holder, attribute), original in zip(holders, originals))
    untraced = run.drive(WORKLOADS["churn"], 2, range(1))
    assert traced.answers.digest() == untraced.answers.digest()

    spans = tracer.spans
    assert spans and all(span is not None for span in spans)
    roots = [s for s in spans if s[0] == tracing.ROOT]
    assert len(roots) == WORKLOADS["churn"].epochs
    for target, start, end, parent, epoch in spans:
        assert start <= end
        if target == tracing.ROOT:
            assert parent == -1
            continue
        if parent < 0:  # a collection between two epochs
            assert target == tracing.GC
            continue
        _, p_start, p_end, _, p_epoch = spans[parent]
        assert p_start <= start and end <= p_end and p_epoch == epoch
    layers = {tracing.LAYERS[s[0]] for s in spans}
    assert {"api.step", "session.step", "core.mint", "network.advance",
            "sensing.read_many", "repair.kill", "core.recovery"} <= layers
    _, _, root_ns, self_sum = tracer.self_times()
    assert abs(self_sum - root_ns) <= 0.01 * root_ns


def test_traced_run_prints_every_per_layer_metric():
    status, result, _ = _result("--workload", "monitor", "--seed", "3",
                                "--seconds", "0.1", "--trace", "1")
    assert status == 0 and result["correct"]
    assert set(result["metrics"]) == spec_names("per_layer")
    assert all(NAME.match(name) for name in result["metrics"])


if __name__ == "__main__":
    failures = 0
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            try:
                check()
                print(f"ok   {name}")
            except AssertionError as error:
                failures += 1
                print(f"FAIL {name}: {error!r}")
    sys.exit(1 if failures else 0)

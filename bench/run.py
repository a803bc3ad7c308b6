"""The repository benchmark: four seeded KSpot workloads, timed end to
end and traced layer by layer.

Usage (from the repository root)::

    python3 bench/run.py --workload monitor --seed 11 --seconds 15 --trace 0
    python3 bench/run.py                # every workload, one child each

One run, for one workload:

1. *Correctness gate.* The workload's first 30 epochs run twice on
   fresh deployments, on the default path and under
   ``repro.network.hotpath.reference_path()``; answer streams and
   network totals must match.
2. *Timed run.* The workload's episodes (see ``workloads.py``) run one
   after another, each twice. Each episode's set-up is timed whole;
   every timed epoch is timed alone and divided by the calibration
   kernel time measured before its chunk of ``CHUNK_EPOCHS`` epochs
   (unit ``cal``, see ``calibrate.py``), and keeps the faster of its
   two passes.
3. With ``--trace 1`` the episodes run once untraced and once traced
   (``tracing.py``) instead. The per-layer metrics come from the
   traced pass; both passes must give the same answers.

``--seconds`` sets the run length: the number of episodes scales with
it, so a given ``--seconds`` is the same work on every commit.

The run prints every metric by name with its unit, then, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
It exits non-zero when an answer check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro
    from repro.errors import KSpotError
    from repro.network import hotpath
except ImportError as error:  # run outside a checkout of the repository
    print(f"bench: cannot import the program from {ROOT / 'src'}: {error}",
          file=sys.stderr)
    raise SystemExit(2) from None
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"bench: imported repro from {repro.__file__}, not from the "
          f"checkout's {ROOT / 'src'}", file=sys.stderr)
    raise SystemExit(2)

import calibrate  # noqa: E402
from tracing import LABELS, Tracer  # noqa: E402
from workloads import WARMUP_EPOCHS, WORKLOADS  # noqa: E402

#: Timed epochs between two calibration kernel measurements.
CHUNK_EPOCHS = 20

#: Timed passes over every episode of an untraced run; each step keeps
#: its fastest pass (see :func:`drive`).
PASSES = 2

#: Epochs the correctness gate compares (warm-up included).
GATE_EPOCHS = 30

#: The tail percentile reported: the highest one that leaves at least
#: ten samples beyond it on every workload at ``--seconds 15``.
TAIL = 0.95


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    """One timed pass over one episode."""

    setup_ns: int
    step_ns: list
    step_cal: list
    cal_ns: list
    #: Network counter deltas over the timed epochs.
    counters: dict
    attempted: int
    sessions: int
    results: int
    exact: int
    probed: int
    answers: bytes


@dataclass
class Run:
    """What a pass (or the per-step best of several passes) over a
    workload's episodes measured."""

    setup_ns: list = field(default_factory=list)
    step_ns: list = field(default_factory=list)
    step_cal: list = field(default_factory=list)
    cal_ns: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    epochs: int = 0
    episodes: int = 0
    attempted: int = 0
    failed: int = 0
    sessions: int = 0
    results: int = 0
    exact: int = 0
    probed: int = 0
    answers: object = field(default_factory=hashlib.sha256)

    @property
    def epochs_per_kcal(self) -> float:
        return self.epochs / sum(self.step_cal) * 1000.0


def time_episode(workload, seed: int, index: int,
                 tracer: Tracer | None) -> Pass:
    """Set up one episode and step its timed epochs."""
    clock = time.perf_counter_ns
    gc.collect()
    start = clock()
    episode = workload.build(seed, index)
    for _ in range(WARMUP_EPOCHS):
        episode.step()
    setup_ns = clock() - start
    step = episode.step
    if tracer is not None:
        step = tracer.rooted(episode.step)
        episode.network.subscribe(tracer.on_topology_event)
    first_epoch = episode.network.epoch
    before = episode.counters()
    step_ns, step_cal, cal_ns = [], [], []
    for chunk in range(0, workload.epochs, CHUNK_EPOCHS):
        cal = calibrate.kernel_ns()
        cal_ns.append(cal)
        if tracer is not None:
            tracer.active = True
        try:
            for _ in range(min(CHUNK_EPOCHS, workload.epochs - chunk)):
                start = clock()
                step()
                elapsed = clock() - start
                step_ns.append(elapsed)
                step_cal.append(elapsed / cal)
        finally:
            if tracer is not None:
                tracer.active = False
    after = episode.counters()
    results = [result for handle in episode.deployment.sessions()
               for result in handle.results if result.epoch >= first_epoch]
    return Pass(
        setup_ns=setup_ns, step_ns=step_ns, step_cal=step_cal,
        cal_ns=cal_ns,
        counters={key: after[key] - before[key] for key in after},
        attempted=episode.submits + episode.session_steps,
        sessions=len(episode.deployment.sessions()),
        results=len(results),
        exact=sum(result.exact for result in results),
        probed=sum(result.probed for result in results),
        answers=repr(episode.answers()).encode())


def drive(workload, seed: int, episodes: range,
          tracer: Tracer | None = None, passes: int = 1) -> Run:
    """Time ``passes`` passes over each of ``episodes`` and keep each
    timed step's fastest pass.

    Every pass over an episode does the same work, so a step that only
    one pass saw slow was slowed by the host, not by the program. Load
    bursts on a shared host last a few steps (shorter than a
    calibration chunk), so the per-step minimum removes what the chunk
    kernel cannot.
    """
    run = Run()
    for index in episodes:
        try:
            timed = [time_episode(workload, seed, index, tracer)
                     for _ in range(passes)]
        except KSpotError as error:
            print(f"bench: {workload.name} episode {index} failed: "
                  f"{error!r}", file=sys.stderr)
            run.failed += 1
            run.attempted += 1
            continue
        first = timed[0]
        if any(other.answers != first.answers for other in timed[1:]):
            print(f"bench: {workload.name} episode {index}: passes gave "
                  "different answers", file=sys.stderr)
            run.failed += 1
        run.step_ns.extend(map(min, zip(*(t.step_ns for t in timed))))
        run.step_cal.extend(map(min, zip(*(t.step_cal for t in timed))))
        for one in timed:
            run.setup_ns.append(one.setup_ns)
            run.cal_ns.extend(one.cal_ns)
            run.attempted += one.attempted
        run.counters.update(first.counters)
        run.episodes += 1
        run.epochs += workload.epochs
        run.sessions += first.sessions
        run.results += first.results
        run.exact += first.exact
        run.probed += first.probed
        run.answers.update(first.answers)
    return run


def gate(workload, seed: int) -> bool:
    """Default path == reference path over the first epochs."""

    def answers():
        episode = workload.build(seed, 0)
        for _ in range(GATE_EPOCHS):
            episode.step()
        return episode.answers()

    default = answers()
    with hotpath.reference_path():
        reference = answers()
    return default == reference


def end_to_end(run: Run) -> dict:
    """The end-to-end metrics of an untraced run: name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(run.setup_ns) / 1e9, "s"),
        "epochs_per_kcal": (run.epochs_per_kcal, "epochs/kcal"),
        "step_p50_cal": (statistics.median(run.step_cal), "cal"),
        "step_p95_cal": (percentile(run.step_cal, TAIL), "cal"),
        "radio_msgs_per_epoch": (run.counters["messages"] / run.epochs,
                                 "messages"),
        "radio_mj_per_epoch": (run.counters["joules"] * 1e3 / run.epochs,
                               "mJ"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }


def per_layer(run: Run, tracer: Tracer, untraced: Run) -> tuple[dict, bool]:
    """The per-layer metrics of a traced run, and whether the layers'
    self times add back up to the traced step total within 1%."""
    by_layer, calls, root_ns, self_sum = tracer.self_times()
    cal = statistics.median(run.cal_ns)
    epochs = run.epochs
    episodes = run.episodes
    counters = run.counters

    def cal_per_epoch(layer):
        return (by_layer[layer] / cal / epochs, "cal/epoch")

    def count(target_label):
        return calls[LABELS.index(target_label)]

    certify_calls = sum(count(f"delta.TopKView.{name}") for name in
                        ("outcome", "apply", "reconcile", "reconcile_scores"))
    ship_calls = sum(count(f"simulator.Network.{name}") for name in
                     ("send_up", "flood_down", "broadcast_down",
                      "unicast_to_sink", "unicast_from_sink"))
    kills = count("simulator.Network.kill_node")
    joins = count("simulator.Network.join_node")
    compile_index = LABELS.index("deployment.compile_query")
    metrics = {
        "api.step.self_cal": cal_per_epoch("api.step"),
        "api.submit.self_cal": cal_per_epoch("api.submit"),
        "api.sessions_registered": (run.sessions / episodes,
                                    "sessions/episode"),
        "query.compile.cal": cal_per_epoch("query.compile"),
        "query.compiles": (calls[compile_index] / episodes,
                           "count/episode"),
        "query.rejected": (tracer.errors[compile_index] / episodes,
                           "count/episode"),
        "session.step.self_cal": cal_per_epoch("session.step"),
        "core.mint.self_cal": cal_per_epoch("core.mint"),
        "core.fila.self_cal": cal_per_epoch("core.fila"),
        "core.tag.self_cal": cal_per_epoch("core.tag"),
        "core.probes_per_epoch": (run.probed / epochs, "probes/epoch"),
        "core.historic.self_cal": cal_per_epoch("core.historic"),
        "core.historic.executions": (
            count("engine.KSpotEngine.execute_historic") / episodes,
            "count/episode"),
        "core.recovery.self_cal": cal_per_epoch("core.recovery"),
        "core.recovery.reprimed": (tracer.reprimed / episodes,
                                   "nodes/episode"),
        "certify.self_cal": cal_per_epoch("certify"),
        "certify.calls_per_epoch": (certify_calls / epochs, "calls/epoch"),
        "certify.exact_frac": (run.exact / run.results if run.results
                               else 0.0, "fraction"),
        "network.ship.self_cal": cal_per_epoch("network.ship"),
        "network.ship.calls_per_epoch": (ship_calls / epochs,
                                         "calls/epoch"),
        "network.advance.self_cal": cal_per_epoch("network.advance"),
        "network.air_bytes_per_epoch": (counters["air_bytes"] / epochs,
                                        "bytes/epoch"),
        "network.retx_per_epoch": (counters["retransmissions"] / epochs,
                                   "count/epoch"),
        "network.drops_per_epoch": (counters["drops"] / epochs,
                                    "count/epoch"),
        "sensing.read_many.self_cal": cal_per_epoch("sensing.read_many"),
        "sensing.rows_per_epoch": (tracer.rows / epochs, "rows/epoch"),
        "sensing.samples_per_epoch": (counters["samples"] / epochs,
                                      "samples/epoch"),
        "sensing.share": (tracer.rows / counters["samples"]
                          if counters["samples"] else 0.0, "rows/sample"),
        "repair.kill.cal_per_event": (
            by_layer["repair.kill"] / cal / kills if kills else 0.0,
            "cal/event"),
        "repair.join.cal_per_event": (
            by_layer["repair.join"] / cal / joins if joins else 0.0,
            "cal/event"),
        "repair.events": ((kills + joins) / episodes, "events/episode"),
        "repair.edges_per_event": (tracer.edges / tracer.events
                                   if tracer.events else 0.0, "edges/event"),
        "py.gc.cal_per_epoch": cal_per_epoch("py.gc"),
        "py.gc.gen2_collections": (tracer.gen2 / episodes,
                                   "count/episode"),
        "trace.overhead": (untraced.epochs_per_kcal / run.epochs_per_kcal
                           - 1.0, "fraction"),
    }
    reconciled = abs(self_sum - root_ns) <= 0.01 * root_ns
    return metrics, reconciled


def report(workload: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:9s} {name:30s} {value:14.6f} {unit}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    episodes = max(1, round(workload.episodes * args.seconds / 10))
    correct = gate(workload, args.seed)
    if not correct:
        print(f"bench: {workload.name}: default and reference paths "
              "disagree", file=sys.stderr)
    failed = 0 if correct else 1

    if args.trace:
        run = drive(workload, args.seed, range(episodes))
        with Tracer() as tracer:
            traced = drive(workload, args.seed, range(episodes), tracer)
        metrics, reconciled = per_layer(traced, tracer, run)
        if traced.answers.digest() != run.answers.digest():
            print("bench: traced answers differ from untraced",
                  file=sys.stderr)
            failed += 1
        if not reconciled:
            print("bench: layer self times do not add up to the traced "
                  "step total", file=sys.stderr)
            failed += 1
        spans = Path(args.spans or BENCH / "out" /
                     f"spans-{workload.name}.jsonl")
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        print(f"# spans: {len(tracer.spans)} written to {spans}")
        runs = (run, traced)
    else:
        run = drive(workload, args.seed, range(episodes), passes=PASSES)
        metrics = end_to_end(run)
        runs = (run,)

    # The gate's comparison counts as one attempted check.
    attempted = 1 + sum(r.attempted for r in runs)
    failed += sum(r.failed for r in runs)
    kernel_spread = calibrate.spread(run.cal_ns)
    timed_s = sum(run.step_ns) / 1e9
    tail = percentile(run.step_cal, TAIL)
    print(f"# {workload.name}: seed {args.seed}, {run.episodes} episodes x "
          f"{workload.epochs} epochs = {run.epochs} timed epochs "
          f"({sum(1 for c in run.step_cal if c > tail)} beyond "
          f"p{round(TAIL * 100)})")
    print(f"# answers_sha256 {run.answers.hexdigest()}")
    print(f"# context (not metrics): epochs_per_s {run.epochs / timed_s:.2f}"
          f", step_p50_ms {statistics.median(run.step_ns) / 1e6:.3f}"
          f", step_p95_ms {percentile(run.step_ns, TAIL) / 1e6:.3f}"
          f", cal_ms {statistics.median(run.cal_ns) / 1e6:.3f}"
          f", kernel_spread {kernel_spread:.3f}"
          f", failed_frac {failed / attempted:.6f}")
    if kernel_spread > calibrate.NOISY_SPREAD:
        print(f"bench: warning: calibration kernel spread "
              f"{kernel_spread:.1%} > {calibrate.NOISY_SPREAD:.0%}: "
              "the host is noisy", file=sys.stderr)
    report(workload.name, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own child process, one at a time."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = max(status, child.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run length: episodes scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics instead")
    parser.add_argument("--spans", help="JSON-lines span file "
                        "(default bench/out/spans-WORKLOAD.jsonl)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

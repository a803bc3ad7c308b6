"""``repro perf`` — the repo's performance harness.

Drives the standard multi-query workload (the e11 mix: four concurrent
MINT monitoring queries plus one historic TJA session) through the
layered :mod:`repro.api` facade at fleet sizes N ∈ {25, 100, 400,
1000}, measures wall-clock per epoch, epochs/sec, messages/sec and
resident memory, and writes a schema-versioned ``BENCH_perf.json`` —
the machine-readable perf trajectory every PR can be judged against.

Methodology (matching ``bench_e13_api_overhead``): each fleet size is
timed **best-of-R with interleaved repetitions**, so ambient drift (GC
pressure, CPU frequency excursions) lands on every configuration
equally; deterministic simulations have no other variance worth
averaging. With ``compare_reference=True`` every size also runs on the
unoptimized reference path (:mod:`repro.network.hotpath`), interleaved
hot/reference, yielding a machine-normalized speedup — the number the
CI regression gate watches, since absolute epochs/sec are incomparable
across runners.

Fleet layouts are near-square grids with exactly N sensors partitioned
into 16 rooms, built by :func:`fleet_scenario` (square sizes reproduce
``grid_rooms_scenario`` exactly).

With ``jobs > 1`` the ladder shards across worker processes via
:mod:`repro.parallel`: each (size, repeat) pair is one shard that runs
the hot path and — when comparing — the reference path back to back
*in the same worker*, so ambient contention cancels out of the
machine-normalized speedup exactly as interleaving does serially. A
final aggregate-throughput section then drives ``jobs`` independent
deployments simultaneously and prices the machine's horizontal
capacity (total epochs/sec across all workers).

One microbench section rides every ladder run: ``certifier``
(:func:`measure_certifier` — cold ``certify_top_k`` replay vs the
incremental :class:`~repro.core.delta.TopKView`), gated by
``benchmarks/check_perf_regression.py`` against the committed
trajectory. The harness only *times* the switch it flips: the
hot-vs-oracle equivalence itself is owned by
``tests/test_hotpath_equivalence.py`` and
``tests/test_delta_equivalence.py``, with ``reference_path()``
restoring the unoptimized semantics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Sequence

from . import __version__
from .errors import ConfigurationError
from .network import hotpath
from .network.simulator import Network
from .network.topology import Topology
from .scenarios import Scenario, preset_churn
from .sensing.board import SensorBoard
from .sensing.generators import RoomField

#: Version tag written into every BENCH_perf.json (bump on any
#: backwards-incompatible change to the payload layout).
#: /2: per-repeat timings, cpu_count + workers in the platform block,
#: the aggregate-throughput section, and the shard-error envelope.
#: /3: the certifier microbench section (cold certify_top_k replay vs
#: incremental TopKView over the recorded FILA certification stream).
#: /4: the columnar microbench section (structure-of-arrays sensing
#: kernel vs the scalar hot path on a Zipf-field FILA workload).
#: /5: the eventsim microbench section (the event-queue shipping core
#: vs the inline ship path, plus a partitioned per-subtree throughput
#: section).
#: /6: the eventsim section is gone with the event core it measured.
#: /7: the columnar section is gone with the hot scalar path it
#: measured the kernel against.
SCHEMA = "kspot-perf/7"

#: The e11 workload: four concurrent monitoring queries ranking rooms
#: by different aggregates plus one historic TJA pass.
WORKLOAD_QUERIES = (
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 3 roomid, SUM(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 1 roomid, MIN(sound) FROM sensors "
    "GROUP BY roomid EPOCH DURATION 1 min",
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors "
    "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s",
)

#: Default fleet sizes (the ISSUE's scaling ladder).
FLEET_SIZES = (25, 100, 400, 1000)

#: The --quick (CI smoke) ladder: everything the regression gate
#: inspects (N=100 *and* N=400) at interactive cost.
QUICK_SIZES = (25, 100, 400)

#: Measured epochs per fleet size: enough for a stable per-epoch
#: number, small enough that the full ladder stays interactive.
EPOCHS_FOR = {25: 60, 100: 40, 400: 16, 1000: 6}

#: Warm-up epochs excluded from timing (creation phase, cache priming).
WARMUP_EPOCHS = 2


def fleet_scenario(n: int, seed: int = 11,
                   rooms_per_axis: int = 4) -> Scenario:
    """A deployment of exactly ``n`` sensors on a near-square grid.

    Square ``n`` uses the canonical ``side × side`` layout of
    :func:`repro.scenarios.grid_rooms_scenario`; other sizes extend it
    to ``rows × cols`` (rows = ⌊√n⌋) with the trailing row truncated,
    so N = 1000 is a 31 × 33 grid missing 23 corner motes.
    """
    spacing = 10.0
    rows = max(1, math.isqrt(n))
    cols = math.ceil(n / rows)
    positions: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    room_of: dict[int, Hashable] = {}
    row_block = max(1, rows // rooms_per_axis)
    col_block = max(1, cols // rooms_per_axis)
    node_id = 1
    for row in range(rows):
        for col in range(cols):
            if node_id > n:
                break
            positions[node_id] = (col * spacing, row * spacing)
            room = (min(row // row_block, rooms_per_axis - 1),
                    min(col // col_block, rooms_per_axis - 1))
            room_of[node_id] = f"R{room[0]}{room[1]}"
            node_id += 1
    topology = Topology(positions=positions, radio_range=spacing * 1.5)
    sound = RoomField(room_of, lo=0.0, hi=100.0, room_step=4.0,
                      sensor_sigma=1.5, seed=seed)
    boards = {i: SensorBoard({"sound": sound}) for i in room_of}
    network = Network(topology, boards=boards, group_of=room_of)
    return Scenario(network=network, group_of=room_of,
                    attribute="sound", field=sound)


def rss_bytes() -> int:
    """Current resident set size (no psutil; /proc on Linux, peak
    rusage elsewhere)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        import resource

        rusage = resource.getrusage(resource.RUSAGE_SELF)
        scale = 1 if sys.platform == "darwin" else 1024
        return rusage.ru_maxrss * scale


@dataclass(frozen=True)
class PathTiming:
    """One driving mode's best-of-R timing at one fleet size.

    ``repeat_seconds`` keeps every repeat's wall clock (in repeat
    order), so trajectory comparisons can reason about run-to-run
    variance instead of trusting a single best-of figure.
    """

    wall_seconds: float
    epochs: int
    messages: int
    repeat_seconds: tuple[float, ...] = ()

    @classmethod
    def best_of(cls, timings: Sequence[float], epochs: int,
                messages: int) -> "PathTiming":
        """Best-of-R over per-repeat wall clocks (messages are
        deterministic, identical across repeats)."""
        return cls(wall_seconds=min(timings), epochs=epochs,
                   messages=messages, repeat_seconds=tuple(timings))

    @property
    def epochs_per_sec(self) -> float:
        return self.epochs / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def messages_per_sec(self) -> float:
        return self.messages / self.wall_seconds if self.wall_seconds else 0.0


@dataclass(frozen=True)
class PerfSample:
    """Everything measured at one fleet size."""

    n_nodes: int
    sessions: int
    repeats: int
    hot: PathTiming
    reference: PathTiming | None
    peak_rss_bytes: int

    @property
    def speedup(self) -> float | None:
        """Hot-path epochs/sec over reference epochs/sec (same host)."""
        if self.reference is None:
            return None
        return self.hot.epochs_per_sec / self.reference.epochs_per_sec

    def as_dict(self) -> dict:
        data = {
            "n_nodes": self.n_nodes,
            "sessions": self.sessions,
            "repeats": self.repeats,
            "epochs": self.hot.epochs,
            "wall_seconds": self.hot.wall_seconds,
            "epochs_per_sec": self.hot.epochs_per_sec,
            "messages": self.hot.messages,
            "messages_per_sec": self.hot.messages_per_sec,
            "repeat_wall_seconds": list(self.hot.repeat_seconds),
            "peak_rss_bytes": self.peak_rss_bytes,
        }
        if self.reference is not None:
            data["reference"] = {
                "wall_seconds": self.reference.wall_seconds,
                "epochs_per_sec": self.reference.epochs_per_sec,
                "messages_per_sec": self.reference.messages_per_sec,
                "repeat_wall_seconds": list(self.reference.repeat_seconds),
            }
            data["speedup_vs_reference"] = self.speedup
        return data


@dataclass
class PerfReport:
    """The whole ladder, ready to serialize."""

    samples: list[PerfSample] = field(default_factory=list)
    churn: str | None = None
    seed: int = 11
    quick: bool = False
    #: Worker processes the ladder sharded across (1 = in-process).
    workers: int = 1
    #: The aggregate-throughput section (``jobs > 1`` runs only).
    aggregate: dict | None = None
    #: Shards that raised instead of reporting ({key, error} each);
    #: the CI tripwire fails on a non-empty envelope.
    shard_errors: list = field(default_factory=list)
    #: The certifier microbench section (see :func:`measure_certifier`).
    certifier: dict | None = None

    def sample_for(self, n_nodes: int) -> PerfSample | None:
        for sample in self.samples:
            if sample.n_nodes == n_nodes:
                return sample
        return None

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "version": __version__,
            "workload": "e11-multiquery",
            "queries": list(WORKLOAD_QUERIES),
            "methodology": (
                "best-of-R interleaved repetitions; "
                f"{WARMUP_EPOCHS} warm-up epochs excluded"
            ),
            "churn": self.churn,
            "seed": self.seed,
            "quick": self.quick,
            "platform": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "system": platform.system(),
                "cpu_count": os.cpu_count(),
                "workers": self.workers,
            },
            "results": [sample.as_dict() for sample in self.samples],
            "aggregate": self.aggregate,
            "shard_errors": list(self.shard_errors),
            "certifier": self.certifier,
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def _drive_once(n: int, epochs: int, seed: int,
                churn: str | None, churn_seed: int,
                hot: bool) -> tuple[float, int, int]:
    """One timed run; returns (wall seconds, messages timed, RSS
    sampled with the run's deployment still live)."""
    from .api import ChurnIntervention, Deployment, EpochDriver

    previous = hotpath.enabled()
    hotpath.set_enabled(hot)
    try:
        scenario = fleet_scenario(n, seed=seed)
        deployment = Deployment.from_scenario(scenario)
        interventions = []
        if churn is not None:
            schedule = preset_churn(
                scenario.network.topology, WARMUP_EPOCHS + epochs,
                preset=churn, seed=churn_seed,
                group_for=scenario.churn_group_for, field=scenario.field)
            interventions.append(
                ChurnIntervention(schedule, board_for=scenario.board_for))
        driver = EpochDriver(deployment, interventions=interventions)
        for query in WORKLOAD_QUERIES:
            deployment.submit(query)
        driver.run(WARMUP_EPOCHS)
        stats = scenario.network.stats
        messages_before = stats.messages
        gc.collect()
        started = time.perf_counter()
        driver.run(epochs)
        elapsed = time.perf_counter() - started
        return elapsed, stats.messages - messages_before, rss_bytes()
    finally:
        hotpath.set_enabled(previous)


@dataclass(frozen=True)
class _RepeatSpec:
    """One shard of the ladder: one repeat at one fleet size, running
    hot (and, when comparing, reference — back to back in the same
    worker so contention cancels out of the speedup)."""

    n: int
    epochs: int
    repeat: int
    seed: int
    churn: str | None
    churn_seed: int
    compare_reference: bool


def _measure_repeat(spec: _RepeatSpec) -> dict:
    """The ladder's shard worker (module-level: the spawn contract)."""
    elapsed, messages, rss = _drive_once(
        spec.n, spec.epochs, spec.seed, spec.churn, spec.churn_seed,
        hot=True)
    payload = {"n": spec.n, "repeat": spec.repeat,
               "hot": [elapsed, messages, rss], "reference": None}
    if spec.compare_reference:
        elapsed, messages, _ = _drive_once(
            spec.n, spec.epochs, spec.seed, spec.churn, spec.churn_seed,
            hot=False)
        payload["reference"] = [elapsed, messages]
    return payload


@dataclass(frozen=True)
class _ThroughputSpec:
    """One shard of the aggregate-throughput measurement: a whole
    deployment driven end to end (build + warm-up included — the
    parent's wall clock around the batch cannot exclude them)."""

    n: int
    epochs: int
    seed: int
    churn: str | None
    churn_seed: int


def _measure_throughput(spec: _ThroughputSpec) -> dict:
    started = time.perf_counter()
    _drive_once(spec.n, spec.epochs, spec.seed, spec.churn,
                spec.churn_seed, hot=True)
    return {"epochs": spec.epochs,
            "shard_seconds": time.perf_counter() - started}


def _merge_size(results, n: int, epochs: int,
                compare_reference: bool) -> PerfSample | None:
    """Fold one size's repeat envelopes (any execution order) into a
    sample — identical to what the old serial loop accumulated. None
    when every repeat crashed (the envelopes carry the errors)."""
    payloads = sorted((r.payload for r in results if r.ok),
                      key=lambda p: p["repeat"])
    if not payloads:
        return None
    hot = PathTiming.best_of(
        [p["hot"][0] for p in payloads], epochs,
        payloads[0]["hot"][1])
    reference = None
    if compare_reference:
        reference = PathTiming.best_of(
            [p["reference"][0] for p in payloads], epochs,
            payloads[0]["reference"][1])
    return PerfSample(
        n_nodes=n,
        sessions=len(WORKLOAD_QUERIES),
        repeats=len(payloads),
        hot=hot,
        reference=reference,
        # RSS is sampled inside each hot run (deployment still
        # live) and maxed over repeats; worker processes carry only
        # their own shards, so the figure stays per-size honest.
        peak_rss_bytes=max(p["hot"][2] for p in payloads),
    )


def _measure_aggregate(pool, jobs: int, n: int, epochs: int, seed: int,
                       churn: str | None, churn_seed: int,
                       serial_eps: float | None) -> tuple[dict, list]:
    """Drive ``jobs`` independent deployments simultaneously and price
    the machine's horizontal capacity; returns ``(section, results)``
    so the caller can fold shard failures into the error envelope.

    Each shard's deployment gets its own derived seed (a fleet of
    distinct buildings, not one building cloned). ``scaleout`` is the
    classic speedup estimator: summed in-worker shard time over the
    parent's wall clock for the whole batch.
    """
    from .parallel import derive_seed

    specs = [
        _ThroughputSpec(n=n, epochs=epochs,
                        seed=derive_seed(seed, "throughput", index),
                        churn=churn, churn_seed=churn_seed)
        for index in range(jobs)
    ]
    started = time.perf_counter()
    results = pool.map_shards(_measure_throughput, specs,
                              keys=[f"throughput-{i}" for i in range(jobs)])
    wall = time.perf_counter() - started
    payloads = [result.payload for result in results if result.ok]
    epochs_total = sum(p["epochs"] for p in payloads)
    aggregate_eps = epochs_total / wall if wall else 0.0
    data = {
        "workers": jobs,
        "n_nodes": n,
        "epochs_per_shard": epochs,
        "epochs_total": epochs_total,
        "wall_seconds": wall,
        "epochs_per_sec": aggregate_eps,
        "shard_seconds": [p["shard_seconds"] for p in payloads],
        "scaleout": (sum(p["shard_seconds"] for p in payloads) / wall
                     if wall else 0.0),
    }
    if serial_eps:
        data["serial_epochs_per_sec"] = serial_eps
    return data, results


def measure_fleet(n: int, epochs: int, repeats: int = 3, seed: int = 11,
                  churn: str | None = None, churn_seed: int = 0,
                  compare_reference: bool = False) -> PerfSample:
    """Best-of-``repeats`` timings for one fleet size, in-process
    (interleaving the hot and reference paths when comparing)."""
    from .parallel import ShardPool

    specs = [
        _RepeatSpec(n=n, epochs=epochs, repeat=repeat, seed=seed,
                    churn=churn, churn_seed=churn_seed,
                    compare_reference=compare_reference)
        for repeat in range(repeats)
    ]
    with ShardPool(jobs=1) as pool:
        results = pool.map_shards(_measure_repeat, specs)
    return _merge_size(results, n, epochs, compare_reference)


def certifier_streams(n: int, epochs: int, seed: int = 11,
                      k: int = 5) -> list[tuple[dict, int, bool]]:
    """Record every cold ``certify_top_k`` call FILA's sink makes over
    ``epochs`` monitoring rounds on the e11 fleet deployment.

    FILA is the certifier's heaviest client (monitor pass, probe loop,
    answer-time pass — up to three certifications per epoch over all
    ``n`` node-groups), which makes its reference-path call stream the
    honest workload for the cold-vs-incremental microbench. Returns
    ``(bounds snapshot, k, require_exact_scores)`` per call, in call
    order.
    """
    from .core import fila as fila_module
    from .core.aggregates import make_aggregate

    calls: list[tuple[dict, int, bool]] = []
    real = fila_module.certify_top_k

    def recorder(bounds, k_arg, tolerance=1e-9, require_exact_scores=True):
        calls.append((dict(bounds), k_arg, require_exact_scores))
        return real(bounds, k_arg, tolerance=tolerance,
                    require_exact_scores=require_exact_scores)

    previous = hotpath.enabled()
    hotpath.set_enabled(False)
    fila_module.certify_top_k = recorder
    try:
        scenario = fleet_scenario(n, seed=seed)
        aggregate = make_aggregate("AVG", 0.0, 100.0)
        engine = fila_module.Fila(scenario.network, aggregate, k,
                                  attribute=scenario.attribute)
        engine.run(epochs)
    finally:
        fila_module.certify_top_k = real
        hotpath.set_enabled(previous)
    return calls


def measure_certifier(n: int = 400, epochs: int = 30, seed: int = 11,
                      k: int = 5, repeats: int = 3) -> dict:
    """Cold ``certify_top_k`` replay vs one persistent
    :class:`~repro.core.delta.TopKView` over the recorded FILA stream.

    The recorded stream yields both views of the workload: the full
    bounds snapshot every cold call re-ranks, and the consecutive
    per-call :class:`~repro.core.delta.BoundsDelta` — the weighted
    delta batch the engines' dirty tracking hands the view for free on
    the hot path (MINT's sink-dirty sets, FILA's per-node ``ensure``).
    The incremental replay therefore times what the sink actually pays
    per certification: a validated ``apply`` in O(|delta| · log N)
    plus ``outcome``. Both replays produce
    :class:`CertificationOutcome` sequences asserted equal (dataclass
    equality — the equivalence proof runs on the measured stream
    itself), then timed best-of-``repeats`` with interleaved
    repetitions like the rest of the ladder.
    """
    from .core.certify import certify_top_k
    from .core.delta import BoundsDelta, TopKView

    calls = certifier_streams(n, epochs, seed=seed, k=k)
    if not calls:
        raise RuntimeError("certifier stream is empty")
    if any(k_arg != k or require for _, k_arg, require in calls):
        raise RuntimeError("certifier stream mixes certification modes")
    deltas = []
    previous: dict = {}
    for bounds, _, _ in calls:
        deltas.append(BoundsDelta.diff(previous, bounds))
        previous = bounds

    def replay_cold():
        return [certify_top_k(bounds, k, require_exact_scores=False)
                for bounds, _, _ in calls]

    def replay_incremental():
        view = TopKView(k, require_exact_scores=False)
        outcomes = []
        for delta in deltas:
            view.apply(delta)
            outcomes.append(view.outcome())
        return outcomes

    if replay_cold() != replay_incremental():
        raise RuntimeError(
            "incremental replay diverged from the cold certifier")

    cold_times, incremental_times = [], []
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        replay_cold()
        cold_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        replay_incremental()
        incremental_times.append(time.perf_counter() - started)
    cold, incremental = min(cold_times), min(incremental_times)
    return {
        "workload": "fila-certification-stream",
        "n_groups": n,
        "k": k,
        "epochs": epochs,
        "certifications": len(calls),
        "delta_entries": sum(len(delta) for delta in deltas),
        "repeats": repeats,
        "cold_seconds": cold,
        "incremental_seconds": incremental,
        "cold_per_sec": len(calls) / cold if cold else 0.0,
        "incremental_per_sec": (len(calls) / incremental
                                if incremental else 0.0),
        "speedup": cold / incremental if incremental else 0.0,
    }


def run_perf(sizes: Sequence[int] = FLEET_SIZES,
             repeats: int = 3, seed: int = 11,
             churn: str | None = None, churn_seed: int = 0,
             compare_reference: bool = False,
             quick: bool = False,
             epochs_for: dict[int, int] | None = None,
             progress=None, jobs: int = 1) -> PerfReport:
    """Measure the whole fleet-size ladder.

    ``quick`` trims the *default* ladder to N ∈ {25, 100, 400} with
    fewer repeats — the CI smoke configuration; an explicitly chosen
    ``sizes`` selection is honoured as given. ``progress`` is an
    optional callback invoked with each finished :class:`PerfSample`.
    ``jobs > 1`` shards the (size, repeat) grid across that many
    worker processes and appends the aggregate-throughput section.
    """
    from .parallel import ShardPool, shard_errors

    if repeats < 1:
        raise ConfigurationError(
            f"repeats must be at least 1, got {repeats}")
    if quick:
        if tuple(sizes) == FLEET_SIZES:
            sizes = QUICK_SIZES
        repeats = min(repeats, 2)
    defaults = epochs_for or EPOCHS_FOR
    epochs_for = {
        n: defaults.get(n) or max(4, 24_000 // max(n, 1) // 4)
        for n in sizes
    }
    report = PerfReport(churn=churn, seed=seed, quick=quick)
    all_results = []
    with ShardPool(jobs=jobs) as pool:
        report.workers = pool.jobs
        # One batch per fleet size: within a size the repeats shard
        # across the workers, and each finished size streams to the
        # progress callback (as the serial harness always has).
        for n in sizes:
            specs = [
                _RepeatSpec(n=n, epochs=epochs_for[n], repeat=repeat,
                            seed=seed, churn=churn,
                            churn_seed=churn_seed,
                            compare_reference=compare_reference)
                for repeat in range(repeats)
            ]
            results = pool.map_shards(
                _measure_repeat, specs,
                keys=[f"N{n}-r{spec.repeat}" for spec in specs])
            all_results.extend(results)
            sample = _merge_size(results, n, epochs_for[n],
                                 compare_reference)
            if sample is not None:
                report.samples.append(sample)
                if progress is not None:
                    progress(sample)
        if pool.jobs > 1:
            # Price horizontal capacity at the largest interactive
            # size of this run (1000-node shards would dominate the
            # batch without adding information).
            eligible = [n for n in sizes if n <= 400] or list(sizes)
            agg_n = max(eligible)
            sample = report.sample_for(agg_n)
            report.aggregate, throughput_results = _measure_aggregate(
                pool, pool.jobs, agg_n, epochs_for[agg_n], seed, churn,
                churn_seed,
                sample.hot.epochs_per_sec if sample else None)
            all_results.extend(throughput_results)
        report.shard_errors = shard_errors(all_results)
    # The certifier microbench rides every ladder run (serial,
    # in-process): cold certify_top_k replay vs the incremental
    # TopKView on the recorded FILA stream at N=400, the size the CI
    # regression gate watches (a smaller ladder caps the stream at its
    # own largest size so unit-scale runs stay unit-fast).
    certifier_n = 400 if any(n >= 400 for n in sizes) else max(sizes)
    report.certifier = measure_certifier(
        n=certifier_n, epochs=12 if quick else 30, seed=seed,
        repeats=repeats)
    return report

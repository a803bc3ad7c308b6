"""``repro.parallel`` — the process-sharded fleet executor.

The simulator is single-threaded by design (epoch-synchronous, one
shared clock per deployment), so the way to saturate a machine is
*horizontal*: many independent deployments — workload files and
parameter-sweep cells — sharded across worker processes. This
module owns that scale-out layer:

* **Deterministic seed derivation** — :func:`derive_seed` splits a
  root seed into per-shard streams by hashing the shard's *identity*
  (never its position in a work queue), so every shard's
  ``random.Random`` streams are bit-identical regardless of worker
  count, scheduling order, or how a sweep is partitioned. No numpy:
  the split is SHA-256 over a canonical encoding, folded to a seed any
  ``random.Random`` accepts.

* **The shard envelope** — :class:`ShardResult` carries one shard's
  plain-data payload *or* its captured traceback across the process
  boundary (both picklable), plus timing and worker identity. Workers
  never crash the merge: a raising shard becomes a non-empty ``error``
  field, which callers must check via :func:`shard_errors`.

* **The executor** — :class:`ShardPool` wraps
  :class:`concurrent.futures.ProcessPoolExecutor` with order-preserving
  submission, per-shard error capture, and explicit propagation of the
  :mod:`repro.network.hotpath` default (process-local state a ``spawn``
  worker would otherwise reset): shards submitted inside
  ``hotpath.reference_path()`` build their deployments inside it too.
  ``jobs <= 1`` runs inline — same envelopes, no pool — so serial and
  sharded runs share one code path.

* **Sweeps** — :class:`SweepCell` grids (fleet size × churn preset ×
  query mix) with :func:`run_sweep_cell` as the worker and
  :func:`merge_sweep` folding the envelopes: per-cell answers and
  stats, fleet-wide savings via
  :meth:`~repro.gui.stats.SystemPanel.aggregate` over each session's
  recorded savings series, folded in order.

Merged results are a pure function of the cell set — the property
tests (``tests/test_parallel.py``) drive random partitions and worker
counts through this module and require byte-identical merges, on the
hot path and on its oracle, ``hotpath.reference_path()``.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .network import hotpath

#: Field separator for the canonical seed-path encoding (never appears
#: in decimal integers or the identifier-ish path parts we feed it).
_SEP = b"\x1f"

#: Churn preset name meaning "no churn" in sweep grids.
NO_CHURN = "none"


# ----------------------------------------------------------------------
# Deterministic seed-sequence splitting
# ----------------------------------------------------------------------


def derive_seed(root_seed: int, *path) -> int:
    """Split ``root_seed`` into the child stream named by ``path``.

    The derivation hashes the canonical encoding of the root seed and
    every path component (ints and strings), so it depends only on the
    shard's *identity* — two shards with different paths get
    independent streams, and the same path always yields the same
    seed, no matter which worker runs it or in which order. The result
    is a 63-bit int, directly usable as a ``random.Random`` seed.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for part in path:
        digest.update(_SEP)
        digest.update(str(part).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def split_seeds(root_seed: int, count: int,
                label: str = "shard") -> tuple[int, ...]:
    """``count`` independent child seeds (``derive_seed`` per index)."""
    return tuple(derive_seed(root_seed, label, index)
                 for index in range(count))


# ----------------------------------------------------------------------
# The shard envelope and the executor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcome, as it crossed the process boundary.

    Attributes:
        key: The shard's stable identity (cell key, file name, ...).
        payload: The worker's plain-data result; None when it raised.
        error: The worker's formatted traceback; None on success.
        wall_seconds: In-worker wall-clock of the shard.
        pid: The worker process id (the parent's pid when inline).
    """

    key: str
    payload: dict | None
    error: str | None
    wall_seconds: float
    pid: int

    @property
    def ok(self) -> bool:
        """True when the worker returned instead of raising."""
        return self.error is None


def shard_errors(results: Iterable[ShardResult]) -> list[dict]:
    """The shard-error envelope: one ``{key, error}`` entry per failed
    shard (e14 fails when this is non-empty)."""
    return [{"key": result.key, "error": result.error}
            for result in results if not result.ok]


def _execute_shard(worker: Callable[[object], dict], spec,
                   key: str, hot: bool) -> ShardResult:
    """Run one shard in whatever process this lands in.

    Must stay a module-level function (picklable under ``spawn``).
    Runs the worker on the parent's path default — process-local
    state a fresh interpreter does not inherit and a forked one may
    have inherited from inside a ``hotpath.reference_path()`` block —
    and captures either the payload or the full traceback into the
    envelope.
    """
    with hotpath._default(hot):
        # repro: allow[no-wall-clock] -- shard wall_seconds is harness measurement metadata in the envelope, never simulation state (epochs stay the only clock in-sim)
        started = time.perf_counter()
        try:
            payload = worker(spec)
            return ShardResult(key=key, payload=payload, error=None,
                               # repro: allow[no-wall-clock] -- envelope timing metadata, not simulation state
                               wall_seconds=time.perf_counter() - started,
                               pid=os.getpid())
        except BaseException:
            return ShardResult(key=key, payload=None,
                               error=traceback.format_exc(),
                               # repro: allow[no-wall-clock] -- envelope timing metadata, not simulation state
                               wall_seconds=time.perf_counter() - started,
                               pid=os.getpid())


def resolve_jobs(jobs: int | None) -> int:
    """Effective worker count: ``jobs`` clamped to >= 1, defaulting to
    the visible CPU count."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


class ShardPool:
    """An order-preserving process pool speaking shard envelopes.

    ``jobs <= 1`` degenerates to inline execution in this process —
    identical envelopes, no pool, no pickling — so every caller has
    exactly one code path for serial and sharded runs. Use as a
    context manager or call :meth:`shutdown`.
    """

    def __init__(self, jobs: int | None = None, start_method: str | None = None):
        """Args:
            jobs: Worker processes (None: one per visible CPU).
            start_method: multiprocessing start method (None: the
                platform default; the subsystem is ``spawn``-safe).
        """
        self.jobs = resolve_jobs(jobs)
        self._executor: ProcessPoolExecutor | None = None
        if self.jobs > 1:
            context = None
            if start_method is not None:
                import multiprocessing

                context = multiprocessing.get_context(start_method)
            self._executor = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=context)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the worker processes (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def map_shards(self, worker: Callable[[object], dict],
                   specs: Sequence, keys: Sequence[str] | None = None
                   ) -> list[ShardResult]:
        """Run ``worker(spec)`` for every spec; envelopes in spec order.

        ``worker`` must be a module-level function and every spec
        picklable (the ``spawn`` contract). Scheduling order never
        leaks into the result: envelopes come back indexed by
        submission, and every seed a well-behaved worker consumes is
        derived from its spec, not its worker.
        """
        if keys is None:
            keys = [str(index) for index in range(len(specs))]
        if len(keys) != len(specs):
            raise ValueError(
                f"{len(specs)} specs but {len(keys)} keys")
        hot = hotpath._enabled
        if self._executor is None:
            return [_execute_shard(worker, spec, key, hot)
                    for spec, key in zip(specs, keys)]
        futures = [
            self._executor.submit(_execute_shard, worker, spec, key, hot)
            for spec, key in zip(specs, keys)
        ]
        return [future.result() for future in futures]


def run_sharded(worker: Callable[[object], dict], specs: Sequence,
                jobs: int | None = None,
                keys: Sequence[str] | None = None,
                start_method: str | None = None) -> list[ShardResult]:
    """One-shot :class:`ShardPool` convenience wrapper."""
    with ShardPool(jobs=jobs, start_method=start_method) as pool:
        return pool.map_shards(worker, specs, keys=keys)


# ----------------------------------------------------------------------
# Sweeps: fleet size × churn preset × query mix
# ----------------------------------------------------------------------

#: Named query mixes a sweep can grid over. Entries are
#: ``(algorithm value | None, query text)`` — None routes normally.
QUERY_MIXES: dict[str, tuple[tuple[str | None, str], ...]] = {
    "e11": (
        (None, "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min"),
        (None, "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min"),
        (None, "SELECT TOP 3 roomid, SUM(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min"),
        (None, "SELECT TOP 1 roomid, MIN(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min"),
        (None, "SELECT TOP 3 epoch, AVG(sound) FROM sensors "
               "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s"),
    ),
    "mint": (
        (None, "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min"),
        (None, "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
               "GROUP BY roomid EPOCH DURATION 1 min"),
    ),
    "baselines": (
        ("tag", "SELECT TOP 2 roomid, AVG(sound) FROM sensors "
                "GROUP BY roomid EPOCH DURATION 1 min"),
        ("fila", "SELECT TOP 2 nodeid, AVG(sound) FROM sensors "
                 "GROUP BY nodeid EPOCH DURATION 1 min"),
    ),
    "historic": (
        (None, "SELECT TOP 3 epoch, AVG(sound) FROM sensors "
               "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s"),
    ),
}


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: an independent deployment to drive to completion.

    Attributes:
        n_nodes: Fleet size (near-square grid via ``fleet_scenario``).
        churn: Churn preset name, or ``"none"``.
        mix: A :data:`QUERY_MIXES` key.
        epochs: Epochs to drive.
        seed: The *root* seed; the cell derives its own field and
            churn streams from it and the cell's identity, so a cell's
            results do not depend on which other cells run, where, or
            in what order.
        baseline: Give each top-k session a TAG shadow network (the
            System Panel input; costs one extra deployment per
            session).
    """

    n_nodes: int
    churn: str
    mix: str
    epochs: int
    seed: int
    baseline: bool = False

    @property
    def key(self) -> str:
        """The cell's stable identity (also its seed-derivation path)."""
        return f"n{self.n_nodes}-churn_{self.churn}-{self.mix}"

    @property
    def field_seed(self) -> int:
        """The sensing field's derived stream."""
        return derive_seed(self.seed, self.key, "field")

    @property
    def churn_seed(self) -> int:
        """The churn process's derived stream."""
        return derive_seed(self.seed, self.key, "churn")


def sweep_grid(sizes: Iterable[int], churns: Iterable[str],
               mixes: Iterable[str], epochs: int, seed: int,
               baseline: bool = False) -> tuple[SweepCell, ...]:
    """The full parameter grid, in deterministic (sorted-input) order."""
    from .errors import ConfigurationError
    from .scenarios import CHURN_PRESETS

    cells = []
    for mix in mixes:
        if mix not in QUERY_MIXES:
            raise ConfigurationError(
                f"unknown query mix {mix!r}; "
                f"choose from {sorted(QUERY_MIXES)}")
    for churn in churns:
        if churn != NO_CHURN and churn not in CHURN_PRESETS:
            raise ConfigurationError(
                f"unknown churn preset {churn!r}; choose from "
                f"{sorted((*CHURN_PRESETS, NO_CHURN))}")
        # A preset schedule churns from epoch 1 on: refuse here what
        # each churned cell's ChurnSchedule.poisson would refuse inside
        # its shard.
        if churn != NO_CHURN and epochs <= 1:
            raise ConfigurationError("no epoch available for churn")
    for n_nodes in sizes:
        if n_nodes < 1:
            raise ConfigurationError("fleet sizes must be positive")
        for churn in churns:
            for mix in mixes:
                cells.append(SweepCell(
                    n_nodes=n_nodes, churn=churn, mix=mix,
                    epochs=epochs, seed=seed, baseline=baseline))
    return tuple(cells)


def _answers_payload(handle) -> list:
    """A session's answers as JSON-able plain data."""
    if handle.is_historic:
        result = handle.historic_result
        if result is None:
            return []
        return [[item.key, item.score] for item in result.items]
    return [
        [result.epoch, result.exact, result.probed,
         [[item.key, item.score] for item in result.items]]
        for result in handle.results
    ]


def deployment_summary(network) -> dict:
    """A network's traffic summary plus its epoch and sensor samples:
    the ``deployment`` section of the sweep and CLI reports."""
    summary = network.stats.summary()
    summary["epoch"] = network.epoch
    summary["sensor_samples"] = sum(
        network.node(node_id).samples_taken
        for node_id in network.tree.sensor_ids)
    return summary


def run_sweep_cell(cell: SweepCell) -> dict:
    """Drive one cell's deployment to completion (the shard worker).

    Builds everything from the cell spec — nothing is inherited from
    the parent process beyond the code — and returns a plain-data
    payload: per-session answers, traffic and recovery accounting,
    savings series (when shadowed), and the cell's throughput.
    """
    from .api import Deployment, EpochDriver
    from .query.plan import Algorithm
    from .scenarios import fleet_scenario

    scenario = fleet_scenario(cell.n_nodes, seed=cell.field_seed)
    baseline_factory = None
    if cell.baseline:
        def baseline_factory():
            return fleet_scenario(cell.n_nodes,
                                  seed=cell.field_seed).network
    deployment = Deployment.from_scenario(
        scenario, baseline_factory=baseline_factory)
    interventions = []
    if cell.churn != NO_CHURN:
        interventions.append(scenario.churn_intervention(
            cell.epochs, preset=cell.churn, seed=cell.churn_seed))
    driver = EpochDriver(deployment, interventions=interventions)
    handles = [
        deployment.submit(query,
                          algorithm=Algorithm(algo) if algo else None)
        for algo, query in QUERY_MIXES[cell.mix]
    ]
    # repro: allow[no-wall-clock] -- cell throughput (epochs/sec) is sweep measurement metadata; canonical() strips it before merge-equality checks
    started = time.perf_counter()
    driver.run(cell.epochs)
    # repro: allow[no-wall-clock] -- cell throughput measurement, stripped by canonical()
    wall_seconds = time.perf_counter() - started
    sessions = []
    for handle in handles:
        entry = {
            "query": handle.query_text,
            "algorithm": handle.algorithm.value,
            "state": handle.state.value,
            "answers": _answers_payload(handle),
            "stats": handle.stats.summary(),
            "recovery": handle.recovery.summary(),
        }
        panel = handle.system_panel
        if panel is not None and panel.samples:
            entry["savings"] = [sample.as_dict()
                                for sample in panel.samples]
        sessions.append(entry)
    return {
        "cell": {"n_nodes": cell.n_nodes, "churn": cell.churn,
                 "mix": cell.mix, "epochs": cell.epochs,
                 "seed": cell.seed, "key": cell.key},
        "sessions": sessions,
        "deployment": deployment_summary(scenario.network),
        "wall_seconds": wall_seconds,
        "epochs_per_sec": (cell.epochs / wall_seconds
                           if wall_seconds else 0.0),
    }


def merge_sweep(results: Iterable[ShardResult]) -> dict:
    """Fold shard envelopes into the sweep report.

    Pure data-plane merging: cells stay in grid order, fleet totals
    sum, and each session's recorded savings series is folded with
    :meth:`~repro.gui.stats.SavingsSample.plus`, in order, as a live
    panel accumulates it, so
    :meth:`~repro.gui.stats.SystemPanel.aggregate` prices the whole
    sweep's savings exactly as it would price live sessions. Timing
    fields are measurements and are reported per cell, never compared.
    """
    from .gui.stats import SavingsSample, SystemPanel

    def folded(series: list[dict]) -> SavingsSample:
        samples = map(SavingsSample.from_dict, series)
        total = next(samples)
        for sample in samples:
            total = total.plus(sample, epoch=max(total.epoch, sample.epoch))
        return total

    results = list(results)
    cells = [result.payload for result in results if result.ok]
    savings = [
        folded(session["savings"])
        for payload in cells
        for session in payload["sessions"]
        if session.get("savings")
    ]
    aggregate = (SystemPanel.aggregate(savings).as_dict()
                 if savings else None)
    totals = {
        "cells": len(cells),
        "sessions": sum(len(payload["sessions"]) for payload in cells),
        "messages": sum(payload["deployment"]["messages"]
                        for payload in cells),
        "payload_bytes": sum(payload["deployment"]["payload_bytes"]
                             for payload in cells),
        "radio_joules": sum(payload["deployment"]["radio_joules"]
                            for payload in cells),
        "sensor_samples": sum(payload["deployment"]["sensor_samples"]
                              for payload in cells),
        "epochs": sum(payload["cell"]["epochs"] for payload in cells),
    }
    return {
        "cells": cells,
        "totals": totals,
        "aggregate_savings": aggregate,
        "shard_errors": shard_errors(results),
    }


#: Measurement-only keys (wall clocks and rates derived from them):
#: everything else in a merged sweep is deterministic simulation data.
_TIMING_KEYS = frozenset({"wall_seconds", "epochs_per_sec"})


def canonical(merged: dict) -> dict:
    """The merged sweep with measurement fields stripped.

    Wall clocks (and the rates derived from them) are host noise; the
    rest — answers, traffic, savings, recovery — is a pure function of
    the cell set. Serial and sharded runs of the same grid must agree
    on this canonical form *byte for byte* (the e14 benchmark and the
    partition property test compare JSON dumps of it).
    """

    def strip(value):
        if isinstance(value, dict):
            return {key: strip(item) for key, item in value.items()
                    if key not in _TIMING_KEYS}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(merged)


def run_sweep(cells: Sequence[SweepCell], jobs: int | None = None,
              start_method: str | None = None) -> dict:
    """Execute a sweep grid across ``jobs`` workers and merge it."""
    results = run_sharded(run_sweep_cell, cells, jobs=jobs,
                          keys=[cell.key for cell in cells],
                          start_method=start_method)
    return merge_sweep(results)

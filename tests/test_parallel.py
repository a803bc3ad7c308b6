"""``repro.parallel``: deterministic sharding, envelopes, merging.

The subsystem's contract is that *how* work is executed — worker
count, scheduling order, start method, partitioning — never leaks into
*what* is computed: every shard derives its random streams from its
own identity, and merged reports are a pure function of the cell set.
These tests pin the seed derivation, drive random partitions through
the sweep machinery, exercise a real process pool under both ``fork``
and ``spawn``, and audit the perf-path entry points for import-time
side effects (the fork-unsafety class of bug).
"""

from __future__ import annotations

import json
import multiprocessing
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gui.stats import SavingsSample, SystemPanel
from repro.network import hotpath
from repro.network.simulator import Network
from repro.network.stats import NetworkStats
from repro.network.topology import grid_topology
from repro.parallel import (
    NO_CHURN,
    QUERY_MIXES,
    ShardPool,
    ShardResult,
    canonical,
    derive_seed,
    merge_sweep,
    run_sharded,
    run_sweep,
    run_sweep_cell,
    shard_errors,
    sweep_grid,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# Workers (module-level: the pickling contract)
# ----------------------------------------------------------------------


def _square(spec):
    return {"value": spec * spec}


def _boom(spec):
    raise RuntimeError(f"shard {spec} exploded")


def _hot_flag(spec):
    return {"hot": Network(grid_topology(2)).hot}


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(11, "cell", 3) == derive_seed(11, "cell", 3)

    def test_identity_sensitive(self):
        seeds = {
            derive_seed(11),
            derive_seed(11, "a"),
            derive_seed(11, "b"),
            derive_seed(11, "a", 0),
            derive_seed(11, "a", 1),
            derive_seed(12, "a", 0),
        }
        assert len(seeds) == 6

    def test_random_random_compatible(self):
        seed = derive_seed(7, "stream")
        assert 0 <= seed < 2 ** 63
        assert random.Random(seed).random() == \
            random.Random(seed).random()

    def test_derivation_is_pinned(self):
        """The derivation is part of the persisted-results contract:
        changing it silently would re-randomize every committed sweep.
        """
        assert derive_seed(11, "n9-churn_none-mint", "field") == \
            8983316839075546829


# ----------------------------------------------------------------------
# The executor and the envelope
# ----------------------------------------------------------------------


class TestShardPool:
    def test_inline_and_pooled_agree(self):
        specs = [1, 2, 3, 4, 5]
        inline = run_sharded(_square, specs, jobs=1)
        pooled = run_sharded(_square, specs, jobs=2)
        assert [r.payload for r in inline] == [r.payload for r in pooled]
        assert [r.key for r in inline] == [r.key for r in pooled]
        assert all(r.ok for r in inline + pooled)

    def test_results_in_submission_order(self):
        specs = list(range(10))
        results = run_sharded(_square, specs, jobs=4)
        assert [r.payload["value"] for r in results] == \
            [n * n for n in specs]

    def test_error_becomes_envelope_not_crash(self):
        results = run_sharded(_boom, ["a", "b"], jobs=2,
                              keys=["ka", "kb"])
        assert [r.ok for r in results] == [False, False]
        assert "shard a exploded" in results[0].error
        envelope = shard_errors(results)
        assert [entry["key"] for entry in envelope] == ["ka", "kb"]

    def test_mixed_success_and_failure(self):
        def worker_results():
            return run_sharded(_square, [3], jobs=1) + \
                run_sharded(_boom, [9], jobs=1)

        results = worker_results()
        assert shard_errors(results) == [
            {"key": "0", "error": results[1].error}]
        assert results[0].payload == {"value": 9}

    def test_key_count_mismatch_rejected(self):
        with ShardPool(jobs=1) as pool:
            with pytest.raises(ValueError):
                pool.map_shards(_square, [1, 2], keys=["only-one"])

    @pytest.mark.parametrize("jobs, start_method", [
        (1, None), (2, "spawn"),
        pytest.param(2, "fork", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="no fork start method"))])
    def test_workers_inherit_the_hotpath_switch(self, jobs, start_method):
        """Shards submitted inside ``reference_path()`` build their
        networks on it, inline, in a fresh interpreter or in a forked
        one, and shards submitted after it on the hot path, though a
        forked worker kept the default it was forked with; the
        parent's default is restored."""
        with ShardPool(jobs=jobs, start_method=start_method) as pool:
            with hotpath.reference_path():
                inside = pool.map_shards(_hot_flag, [0, 1])
            assert _hot_flag(None) == {"hot": True}
            outside = pool.map_shards(_hot_flag, [0, 1])
        assert [r.payload for r in inside] == [{"hot": False}] * 2
        assert [r.payload for r in outside] == [{"hot": True}] * 2
        assert _hot_flag(None) == {"hot": True}

    def test_jobs_resolution(self):
        assert ShardPool(jobs=0).jobs == 1
        assert ShardPool(jobs=1).jobs == 1
        pool = ShardPool(jobs=None)
        assert pool.jobs >= 1
        pool.shutdown()


# ----------------------------------------------------------------------
# Sweep determinism: the partition property
# ----------------------------------------------------------------------

#: The property grid: small enough that one cell runs in milliseconds.
_GRID = None
_SERIAL = None


def _property_grid():
    global _GRID, _SERIAL
    if _GRID is None:
        _GRID = sweep_grid(sizes=(9,), churns=(NO_CHURN, "calm"),
                           mixes=("mint", "historic"), epochs=3,
                           seed=11, baseline=True)
        _SERIAL = json.dumps(
            canonical(run_sweep(_GRID, jobs=1)), sort_keys=True)
    return _GRID, _SERIAL


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_partition_merges_like_serial(data):
    """Partition the sweep into shards however you like, execute the
    shards in any order, and the merge — per-session results AND the
    ``SystemPanel.aggregate`` savings — is byte-identical to the
    serial run: per-cell seeds derive from cell identity, never from
    scheduling."""
    cells, serial = _property_grid()
    indices = list(range(len(cells)))
    shuffled = data.draw(st.permutations(indices))
    shard_count = data.draw(st.integers(1, 4))
    shards = [shuffled[offset::shard_count]
              for offset in range(shard_count)]

    executed = {}
    for shard in shards:
        for index in shard:
            executed[index] = ShardResult(
                key=cells[index].key,
                payload=run_sweep_cell(cells[index]),
                error=None, wall_seconds=0.0, pid=0)
    merged = merge_sweep([executed[index] for index in indices])
    assert json.dumps(canonical(merged), sort_keys=True) == serial


def test_worker_count_never_changes_the_merge():
    """jobs=1 vs jobs=3 over a real pool: same canonical report."""
    cells, serial = _property_grid()
    merged = run_sweep(cells, jobs=3)
    assert json.dumps(canonical(merged), sort_keys=True) == serial
    assert merged["shard_errors"] == []


def test_spawn_start_method_matches_serial():
    """The subsystem is spawn-safe: a fresh interpreter per worker
    (no inherited module state) still reproduces the serial merge."""
    cells, serial = _property_grid()
    merged = run_sweep(cells[:2], jobs=2, start_method="spawn")
    assert merged["shard_errors"] == []
    expected = merge_sweep([
        ShardResult(key=cell.key, payload=run_sweep_cell(cell),
                    error=None, wall_seconds=0.0, pid=0)
        for cell in cells[:2]
    ])
    assert json.dumps(canonical(merged), sort_keys=True) == \
        json.dumps(canonical(expected), sort_keys=True)


class TestSweepGrid:
    def test_grid_order_and_keys(self):
        cells = sweep_grid((9, 16), (NO_CHURN,), ("mint",), epochs=2,
                           seed=1)
        assert [cell.key for cell in cells] == [
            "n9-churn_none-mint", "n16-churn_none-mint"]

    def test_unknown_mix_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep_grid((9,), (NO_CHURN,), ("nope",), epochs=2, seed=1)

    def test_unknown_churn_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep_grid((9,), ("tornado",), ("mint",), epochs=2, seed=1)

    def test_every_mix_runs(self):
        for mix in QUERY_MIXES:
            cells = sweep_grid((9,), (NO_CHURN,), (mix,), epochs=2,
                               seed=3)
            payload = run_sweep_cell(cells[0])
            assert len(payload["sessions"]) == len(QUERY_MIXES[mix])


# ----------------------------------------------------------------------
# Recorded panels: cross-process savings aggregation
# ----------------------------------------------------------------------


class TestRecordedPanel:
    """A shard records each session's savings series as dicts;
    ``merge_sweep`` rebuilds every sample with
    ``SavingsSample.from_dict``, folds the series with ``plus`` in
    order, as a live panel accumulates it, and hands the totals to
    ``SystemPanel.aggregate``."""

    def _sample(self, epoch, scale=1):
        return SavingsSample(
            epoch=epoch, messages=10 * scale, baseline_messages=20 * scale,
            payload_bytes=100 * scale, baseline_payload_bytes=300 * scale,
            radio_joules=1.0 * scale, baseline_radio_joules=4.0 * scale)

    @staticmethod
    def _merged_savings(*series):
        """``merge_sweep``'s aggregate over one shard per series, each
        holding one session that recorded it."""
        deployment = {"messages": 0, "payload_bytes": 0,
                      "radio_joules": 0.0, "sensor_samples": 0}
        return merge_sweep([
            ShardResult(key=f"shard{index}", payload={
                "cell": {"epochs": 1}, "deployment": deployment,
                "sessions": [{"savings": [sample.as_dict()
                                          for sample in samples]}]},
                error=None, wall_seconds=0.0, pid=0)
            for index, samples in enumerate(series)
        ])["aggregate_savings"]

    def test_round_trips_as_dicts(self):
        samples = [self._sample(0), self._sample(1, scale=2)]
        entries = [sample.as_dict() for sample in samples]
        for entry in entries:
            entry["message_saving_pct"] = 99.0  # recomputed, not read
        assert [SavingsSample.from_dict(entry)
                for entry in entries] == samples

    def test_cumulative_matches_live_semantics(self):
        system, baseline = NetworkStats(), NetworkStats()
        panel = SystemPanel(system, baseline)
        for step in range(1, 6):
            system.record("x", step, 10 * step, 17, 1e-3 * step, 0.0)
            baseline.record("x", step, 40 * step, 47, 4e-3 * step, 0.0)
            panel.sample()
        assert (self._merged_savings(panel.samples)
                == panel.cumulative.as_dict())
        total = self._merged_savings([self._sample(0), self._sample(1)])
        assert total["messages"] == 20
        assert total["baseline_messages"] == 40
        assert total["epoch"] == 1

    def test_empty_panel_refuses_cumulative(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            SystemPanel.aggregate([])
        assert self._merged_savings([]) is None

    def test_aggregate_accepts_recorded_panels(self):
        total = self._merged_savings([self._sample(0)],
                                     [self._sample(0, scale=3)])
        assert total["messages"] == 40
        assert total["baseline_messages"] == 80
        assert total["message_saving_pct"] == pytest.approx(50.0)


# ----------------------------------------------------------------------
# Import hygiene: the fork/spawn-safety audit
# ----------------------------------------------------------------------


class TestImportSideEffects:
    """Every perf-path entry point must import without side effects —
    no output, no global-RNG seeding or consumption — or identical
    shards could diverge between ``fork`` (inherits module state) and
    ``spawn`` (rebuilds it)."""

    MODULES = ("repro.parallel", "repro.perf", "repro.cli",
               "repro.scenarios", "repro.api")

    def test_imports_are_silent_and_leave_global_rng_alone(self):
        probe = (
            "import random\n"
            "random.seed(0)\n"
            "expected = random.random()\n"
            "random.seed(0)\n"
            f"import {', '.join(self.MODULES)}\n"
            "assert random.random() == expected, 'import consumed "
            "or reseeded the global RNG stream'\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == ""
        assert completed.stderr == ""

    def test_workers_do_not_share_rng_state(self):
        """Two shards of the same cell agree whether they run in one
        process or two — nothing about a shard's streams lives in
        process-global state."""
        cells, _ = _property_grid()
        twice_inline = run_sharded(run_sweep_cell, [cells[0], cells[0]],
                                   jobs=1, keys=["a", "b"])
        twice_pooled = run_sharded(run_sweep_cell, [cells[0], cells[0]],
                                   jobs=2, keys=["a", "b"])
        payloads = [canonical(r.payload) for r in
                    (*twice_inline, *twice_pooled)]
        assert payloads[0] == payloads[1] == payloads[2] == payloads[3]

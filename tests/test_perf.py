"""The ``repro.perf`` harness: fleet builder, measurements, schema."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.perf import (
    EPOCHS_FOR,
    FLEET_SIZES,
    QUICK_SIZES,
    SCHEMA,
    PathTiming,
    PerfSample,
    fleet_scenario,
    rss_bytes,
    run_perf,
)


class TestFleetScenario:
    @pytest.mark.parametrize("n", [1, 9, 25, 30, 100, 1000])
    def test_exact_fleet_size(self, n):
        scenario = fleet_scenario(n)
        assert len(scenario.network.tree.sensor_ids) == n

    def test_square_sizes_match_canonical_grid(self):
        from repro.scenarios import grid_rooms_scenario

        ours = fleet_scenario(25, seed=3)
        canonical = grid_rooms_scenario(side=5, rooms_per_axis=4, seed=3)
        assert (ours.network.topology.positions
                == canonical.network.topology.positions)
        assert ours.group_of == canonical.group_of

    def test_every_sensor_has_board_and_room(self):
        scenario = fleet_scenario(30)
        for node_id in scenario.network.tree.sensor_ids:
            assert scenario.network.node(node_id).board is not None
            assert node_id in scenario.group_of

    def test_default_ladder(self):
        assert FLEET_SIZES == (25, 100, 400, 1000)
        assert set(EPOCHS_FOR) == set(FLEET_SIZES)
        # The CI smoke ladder covers every size the regression gate
        # inspects (N=100 and N=400).
        assert QUICK_SIZES == (25, 100, 400)


class TestMeasurement:
    @pytest.mark.parametrize("repeats", [0, -2])
    def test_no_repeats_is_a_configuration_error(self, repeats):
        with pytest.raises(ConfigurationError, match="repeats"):
            run_perf(sizes=(9,), repeats=repeats, epochs_for={9: 2})

    def test_run_perf_produces_schema_versioned_report(self, tmp_path):
        report = run_perf(sizes=(9,), repeats=1,
                          epochs_for={9: 3})
        data = report.as_dict()
        assert data["schema"] == SCHEMA == "kspot-perf/7"
        assert data["workload"] == "e11-multiquery"
        assert len(data["queries"]) == 5
        assert data["platform"]["cpu_count"] >= 1
        assert data["platform"]["workers"] == 1
        assert data["aggregate"] is None
        assert data["shard_errors"] == []
        # The certifier microbench rides every run, capped at the
        # ladder's own largest size for unit-scale invocations.
        certifier = data["certifier"]
        assert certifier["n_groups"] == 9
        assert certifier["certifications"] > 0
        assert certifier["speedup"] > 0
        assert certifier["incremental_per_sec"] > 0
        assert "columnar" not in data  # dropped in kspot-perf/7
        (sample,) = data["results"]
        assert sample["n_nodes"] == 9
        assert sample["epochs"] == 3
        assert sample["epochs_per_sec"] > 0
        assert sample["messages_per_sec"] > 0
        assert sample["peak_rss_bytes"] > 0
        assert "reference" not in sample

        path = report.write(tmp_path / "BENCH_perf.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(data))

    def test_all_repeat_timings_recorded(self):
        report = run_perf(sizes=(9,), repeats=3, epochs_for={9: 2},
                          compare_reference=True)
        sample = report.sample_for(9).as_dict()
        assert len(sample["repeat_wall_seconds"]) == 3
        assert sample["wall_seconds"] == min(sample["repeat_wall_seconds"])
        assert len(sample["reference"]["repeat_wall_seconds"]) == 3
        assert sample["reference"]["wall_seconds"] == min(
            sample["reference"]["repeat_wall_seconds"])

    def test_compare_reference_reports_speedup(self):
        report = run_perf(sizes=(9,), repeats=1, epochs_for={9: 3},
                          compare_reference=True)
        sample = report.sample_for(9)
        assert sample.reference is not None
        assert sample.speedup == pytest.approx(
            sample.hot.epochs_per_sec / sample.reference.epochs_per_sec)
        assert sample.as_dict()["speedup_vs_reference"] == sample.speedup

    def test_quick_mode_trims_the_ladder(self):
        report = run_perf(sizes=(25, 100, 400, 1000), repeats=1,
                          quick=True,
                          epochs_for={25: 2, 100: 2, 400: 2})
        assert [s.n_nodes for s in report.samples] == [25, 100, 400]
        assert all(s.repeats == 1 for s in report.samples)
        assert report.as_dict()["quick"] is True

    def test_sharded_run_matches_serial_counters(self):
        """--jobs changes wall clocks, never measurements: messages,
        epochs and the schema payload shape are identical."""
        serial = run_perf(sizes=(9, 16), repeats=2,
                          epochs_for={9: 2, 16: 2})
        sharded = run_perf(sizes=(9, 16), repeats=2,
                           epochs_for={9: 2, 16: 2}, jobs=2)
        assert sharded.workers == 2
        assert sharded.shard_errors == []
        for n in (9, 16):
            a, b = serial.sample_for(n), sharded.sample_for(n)
            assert a.hot.messages == b.hot.messages
            assert a.hot.epochs == b.hot.epochs
            assert a.repeats == b.repeats == 2
        aggregate = sharded.as_dict()["aggregate"]
        assert aggregate["workers"] == 2
        assert aggregate["n_nodes"] == 16
        assert aggregate["epochs_total"] == 2 * 2
        assert aggregate["epochs_per_sec"] > 0
        assert len(aggregate["shard_seconds"]) == 2

    def test_shard_crash_lands_in_the_error_envelope(self, monkeypatch):
        """A worker that raises must surface in shard_errors, never
        vanish (the CI tripwire's contract)."""
        import repro.perf as perf_module

        def boom(spec):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(perf_module, "_measure_repeat", boom)
        report = run_perf(sizes=(9,), repeats=1, epochs_for={9: 2})
        assert report.samples == []
        assert len(report.shard_errors) == 1
        assert "worker crashed" in report.shard_errors[0]["error"]

    def test_throughput_shard_crash_lands_in_the_error_envelope(
            self, monkeypatch):
        """Aggregate-throughput shards report through the same
        envelope as the ladder — a crashed worker there must not
        leave an honest-looking aggregate section behind."""
        import repro.perf as perf_module

        monkeypatch.setattr(perf_module, "_measure_throughput",
                            _throughput_boom)
        report = run_perf(sizes=(9,), repeats=1, epochs_for={9: 2},
                          jobs=2)
        assert len(report.shard_errors) == 2
        assert all("throughput worker crashed" in entry["error"]
                   for entry in report.shard_errors)
        assert report.aggregate["epochs_total"] == 0

    def test_churn_workload_runs(self):
        report = run_perf(sizes=(16,), repeats=1, epochs_for={16: 4},
                          churn="calm", churn_seed=1)
        assert report.sample_for(16).hot.epochs_per_sec > 0
        assert report.as_dict()["churn"] == "calm"

    def test_rss_probe_is_positive(self):
        assert rss_bytes() > 1_000_000  # a python process is >1 MB

    def test_path_timing_rates(self):
        timing = PathTiming(wall_seconds=2.0, epochs=10, messages=500)
        assert timing.epochs_per_sec == 5.0
        assert timing.messages_per_sec == 250.0

    def test_sample_speedup_none_without_reference(self):
        sample = PerfSample(n_nodes=1, sessions=5, repeats=1,
                            hot=PathTiming(1.0, 1, 1), reference=None,
                            peak_rss_bytes=1)
        assert sample.speedup is None
        assert "speedup_vs_reference" not in sample.as_dict()


def _throughput_boom(spec):
    """Module-level (picklable) crasher for the tripwire test."""
    raise RuntimeError("throughput worker crashed")


class TestPerfCli:
    def test_perf_subcommand_writes_report(self, tmp_path, capsys):
        output = tmp_path / "BENCH_perf.json"
        code = cli_main(["perf", "--sizes", "9", "--repeats", "1",
                         "--output", str(output)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        data = json.loads(output.read_text())
        assert data["schema"] == SCHEMA
        assert data["results"][0]["n_nodes"] == 9

    def test_bad_sizes_rejected(self, capsys):
        assert cli_main(["perf", "--sizes", "ten"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_zero_repeats_rejected(self, tmp_path, capsys):
        output = tmp_path / "BENCH_perf.json"
        assert cli_main(["perf", "--sizes", "9", "--repeats", "0",
                         "--output", str(output)]) == 2
        assert "error: repeats" in capsys.readouterr().err
        assert not output.exists()


class TestRegressionGate:
    def _report(self, speedup, eps=100.0, n=100):
        return {
            "schema": SCHEMA,
            "workload": "e11-multiquery",
            "results": [{
                "n_nodes": n,
                "epochs_per_sec": eps,
                "speedup_vs_reference": speedup,
            }],
        }

    def _run_gate(self, tmp_path, fresh_speedup, committed_speedup):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_perf_regression",
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "check_perf_regression.py")
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)

        report = tmp_path / "BENCH_perf.json"
        report.write_text(json.dumps(self._report(fresh_speedup)))
        trajectory = tmp_path / "trajectory.json"
        trajectory.write_text(json.dumps(self._report(committed_speedup)))
        return gate.main([str(report), "--trajectory", str(trajectory)])

    def test_within_tolerance_passes(self, tmp_path):
        assert self._run_gate(tmp_path, 1.9, 2.0) == 0

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        assert self._run_gate(tmp_path, 1.5, 2.0) == 1

    def _load_gate(self):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_perf_regression",
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "check_perf_regression.py")
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        return gate

    def test_write_refreshes_trajectory(self, tmp_path):
        gate = self._load_gate()
        report = tmp_path / "BENCH_perf.json"
        payload = self._report(2.0)
        payload["certifier"] = {"n_groups": 400, "speedup": 2.5,
                                "certifications": 87}
        report.write_text(json.dumps(payload))
        trajectory = tmp_path / "trajectory.json"
        assert gate.main([str(report), "--trajectory", str(trajectory),
                          "--write"]) == 0
        data = json.loads(trajectory.read_text())
        assert data["schema"] == gate.TRAJECTORY_SCHEMA
        assert data["results"][0]["speedup_vs_reference"] == 2.0
        assert data["certifier"] == {"n_groups": 400, "speedup": 2.5}

    def _run_certifier_gate(self, tmp_path, gate, fresh, committed):
        report = tmp_path / "BENCH_perf.json"
        payload = self._report(2.0)
        if fresh is not None:
            payload["certifier"] = fresh
        report.write_text(json.dumps(payload))
        trajectory = tmp_path / "trajectory.json"
        committed_payload = self._report(2.0)
        if committed is not None:
            committed_payload["certifier"] = committed
        trajectory.write_text(json.dumps(committed_payload))
        return gate.main([str(report), "--trajectory", str(trajectory)])

    def test_certifier_within_tolerance_passes(self, tmp_path):
        gate = self._load_gate()
        assert self._run_certifier_gate(
            tmp_path, gate,
            fresh={"n_groups": 400, "speedup": 2.4},
            committed={"n_groups": 400, "speedup": 2.8}) == 0

    def test_certifier_regression_fails(self, tmp_path):
        gate = self._load_gate()
        assert self._run_certifier_gate(
            tmp_path, gate,
            fresh={"n_groups": 400, "speedup": 1.1},
            committed={"n_groups": 400, "speedup": 2.8}) == 1

    def test_certifier_absent_from_trajectory_skips(self, tmp_path):
        gate = self._load_gate()
        assert self._run_certifier_gate(
            tmp_path, gate,
            fresh={"n_groups": 400, "speedup": 2.8},
            committed=None) == 0

    def test_certifier_missing_from_report_is_hard_error(self, tmp_path):
        gate = self._load_gate()
        with pytest.raises(SystemExit):
            self._run_certifier_gate(
                tmp_path, gate, fresh=None,
                committed={"n_groups": 400, "speedup": 2.8})


class TestPerfDoc:
    """docs/PERF.md names the artifact schemas the code writes: its
    newest schema-history row, its shape example and its gate section
    cannot drift from the live constants."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_schema_table_and_example_match(self):
        text = (self.ROOT / "docs" / "PERF.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(kspot-perf/\d+)` \|", text, re.MULTILINE)
        assert rows and rows[-1] == SCHEMA
        examples = re.findall(r'"schema": "(kspot-perf/\d+)"', text)
        assert examples == [SCHEMA]

    def test_trajectory_schema_matches_gate(self):
        text = (self.ROOT / "docs" / "PERF.md").read_text(encoding="utf-8")
        gate = TestRegressionGate()._load_gate()
        named = set(re.findall(r"kspot-perf-trajectory/\d+", text))
        assert named == {gate.TRAJECTORY_SCHEMA}

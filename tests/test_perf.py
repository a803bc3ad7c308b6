"""The ``repro.perf`` gates, their ratio helper and the gate script."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.network import hotpath
from repro.perf import SCHEMA, measure_ratio, run_perf
from repro.scenarios import fleet_scenario

ROOT = Path(__file__).resolve().parent.parent
GATE_NAMES = {"hot_vs_reference_n100", "hot_vs_reference_n400",
              "certifier_n400"}


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_perf_regression",
        ROOT / "benchmarks" / "check_perf_regression.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


@pytest.fixture
def small_gates(monkeypatch):
    """The gate table at 9 motes and 4 timed epochs (one chunk)."""
    monkeypatch.setattr(perf, "GATES", tuple(
        (name, measure, 9, 4) for name, measure, _, _ in perf.GATES))


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
        """The default run measures exactly the gates the committed
        trajectory holds, at the fleet sizes they name."""
        trajectory = json.loads(
            (ROOT / "benchmarks" / "perf_trajectory.json").read_text())
        assert {name for name, *_ in perf.GATES} == set(
            trajectory["gates"]) == GATE_NAMES
        for name, _, motes, _ in perf.GATES:
            assert name.endswith(f"_n{motes}")


def _scripted_ratio(monkeypatch, durations, outputs=None):
    """measure_ratio over two fake sides on a scripted clock: chunk c of
    repeat r of a side takes ``durations[side][r][c]`` seconds, and its
    output in repeat r is ``outputs[side][r]``. Returns the result, the
    builds per side and the order the steps ran in."""
    now, builds, order = [0.0], {"on": 0, "off": 0}, []
    outputs = outputs or {"on": "-" * 9, "off": "-" * 9}
    monkeypatch.setattr(perf.time, "perf_counter", lambda: now[0])

    def side(label):
        def build():
            repeat = builds[label]
            builds[label] += 1
            chunks = iter(durations[label][repeat])

            def step():
                order.append(label)
                now[0] += next(chunks)

            return step, lambda: outputs[label][repeat]
        return build

    result = measure_ratio(side("on"), side("off"),
                           chunks=len(durations["on"][0]),
                           repeats=len(durations["on"]), name="gate-x")
    return result, builds, order


class TestMeasurement:
    @pytest.mark.parametrize("repeats", [0, -2])
    def test_no_repeats_is_a_configuration_error(self, repeats):
        with pytest.raises(ConfigurationError, match="repeats"):
            measure_ratio(lambda: (None, None), lambda: (None, None),
                          chunks=1, repeats=repeats, name="gate-x")

    def test_all_repeat_timings_recorded(self, monkeypatch):
        """Every repeat of every chunk is timed; each side keeps its
        fastest run of each chunk."""
        result, _, _ = _scripted_ratio(monkeypatch, {
            "on": [[3.0, 1.0], [2.0, 5.0]], "off": [[6.0, 4.0], [8.0, 2.0]]})
        assert result == {"on_s": 2.0 + 1.0, "off_s": 6.0 + 2.0,
                          "ratio": 8.0 / 3.0}

    def test_builds_each_factory_once_per_repeat(self, monkeypatch):
        _, builds, _ = _scripted_ratio(monkeypatch, {
            "on": [[1.0]] * 3, "off": [[1.0]] * 3})
        assert builds == {"on": 3, "off": 3}

    def test_first_side_alternates_with_repeat_plus_chunk(self,
                                                          monkeypatch):
        _, _, order = _scripted_ratio(monkeypatch, {
            "on": [[1.0] * 3] * 2, "off": [[1.0] * 3] * 2})
        assert order == ["on", "off", "off", "on", "on", "off",
                         "off", "on", "on", "off", "off", "on"]

    def test_raises_when_only_a_later_repeat_diverges(self, monkeypatch):
        with pytest.raises(RuntimeError, match="gate-x.*repeat 2"):
            _scripted_ratio(monkeypatch,
                            {"on": [[1.0]] * 3, "off": [[1.0]] * 3},
                            outputs={"on": "abc", "off": "abx"})

    def test_compare_reference_reports_speedup(self):
        result = perf.hot_vs_reference("hot_vs_reference_n9", 9, 4)
        assert result["on_s"] > 0 and result["off_s"] > 0
        assert result["ratio"] == result["off_s"] / result["on_s"]

    def test_reference_side_builds_and_steps_on_the_reference_path(
            self, monkeypatch):
        from repro.api import EpochDriver

        seen, run = [], EpochDriver.run

        def recording_run(driver, epochs):
            seen.append(driver.deployment.network.hot)
            return run(driver, epochs)

        def check_sides(on, off, *, chunks, repeats, name):
            for side, hot in ((on, True), (off, False)):
                seen.clear()
                step, _ = side()
                step()
                assert seen == [hot, hot]  # warm-up, then one chunk

        monkeypatch.setattr(EpochDriver, "run", recording_run)
        monkeypatch.setattr(perf, "measure_ratio", check_sides)
        perf.hot_vs_reference("hot_vs_reference_n9", 9, 4)
        assert hotpath._enabled

    def test_run_perf_produces_schema_versioned_report(self, small_gates):
        data = run_perf()
        assert data["schema"] == SCHEMA == "kspot-perf/8"
        assert set(data) == {"schema", "version", "platform", "gates"}
        assert data["platform"]["cpu_count"] >= 1
        assert list(data["gates"]) == [name for name, *_ in perf.GATES]
        assert set(data["gates"]) == GATE_NAMES
        for gate in data["gates"].values():
            assert set(gate) == {"on_s", "off_s", "ratio"}
            assert gate["ratio"] > 0
        assert json.loads(json.dumps(data)) == data


class TestPerfCli:
    def test_perf_subcommand_writes_report(self, small_gates, tmp_path,
                                           capsys):
        output = tmp_path / "BENCH_perf.json"
        assert cli_main(["perf", "--output", str(output)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == [
            name for name, *_ in perf.GATES]
        assert lines[3] == f"wrote {output}"
        data = json.loads(output.read_text())
        assert data["schema"] == SCHEMA
        assert set(data["gates"]) == GATE_NAMES

    def test_bad_sizes_rejected(self, capsys):
        """``--output`` is the only option: the ladder's are refused."""
        with pytest.raises(SystemExit, match="2"):
            cli_main(["perf", "--sizes", "ten"])
        assert "unrecognized arguments: --sizes" in capsys.readouterr().err

    def test_zero_repeats_rejected(self, tmp_path, capsys):
        output = tmp_path / "BENCH_perf.json"
        with pytest.raises(SystemExit, match="2"):
            cli_main(["perf", "--repeats", "0", "--output", str(output)])
        assert "unrecognized arguments: --repeats" in capsys.readouterr().err
        assert not output.exists()


class TestRegressionGate:
    HEALTHY = {"hot_vs_reference_n100": 2.8, "hot_vs_reference_n400": 3.4,
               "certifier_n400": 2.9}

    def _run_gate(self, tmp_path, fresh=(), committed=(), write=False):
        """Gate a report of HEALTHY ratios updated by ``fresh`` against
        a trajectory updated by ``committed``; a None ratio drops the
        gate."""
        gate = _load_gate()
        ratios = [{name: ratio for name, ratio in
                   {**self.HEALTHY, **dict(changes)}.items()
                   if ratio is not None} for changes in (fresh, committed)]
        report = tmp_path / "BENCH_perf.json"
        report.write_text(json.dumps({"schema": SCHEMA, "gates": {
            name: {"on_s": 1.0, "off_s": ratio, "ratio": ratio}
            for name, ratio in ratios[0].items()}}))
        gate.TRAJECTORY = tmp_path / "trajectory.json"
        gate.TRAJECTORY.write_text(json.dumps(
            {"schema": gate.TRAJECTORY_SCHEMA, "gates": ratios[1]}))
        return gate.main([str(report)] + ["--write"] * write)

    def test_within_tolerance_passes(self, tmp_path):
        assert self._run_gate(tmp_path, {"hot_vs_reference_n100": 2.3}) == 0

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        assert self._run_gate(tmp_path, {"hot_vs_reference_n400": 2.7}) == 1

    def test_write_refreshes_trajectory(self, tmp_path):
        assert self._run_gate(tmp_path, {"certifier_n400": 2.5},
                              write=True) == 0
        data = json.loads((tmp_path / "trajectory.json").read_text())
        assert data == {"schema": _load_gate().TRAJECTORY_SCHEMA,
                        "source_schema": SCHEMA,
                        "gates": {**self.HEALTHY, "certifier_n400": 2.5}}

    def test_certifier_within_tolerance_passes(self, tmp_path):
        assert self._run_gate(tmp_path, {"certifier_n400": 2.4},
                              {"certifier_n400": 2.8}) == 0

    def test_certifier_regression_fails(self, tmp_path):
        assert self._run_gate(tmp_path, {"certifier_n400": 2.1},
                              {"certifier_n400": 2.8}) == 1

    def test_certifier_absolute_floor_holds_below_a_low_commit(
            self, tmp_path):
        """0.8 x 2.2 = 1.76, but the certifier's constant floor is 2.0."""
        assert self._run_gate(tmp_path, {"certifier_n400": 1.9},
                              {"certifier_n400": 2.2}) == 1

    def test_certifier_absent_from_trajectory_skips(self, tmp_path):
        """Only the relative check is skipped: the absolute floor still
        applies."""
        for fresh, expected in ((2.1, 0), (1.9, 1)):
            assert self._run_gate(tmp_path, {"certifier_n400": fresh},
                                  {"certifier_n400": None}) == expected

    def test_certifier_missing_from_report_is_hard_error(self, tmp_path):
        with pytest.raises(SystemExit, match="certifier_n400"):
            self._run_gate(tmp_path, {"certifier_n400": None})


class TestPerfDoc:
    """docs/PERF.md names the artifact schemas the code writes: its
    newest schema-history row, its shape example and its gate section
    cannot drift from the live constants."""

    def test_schema_table_and_example_match(self):
        text = (ROOT / "docs" / "PERF.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(kspot-perf/\d+)` \|", text, re.MULTILINE)
        assert rows and rows[-1] == SCHEMA
        examples = re.findall(r'"schema": "(kspot-perf/\d+)"', text)
        assert examples == [SCHEMA]

    def test_trajectory_schema_matches_gate(self):
        text = (ROOT / "docs" / "PERF.md").read_text(encoding="utf-8")
        named = set(re.findall(r"kspot-perf-trajectory/\d+", text))
        assert named == {_load_gate().TRAJECTORY_SCHEMA}

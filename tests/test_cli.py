"""Command-line interface."""

import json

import pytest

from repro.cli import main


class TestDemo:
    def test_figure1(self, capsys):
        assert main(["demo", "figure1", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "routed: mint" in out
        assert "C=75.00" in out

    def test_conference(self, capsys):
        assert main(["demo", "conference", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "routed: mint" in out
        assert "traffic:" in out


class TestScenarioWorkflow:
    def test_init_then_run(self, tmp_path, capsys):
        path = str(tmp_path / "deployment.json")
        assert main(["scenario-init", path]) == 0
        assert main(["run", path,
                     "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
                     "GROUP BY roomid", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "my-deployment" in out
        assert "exact" in out

    def test_run_historic_query(self, tmp_path, capsys):
        path = str(tmp_path / "deployment.json")
        main(["scenario-init", path])
        assert main(["run", path,
                     "SELECT TOP 3 epoch, AVERAGE(sound) FROM sensors "
                     "GROUP BY epoch WITH HISTORY 10 s"]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out

    def test_run_historic_tput_table(self, tmp_path, capsys):
        """TPUT's result has no clean-up rounds; the table still
        renders."""
        path = str(tmp_path / "deployment.json")
        main(["scenario-init", path])
        assert main(["run", path,
                     "SELECT TOP 3 epoch, AVERAGE(sound) FROM sensors "
                     "GROUP BY epoch WITH HISTORY 10 s",
                     "--algorithm", "tput"]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out
        assert "clean-up rounds" not in out

    def test_run_with_override(self, tmp_path, capsys):
        path = str(tmp_path / "deployment.json")
        main(["scenario-init", path])
        assert main(["run", path,
                     "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
                     "GROUP BY roomid", "--algorithm", "tag",
                     "--epochs", "1"]) == 0
        assert "routed:   tag" in capsys.readouterr().out

    def test_missing_scenario_is_a_clean_error(self, capsys):
        assert main(["run", "/nonexistent.json", "SELECT sound "
                     "FROM sensors"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_scenario_entry_is_a_clean_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "deployment.json"
        main(["scenario-init", str(path)])
        payload = json.loads(path.read_text())
        payload["sink"] = "ab"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["run", str(path), "SELECT TOP 1 roomid, AVG(sound) "
                     "FROM sensors GROUP BY roomid"]) == 2
        captured = capsys.readouterr()
        assert "error: malformed scenario file: sink" in captured.err
        assert captured.out == ""

    def test_non_string_attribute_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "deployment.json"
        main(["scenario-init", str(path)])
        payload = json.loads(path.read_text())
        payload["attribute"] = [1]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["run", str(path), "SELECT TOP 1 roomid, AVG(sound) "
                     "FROM sensors GROUP BY roomid"]) == 2
        captured = capsys.readouterr()
        assert "error: malformed scenario file: attribute" in captured.err
        assert captured.out == ""

    def test_labels_that_print_alike_are_a_clean_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "deployment.json"
        main(["scenario-init", str(path)])
        payload = json.loads(path.read_text())
        for index, sensor in enumerate(payload["sensors"]):
            sensor["cluster"] = 1 if index % 2 else "1"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["run", str(path), "SELECT TOP 1 roomid, MAX(sound) "
                     "FROM sensors GROUP BY roomid"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "print alike" in captured.err
        assert captured.out == ""

    def test_bad_query_is_a_clean_error(self, tmp_path, capsys):
        path = str(tmp_path / "deployment.json")
        main(["scenario-init", path])
        assert main(["run", path, "SELECT banana FROM fruit"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("query", [
        "SELECT TOP 2 epoch, AVG(sound) FROM sensors "
        "GROUP BY epoch WITH HISTORY 1500 s EPOCH DURATION 1 s",
        "SELECT TOP 1 roomid, AVG(sound) FROM sensors "
        "GROUP BY roomid WITH HISTORY 2000 s EPOCH DURATION 1 s",
    ], ids=["historic-vertical", "windowed-mint"])
    def test_history_past_the_window_is_a_clean_error(self, tmp_path,
                                                      capsys, query):
        """The motes buffer 1,024 readings; a longer history exits 2
        before any epoch runs instead of answering from what is left."""
        path = str(tmp_path / "deployment.json")
        main(["scenario-init", path])
        capsys.readouterr()
        assert main(["run", path, query]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "1024 readings" in captured.err
        assert captured.out == ""


class TestOutputPaths:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--sizes", "9", "--mixes", "mint", "--epochs", "1",
         "--output", "/nonexistent/d/x.json"],
        ["perf", "--output", "/nonexistent/x.json"],
        ["lint", __file__, "--output", "/nonexistent/x.json"],
        ["scenario-init", "/nonexistent/d/s.json"],
    ], ids=["sweep", "perf", "lint", "scenario-init"])
    def test_unwritable_output_is_a_clean_error(self, monkeypatch, capsys,
                                                argv):
        from repro import perf

        monkeypatch.setattr(perf, "GATES", tuple(
            (name, measure, 9, 4) for name, measure, _, _ in perf.GATES))
        assert main(argv) == 2
        assert ("error: cannot write /nonexistent/"
                in capsys.readouterr().err)


class TestWorkload:
    MIXED = (
        "# two monitoring users and one historic analyst\n"
        "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid "
        "EPOCH DURATION 1 min\n"
        "\n"
        "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid "
        "EPOCH DURATION 1 min\n"
        "tput: SELECT TOP 2 epoch, AVG(sound) FROM sensors "
        "GROUP BY epoch WITH HISTORY 4 s EPOCH DURATION 1 s\n"
    )

    def _write(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text)
        return str(path)

    def test_mixed_workload_runs_concurrently(self, tmp_path, capsys):
        path = self._write(tmp_path, self.MIXED)
        assert main(["workload", path, "--epochs", "6",
                     "--side", "4", "--rooms", "2"]) == 0
        out = capsys.readouterr().out
        assert "session 1: routed mint" in out
        assert "session 3: routed tput (historic_vertical)" in out
        assert "one-shot" in out
        # 16 sensors × 6 shared epochs, sampled once each.
        assert "epoch 6, 96 sensor samples" in out

    def test_baseline_prints_aggregate_savings(self, tmp_path, capsys):
        path = self._write(tmp_path, self.MIXED)
        assert main(["workload", path, "--epochs", "4",
                     "--side", "4", "--rooms", "2", "--baseline"]) == 0
        assert "aggregate savings" in capsys.readouterr().out

    def test_scenario_file_deployment(self, tmp_path, capsys):
        scenario = str(tmp_path / "deployment.json")
        main(["scenario-init", scenario])
        capsys.readouterr()
        path = self._write(
            tmp_path,
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid\n")
        assert main(["workload", path, "--scenario", scenario,
                     "--epochs", "2"]) == 0
        assert "session 1: routed mint" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", ["[]", '"x"', "3"],
                             ids=["list", "string", "number"])
    def test_non_object_scenario_is_a_clean_error(self, tmp_path, capsys,
                                                  payload):
        scenario = tmp_path / "deployment.json"
        scenario.write_text(payload)
        path = self._write(
            tmp_path,
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid\n")
        assert main(["workload", path, "--scenario", str(scenario),
                     "--epochs", "1"]) == 2
        assert "error: malformed scenario file" in capsys.readouterr().err

    def test_incompatible_query_rejected_not_fatal(self, tmp_path, capsys):
        """A bad routing (FILA over cluster ranking) skips that query;
        everyone else's sessions still run."""
        path = self._write(
            tmp_path,
            "fila: SELECT TOP 2 roomid, MAX(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min\n"
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid "
            "EPOCH DURATION 1 min\n")
        assert main(["workload", path, "--epochs", "2",
                     "--side", "4", "--rooms", "2"]) == 0
        captured = capsys.readouterr()
        assert "rejected:" in captured.err
        # The rejected query never consumed a session id.
        assert "session 1: routed mint" in captured.out
        assert "(1 queries rejected)" in captured.out

    def test_all_rejected_is_a_clean_error(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "fila: SELECT TOP 2 roomid, MAX(sound) FROM sensors "
            "GROUP BY roomid\n")
        assert main(["workload", path, "--side", "4", "--rooms", "2"]) == 2
        assert "error: every workload query was rejected" in \
            capsys.readouterr().err

    def test_missing_and_empty_files_are_clean_errors(self, tmp_path,
                                                      capsys):
        assert main(["workload", str(tmp_path / "nope.txt")]) == 2
        assert "cannot read workload file" in capsys.readouterr().err
        empty = self._write(tmp_path, "# only comments\n\n")
        assert main(["workload", empty]) == 2
        assert "contains no queries" in capsys.readouterr().err

    def test_non_utf8_workload_file_is_a_clean_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "queries.txt"
        path.write_bytes(b"SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                         b"GROUP BY roomid -- caf\xe9\n")
        assert main(["workload", str(path)]) == 2
        assert "error: cannot read workload file" in capsys.readouterr().err

    def test_non_utf8_scenario_is_a_clean_error(self, tmp_path, capsys):
        scenario = tmp_path / "deployment.json"
        scenario.write_bytes(b'{"version": 1, "name": "caf\xe9"}')
        path = self._write(
            tmp_path,
            "SELECT TOP 1 roomid, AVG(sound) FROM sensors GROUP BY roomid\n")
        assert main(["workload", path, "--scenario", str(scenario),
                     "--epochs", "1"]) == 2
        assert "error: cannot load scenario" in capsys.readouterr().err

    def test_zero_rooms_is_a_clean_error(self, tmp_path, capsys):
        path = self._write(tmp_path, self.MIXED)
        assert main(["workload", path, "--epochs", "2",
                     "--side", "4", "--rooms", "0"]) == 2
        assert "error: rooms_per_axis" in capsys.readouterr().err


class TestJsonFormat:
    """--format json: machine-readable results that round-trip."""

    WORKLOAD = (
        "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid "
        "EPOCH DURATION 1 min\n"
        "tput: SELECT TOP 2 epoch, AVG(sound) FROM sensors "
        "GROUP BY epoch WITH HISTORY 4 s EPOCH DURATION 1 s\n"
    )

    def _workload_json(self, tmp_path, capsys, *extra):
        path = tmp_path / "queries.txt"
        path.write_text(self.WORKLOAD)
        assert main(["workload", str(path), "--epochs", "6",
                     "--side", "4", "--rooms", "2", "--seed", "3",
                     "--format", "json", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_workload_json_round_trips(self, tmp_path, capsys):
        data = self._workload_json(tmp_path, capsys)
        # Serialisation is lossless: parse → dump → parse is identity.
        assert json.loads(json.dumps(data)) == data
        assert data["rejected"] == []
        monitor, historic = data["sessions"]
        assert monitor["state"] == "running"
        assert monitor["algorithm"] == "mint"
        assert len(monitor["results"]) == 6
        assert historic["state"] == "finished"
        assert historic["query_class"] == "historic_vertical"
        assert len(historic["historic_result"]["items"]) == 2
        # 16 sensors × 6 shared epochs, sampled once each.
        assert data["deployment"]["epoch"] == 6
        assert data["deployment"]["sensor_samples"] == 96
        assert data["churn"] is None

    def test_workload_json_matches_api_run(self, tmp_path, capsys):
        """The JSON carries the very results the facade computes: a
        direct repro.api run over the same seeded deployment agrees."""
        from repro.api import Deployment, EpochDriver
        from repro.scenarios import grid_rooms_scenario

        data = self._workload_json(tmp_path, capsys)
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=3)
        deployment = Deployment.from_scenario(scenario)
        monitor = deployment.submit(
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY "
            "roomid EPOCH DURATION 1 min")
        EpochDriver(deployment).run(6)
        expected = [{"epoch": r.epoch, "exact": r.exact,
                     "probed": r.probed,
                     "items": [{"key": i.key, "score": i.score}
                               for i in r.items],
                     "certification": (None if r.certification is None
                                       else r.certification.as_dict())}
                    for r in monitor.results]
        assert data["sessions"][0]["results"] == expected
        assert data["sessions"][0]["stats"]["messages"] \
            == monitor.stats.messages

    def test_certification_round_trips(self, tmp_path, capsys):
        """Certified answers survive the JSON surface like savings do:
        as_dict → json → from_dict rebuilds the engine's outcome."""
        from repro.api import Deployment, EpochDriver
        from repro.core.certify import CertificationOutcome
        from repro.scenarios import grid_rooms_scenario

        data = self._workload_json(tmp_path, capsys)
        scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=3)
        deployment = Deployment.from_scenario(scenario)
        monitor = deployment.submit(
            "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY "
            "roomid EPOCH DURATION 1 min")
        EpochDriver(deployment).run(6)
        serialized = data["sessions"][0]["results"]
        assert len(serialized) == len(monitor.results)
        for entry, result in zip(serialized, monitor.results):
            assert result.certification is not None  # MINT certifies
            rebuilt = CertificationOutcome.from_dict(
                entry["certification"])
            assert rebuilt == result.certification

    def test_workload_json_baseline_and_churn_sections(self, tmp_path,
                                                       capsys):
        data = self._workload_json(tmp_path, capsys, "--baseline",
                                   "--churn", "calm")
        assert data["aggregate_savings"] is not None
        assert "byte_saving_pct" in data["aggregate_savings"]
        churn = data["churn"]
        assert churn["deployed"] == churn["alive"] + churn["dead"]
        for log in churn["sessions"].values():
            assert log["events"] == log["failures"] + log["joins"]

    def test_run_json_round_trips(self, tmp_path, capsys):
        scenario = str(tmp_path / "deployment.json")
        main(["scenario-init", scenario])
        capsys.readouterr()
        assert main(["run", scenario,
                     "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
                     "GROUP BY roomid", "--epochs", "3",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(data)) == data
        assert data["scenario"]["name"] == "my-deployment"
        assert len(data["session"]["results"]) == 3
        assert data["session"]["recovery"]["events"] == 0

    def test_run_json_historic(self, tmp_path, capsys):
        scenario = str(tmp_path / "deployment.json")
        main(["scenario-init", scenario])
        capsys.readouterr()
        assert main(["run", scenario,
                     "SELECT TOP 3 epoch, AVERAGE(sound) FROM sensors "
                     "GROUP BY epoch WITH HISTORY 10 s",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["session"]["state"] == "finished"
        assert len(data["session"]["historic_result"]["items"]) == 3
        assert data["session"]["historic_result"]["candidates"] >= 3


class TestSavings:
    def test_savings_table(self, capsys):
        assert main(["savings", "--side", "4", "--rooms", "2",
                     "--epochs", "5"]) == 0
        out = capsys.readouterr().out
        assert "mint" in out
        assert "MINT saves" in out

    def test_zero_rooms_is_a_clean_error(self, capsys):
        assert main(["savings", "--side", "4", "--rooms", "0"]) == 2
        assert "error: rooms_per_axis" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_k_is_named(self, capsys, k):
        assert main(["savings", "--side", "4", "--rooms", "2",
                     "--k", k]) == 2
        assert f"error: --k must be >= 1, got {k}" in capsys.readouterr().err


class TestArgparse:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestEpochCounts:
    """Every subcommand with ``--epochs`` refuses a count below one:
    exit 2 with ``error: ...``, before any deployment runs."""

    @pytest.mark.parametrize("epochs", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["demo", "figure1"],
        ["savings", "--side", "4", "--rooms", "2"],
        ["sweep", "--sizes", "9", "--mixes", "mint"],
    ], ids=["demo", "savings", "sweep"])
    def test_rejected(self, capsys, argv, epochs):
        assert main([*argv, "--epochs", epochs]) == 2
        captured = capsys.readouterr()
        assert f"error: --epochs must be >= 1, got {epochs}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "workload"])
    def test_rejected_with_files(self, tmp_path, capsys, command):
        scenario = str(tmp_path / "deployment.json")
        main(["scenario-init", scenario])
        queries = tmp_path / "queries.txt"
        queries.write_text("SELECT TOP 1 roomid, AVG(sound) FROM sensors "
                           "GROUP BY roomid\n")
        capsys.readouterr()
        argv = (["run", scenario, queries.read_text().strip()]
                if command == "run"
                else ["workload", str(queries), "--scenario", scenario])
        assert main([*argv, "--epochs", "-5"]) == 2
        captured = capsys.readouterr()
        assert "error: --epochs must be >= 1, got -5" in captured.err
        assert captured.out == ""


class TestShardedWorkload:
    """Several workload files: independent deployments across workers."""

    FILE_A = ("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY "
              "roomid EPOCH DURATION 1 min\n")
    FILE_B = ("SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY "
              "roomid EPOCH DURATION 1 min\n"
              "tput: SELECT TOP 2 epoch, AVG(sound) FROM sensors "
              "GROUP BY epoch WITH HISTORY 4 s EPOCH DURATION 1 s\n")

    def _files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(self.FILE_A)
        b.write_text(self.FILE_B)
        return str(a), str(b)

    def test_multi_file_table_report(self, tmp_path, capsys):
        a, b = self._files(tmp_path)
        assert main(["workload", a, b, "--epochs", "4", "--side", "4",
                     "--rooms", "2", "--baseline", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert f"== {a} ==" in out
        assert f"== {b} ==" in out
        assert "aggregate savings" in out

    def test_jobs_never_change_the_json(self, tmp_path, capsys):
        a, b = self._files(tmp_path)
        argv = ["workload", a, b, "--epochs", "4", "--side", "4",
                "--rooms", "2", "--seed", "3", "--format", "json"]
        assert main([*argv, "--jobs", "1"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main([*argv, "--jobs", "2"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert serial == sharded
        assert [shard["file"] for shard in serial["shards"]] == [a, b]
        assert serial["shard_errors"] == []

    def test_each_file_gets_the_single_file_report(self, tmp_path,
                                                   capsys):
        """A file's block under its ``== file ==`` header is its
        one-file report: routing lines, a still-acquiring TJA row, the
        radio figure, and its rejected queries on stderr."""
        a, _ = self._files(tmp_path)
        c = tmp_path / "c.txt"
        c.write_text(
            "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch "
            "WITH HISTORY 40 s EPOCH DURATION 1 s\n"
            "fila: SELECT TOP 2 roomid, MAX(sound) FROM sensors "
            "GROUP BY roomid EPOCH DURATION 1 min\n")
        argv = ["--epochs", "4", "--side", "4", "--rooms", "2"]
        assert main(["workload", str(c), *argv]) == 0
        single = capsys.readouterr()
        assert "session 1: routed tja (historic_vertical)" in single.out
        assert "(still acquiring)" in single.out
        assert " mJ radio (1 queries rejected)" in single.out
        assert single.err.startswith("rejected: 'SELECT TOP 2 roomid")
        assert main(["workload", a, str(c), *argv]) == 0
        both = capsys.readouterr()
        assert f"== {c} ==\n{single.out}\n" in both.out
        assert both.out.count(" mJ radio") == 2
        assert both.err == single.err

    @pytest.mark.parametrize("deployment", ["grid", "scenario-file"])
    def test_single_file_json_is_its_shard(self, tmp_path, capsys,
                                           deployment):
        a, b = self._files(tmp_path)
        argv = ["--epochs", "6", "--churn", "harsh", "--baseline",
                "--format", "json"]
        if deployment == "grid":
            argv += ["--side", "4", "--rooms", "2"]
        else:
            scenario = str(tmp_path / "deployment.json")
            main(["scenario-init", scenario])
            argv += ["--scenario", scenario]
        capsys.readouterr()
        assert main(["workload", b, *argv]) == 0
        single = json.loads(capsys.readouterr().out)
        assert single["churn"]["dead"] > 0
        assert single["aggregate_savings"] is not None
        assert main(["workload", a, b, *argv]) == 0
        shard = json.loads(capsys.readouterr().out)["shards"][1]
        assert shard.pop("file") == b
        assert shard == single

    def test_failing_shard_reported_not_swallowed(self, tmp_path,
                                                  capsys):
        a, _ = self._files(tmp_path)
        missing = str(tmp_path / "nope.txt")
        assert main(["workload", a, missing, "--epochs", "2",
                     "--side", "4", "--rooms", "2", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert f"== {a} ==" in captured.out  # the good shard reported
        assert "shard failed" in captured.err
        assert "cannot read workload file" in captured.err


class TestSweepCommand:
    def test_sweep_table_report(self, capsys):
        assert main(["sweep", "--sizes", "9,16", "--churn", "none,calm",
                     "--mixes", "mint", "--epochs", "3",
                     "--jobs", "2", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "totals: 4 cells, 8 sessions" in out
        assert "aggregate savings" in out

    def test_sweep_json_round_trips_and_writes(self, tmp_path, capsys):
        output = tmp_path / "BENCH_sweep.json"
        assert main(["sweep", "--sizes", "9", "--mixes", "historic",
                     "--epochs", "12", "--format", "json",
                     "--output", str(output)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(data)) == data
        assert data["totals"]["cells"] == 1
        assert data["shard_errors"] == []
        (cell,) = data["cells"]
        assert cell["cell"]["key"] == "n9-churn_none-historic"
        assert cell["sessions"][0]["state"] == "finished"
        written = json.loads(output.read_text())
        assert written["totals"] == data["totals"]

    def test_unknown_mix_is_a_clean_error(self, capsys):
        assert main(["sweep", "--mixes", "nope"]) == 2
        assert "unknown query mix" in capsys.readouterr().err

    def test_bad_sizes_rejected(self, capsys):
        assert main(["sweep", "--sizes", "ten"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

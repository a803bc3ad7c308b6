"""The top-level package surface and TinyDB compatibility details."""

import importlib
import pkgutil

import pytest

import repro
from repro.query.parser import parse


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_everything_in_all_is_importable(self):
        """The package and each of its subpackages bind every name
        their ``__all__`` exports."""
        subpackages = [f"repro.{info.name}"
                       for info in pkgutil.iter_modules(repro.__path__)
                       if info.ispkg]
        assert "repro.network" in subpackages
        for package in ["repro", *subpackages]:
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name) is not None, \
                    f"{package}.{name}"

    def test_one_liner_workflow(self):
        scenario = repro.figure1_scenario()
        deployment = repro.Deployment.from_scenario(scenario)
        handle = deployment.submit(
            "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors "
            "GROUP BY roomid")
        repro.EpochDriver(deployment).run(1)
        assert handle.last_result.top.key == "C"
        assert handle.state is repro.SessionState.RUNNING

    def test_errors_share_a_base(self):
        from repro.errors import (
            KSpotError, LexError, ParseError, PlanError, ProtocolError,
            RoutingError, ScenarioError, SessionError, StorageError,
            StorageFullError, SubmissionError, TopologyError,
            UnknownSessionError, ValidationError,
        )

        for exc in (LexError("x", 0, 1, 1), ParseError("x"),
                    ValidationError("x"), PlanError("x"),
                    TopologyError("x"), RoutingError("x"),
                    StorageError("x"), StorageFullError("x"),
                    ProtocolError("x"), ScenarioError("x"),
                    SessionError("x"), UnknownSessionError("x"),
                    SubmissionError("x")):
            assert isinstance(exc, KSpotError)


class TestTinyDbCompatibility:
    def test_sample_period_is_epoch_duration(self):
        a = parse("SELECT AVG(sound) FROM sensors SAMPLE PERIOD 30 s")
        b = parse("SELECT AVG(sound) FROM sensors EPOCH DURATION 30 s")
        assert a.epoch == b.epoch

    def test_sample_period_in_tinydb_order(self):
        query = parse("SELECT nodeid, light FROM sensors "
                      "SAMPLE PERIOD 2 s LIFETIME 1 h")
        assert query.epoch.seconds == 2.0
        assert query.lifetime.seconds == 3600.0

    def test_duplicate_across_spellings_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="duplicate"):
            parse("SELECT sound FROM sensors EPOCH DURATION 1 s "
                  "SAMPLE PERIOD 2 s")

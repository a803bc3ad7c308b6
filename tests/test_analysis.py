"""`repro lint` — the AST invariant checker (repro.analysis).

Three layers of proof:

1. **Fixture suite** — for every registered rule, a positive fixture
   under ``tests/fixtures/lint/<rule-id>/bad*`` must fire it and a
   negative fixture under ``ok*`` must stay silent (and fully clean);
   a meta-test pins that *every* rule ships both, so a new rule
   cannot land unproven.
2. **Pragma round-trip** — a justified ``# repro: allow[...]``
   suppresses and records its justification; a missing justification
   suppresses nothing and is itself a finding.
3. **Self-application** — ``src/repro`` lints clean (the acceptance
   bar the CI gate enforces), the layer config is an acyclic DAG, and
   the CLI speaks the documented exit codes and JSON schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALLOWED_IMPORTS,
    PragmaIndex,
    iter_rules,
    lint_paths,
    rule_ids,
    validate_dag,
)
from repro.cli import main
from repro.errors import KSpotError

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"
SRC = REPO / "src" / "repro"

ALL_RULE_IDS = sorted(rule_ids())


def fixture_sides(rule_id: str):
    """The (bad, ok) fixture path lists for one rule."""
    root = FIXTURES / rule_id
    bad = sorted(p for p in root.iterdir() if p.name.startswith("bad"))
    ok = sorted(p for p in root.iterdir() if p.name.startswith("ok"))
    return bad, ok


class TestFixtureSuite:
    """Every rule fires on its violation and stays quiet on the fix."""

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_positive_fixture_fires(self, rule_id):
        bad, _ = fixture_sides(rule_id)
        for path in bad:
            report = lint_paths([path])
            fired = {finding.rule for finding in report.findings}
            assert rule_id in fired, (
                f"{rule_id} did not fire on its bad fixture {path.name}; "
                f"got {sorted(fired)}")

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_negative_fixture_is_clean(self, rule_id):
        _, ok = fixture_sides(rule_id)
        report = lint_paths(ok)
        assert report.findings == [], (
            f"ok fixture(s) for {rule_id} must lint fully clean; got "
            + "; ".join(f.render() for f in report.findings))

    def test_every_rule_has_both_fixtures(self):
        """Meta-test: a rule without fixtures cannot be registered."""
        for rule in iter_rules():
            bad, ok = fixture_sides(rule.id)
            assert bad, f"rule {rule.id} has no positive (bad*) fixture"
            assert ok, f"rule {rule.id} has no negative (ok*) fixture"

    def test_rule_metadata_complete(self):
        for rule in iter_rules():
            assert rule.summary, f"rule {rule.id} lacks a summary"
            assert rule.rationale, f"rule {rule.id} lacks a rationale"

    def test_expected_catalog(self):
        """The ISSUE's eight architecture rules plus pragma enforcement."""
        assert ALL_RULE_IDS == [
            "error-taxonomy", "hot-loop-allocation", "import-hygiene",
            "layer-dag", "no-wall-clock", "pragma-discipline",
            "rng-discipline", "set-iteration-order", "switch-and-prove",
        ]


class TestPragmas:
    def test_justified_pragma_suppresses_and_records(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    # repro: allow[no-wall-clock] -- deliberate: fixture\n"
            "    return time.time()\n")
        report = lint_paths([snippet])
        assert report.findings == []
        assert len(report.suppressed) == 1
        entry = report.suppressed[0]
        assert entry.finding.rule == "no-wall-clock"
        assert entry.justification == "deliberate: fixture"

    def test_missing_justification_round_trip(self, tmp_path):
        """allow without '-- why' suppresses nothing and is a finding."""
        snippet = tmp_path / "snippet.py"
        snippet.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    # repro: allow[no-wall-clock]\n"
            "    return time.time()\n")
        report = lint_paths([snippet])
        rules_fired = sorted(finding.rule for finding in report.findings)
        assert rules_fired == ["no-wall-clock", "pragma-discipline"]
        assert report.suppressed == []

    def test_unknown_rule_id_is_reported(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(
            "# repro: allow[no-such-rule] -- misguided\n"
            "VALUE = 1\n")
        report = lint_paths([snippet])
        assert [f.rule for f in report.findings] == ["pragma-discipline"]
        assert "no-such-rule" in report.findings[0].message

    def test_same_line_pragma_covers_its_line(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  "
            "# repro: allow[no-wall-clock] -- same line\n")
        report = lint_paths([snippet])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_docstring_mention_is_not_a_pragma(self):
        """Pragmas come from comment tokens, not string content."""
        index = PragmaIndex(
            '"""Docs: write # repro: allow[rng-discipline] -- why."""\n'
            "VALUE = 1\n")
        assert index.allows == []

    def test_hot_marker_lines(self):
        index = PragmaIndex(
            "# repro: hot\n"
            "def fast():\n"
            "    pass\n")
        assert index.is_hot(2)
        assert not index.is_hot(3)


class TestLayerConfig:
    def test_declared_config_is_a_dag(self):
        order = validate_dag()
        assert set(order) == set(ALLOWED_IMPORTS)

    def test_every_edge_targets_a_declared_package(self):
        for source, targets in ALLOWED_IMPORTS.items():
            missing = targets - set(ALLOWED_IMPORTS)
            assert not missing, f"{source} -> {sorted(missing)} undeclared"

    def test_edges_point_downward_only(self):
        """Allowed-import sets are monotone: everything a dependency may
        import, its dependents may reach transitively (no hidden
        sideways edges)."""
        for source, targets in ALLOWED_IMPORTS.items():
            for target in targets:
                assert source not in ALLOWED_IMPORTS[target], (
                    f"{source} <-> {target} would be a cycle")


class TestSelfApplication:
    def test_src_repro_lints_clean(self):
        report = lint_paths([SRC])
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings)

    def test_every_suppression_is_justified(self):
        report = lint_paths([SRC])
        assert report.suppressed, (
            "the tree documents its deliberate exceptions via pragmas; "
            "none found — did the pragmas move?")
        for entry in report.suppressed:
            assert entry.justification.strip(), (
                f"unjustified suppression at {entry.finding.render()}")

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        snippet = tmp_path / "broken.py"
        snippet.write_text("def broken(:\n")
        report = lint_paths([snippet])
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.exit_code == 1


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC / "errors.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        bad = FIXTURES / "rng-discipline" / "bad.py"
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format_schema(self, capsys):
        bad = FIXTURES / "no-wall-clock" / "bad.py"
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "kspot-lint/1"
        assert payload["files_scanned"] == 1
        assert payload["summary"]["no-wall-clock"] >= 1
        rules_listed = {rule["id"] for rule in payload["rules"]}
        assert rules_listed == set(ALL_RULE_IDS)
        for finding in payload["findings"]:
            assert {"rule", "path", "line", "col", "message"} <= set(finding)

    def test_json_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint-report.json"
        bad = FIXTURES / "import-hygiene" / "bad.py"
        assert main(["lint", str(bad), "--format", "json",
                     "--output", str(out_file)]) == 1
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["import-hygiene"] >= 1
        # stdout stays human-readable when JSON went to the file
        assert "import-hygiene" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_list_rules_json(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {rule["id"] for rule in payload["rules"]} \
            == set(ALL_RULE_IDS)

    def test_lint_paths_rejects_missing_path(self):
        with pytest.raises(KSpotError):
            lint_paths(["definitely/not/here"])

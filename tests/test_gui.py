"""GUI substitution: display panel, rendering, system panel, scenario files."""

import pytest

from repro.core.results import EpochResult, RankedItem
from repro.errors import ScenarioError, ValidationError
from repro.gui import (
    DisplayPanel,
    KSpotBullet,
    ScenarioConfig,
    SystemPanel,
    load_scenario,
    render_display,
    render_savings,
    render_table,
    save_scenario,
)
from repro.network.stats import NetworkStats


def result_with(*pairs):
    items = tuple(RankedItem(key=k, score=s, lb=s, ub=s) for k, s in pairs)
    return EpochResult(epoch=0, items=items, exact=True, algorithm="mint")


class TestDisplayPanel:
    def make_panel(self):
        panel = DisplayPanel(width=100, height=50)
        panel.cluster_of.update({1: "A", 2: "A", 3: "B"})
        panel.place(1, 10, 10)
        panel.place(2, 30, 10)
        panel.place(3, 80, 40)
        return panel

    def test_place_outside_map_rejected(self):
        panel = DisplayPanel(width=10, height=10)
        with pytest.raises(ValidationError):
            panel.place(1, 20, 5)

    def test_cluster_members_and_centroid(self):
        panel = self.make_panel()
        assert panel.cluster_members("A") == (1, 2)
        assert panel.cluster_centroid("A") == (20.0, 10.0)

    def test_centroid_of_unplaced_cluster_raises(self):
        panel = DisplayPanel(width=10, height=10)
        panel.cluster_of[1] = "A"
        with pytest.raises(ValidationError):
            panel.cluster_centroid("A")

    def test_update_ranking_produces_bullets(self):
        panel = self.make_panel()
        bullets = panel.update_ranking(result_with(("A", 80.0), ("B", 60.0)))
        assert bullets == (KSpotBullet(1, "A", 80.0),
                           KSpotBullet(2, "B", 60.0))
        assert bullets[0].label == "(1)"


class TestRenderers:
    def test_display_renders_sensors_and_bullets(self):
        panel = DisplayPanel(width=100, height=50)
        panel.cluster_of.update({1: "A", 2: "A"})
        panel.place(0, 50, 25)
        panel.place(1, 10, 10)
        panel.place(2, 30, 10)
        panel.update_ranking(result_with(("A", 80.0)))
        art = render_display(panel, columns=60, rows=12)
        assert "S0" in art
        assert "s1" in art
        assert "(1)" in art
        assert "A: 80.00" in art

    def test_display_canvas_too_small(self):
        panel = DisplayPanel(width=10, height=10)
        with pytest.raises(ValidationError):
            render_display(panel, columns=5, rows=2)

    def test_render_table_alignment(self):
        table = render_table(["k", "mint", "tag"],
                             [[1, 10.5, 20.0], [2, 11.25, 20.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["k", "mint", "tag"]
        assert "10.50" in lines[2]

    def test_render_table_row_width_checked(self):
        with pytest.raises(ValidationError):
            render_table(["a"], [[1, 2]])

    def test_render_savings_chart(self):
        stats_a, stats_b = NetworkStats(), NetworkStats()
        panel = SystemPanel(stats_a, stats_b)
        stats_a.record("x", 1, 50, 57, 0.0, 0.0)
        stats_b.record("x", 1, 100, 107, 0.0, 0.0)
        panel.sample()
        chart = render_savings(panel.samples, metric="bytes")
        assert "50.0%" in chart

    def test_render_savings_unknown_metric(self):
        with pytest.raises(ValidationError):
            render_savings([], metric="latency")


class TestSystemPanel:
    def test_savings_math(self):
        system, baseline = NetworkStats(), NetworkStats()
        panel = SystemPanel(system, baseline)
        system.record("x", 1, 30, 37, 1e-3, 1e-3)
        baseline.record("x", 1, 120, 127, 4e-3, 4e-3)
        sample = panel.sample()
        assert sample.byte_saving_pct == pytest.approx(75.0)
        assert sample.energy_saving_pct == pytest.approx(75.0)

    def test_zero_baseline_is_zero_saving(self):
        panel = SystemPanel(NetworkStats(), NetworkStats())
        sample = panel.sample()
        assert sample.byte_saving_pct == 0.0

    def test_cumulative(self):
        system, baseline = NetworkStats(), NetworkStats()
        panel = SystemPanel(system, baseline)
        for _ in range(3):
            system.record("x", 1, 10, 17, 0.0, 0.0)
            baseline.record("x", 1, 40, 47, 0.0, 0.0)
            panel.sample()
        assert panel.cumulative.payload_bytes == 30
        assert panel.cumulative.byte_saving_pct == pytest.approx(75.0)

    def test_cumulative_before_sampling_raises(self):
        panel = SystemPanel(NetworkStats(), NetworkStats())
        with pytest.raises(ValidationError):
            panel.cumulative

    def test_running_totals_match_series_resum(self):
        """The O(1) accumulated cumulative equals a from-scratch
        component-wise re-sum of the sample series at every epoch."""
        system, baseline = NetworkStats(), NetworkStats()
        panel = SystemPanel(system, baseline)
        for step in range(1, 6):
            system.record("x", step, 10 * step, 17, 1e-3 * step, 0.0)
            baseline.record("x", step, 40 * step, 47, 4e-3 * step, 0.0)
            panel.sample()
            assert panel.cumulative == SystemPanel._summed(
                panel.samples, epoch=panel.samples[-1].epoch)

    def test_recorded_panel_totals_match_resum(self):
        """A recorded series, rebuilt from its dicts and folded with
        ``plus`` in order as ``merge_sweep`` folds each session's,
        totals to the component-wise re-sum, and ``aggregate`` sums
        such totals the same way."""
        from repro.gui.stats import SavingsSample

        samples = [
            SavingsSample(epoch=e, messages=e + 1, baseline_messages=9,
                          payload_bytes=2 * e, baseline_payload_bytes=30,
                          radio_joules=0.5 * e, baseline_radio_joules=3.0)
            for e in range(4)
        ]
        recorded = [SavingsSample.from_dict(sample.as_dict())
                    for sample in samples]
        total = recorded[0]
        for sample in recorded[1:]:
            total = total.plus(sample, epoch=max(total.epoch, sample.epoch))
        assert total == SystemPanel._summed(samples, epoch=3)
        assert SystemPanel.aggregate([total, total]) == SystemPanel._summed(
            [total, total], epoch=3)


class TestScenarioFiles:
    def make_config(self):
        return ScenarioConfig(
            name="conference",
            map_width=100.0,
            map_height=60.0,
            radio_range=60.0,
            sink_position=(50.0, 30.0),
            positions={1: (10.0, 10.0), 2: (20.0, 10.0), 3: (80.0, 50.0)},
            cluster_of={1: "Auditorium", 2: "Auditorium", 3: "Lobby"},
        )

    def test_round_trip(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "scenario.json"
        save_scenario(config, path)
        loaded = load_scenario(path)
        assert loaded == config

    def test_sensor_outside_map_rejected(self):
        config = self.make_config()
        config.positions[4] = (500.0, 0.0)
        with pytest.raises(ScenarioError, match="outside the map"):
            config.validate()

    def test_reserved_sink_id_rejected(self):
        config = self.make_config()
        config.positions[0] = (1.0, 1.0)
        with pytest.raises(ScenarioError, match="reserved"):
            config.validate()

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ScenarioError, match="version"):
            load_scenario(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(sink="ab"), "sink 'ab' is not a pair"),
        (lambda p: p.update(sink=[1, 2, 3]), "not a pair of numbers"),
        (lambda p: p.update(sink=[1, True]), "not a pair of numbers"),
        (lambda p: p["sensors"][0].update(cluster=[1]), "not a label"),
        (lambda p: p["sensors"][0].update(cluster={"a": 1}), "not a label"),
        (lambda p: p["sensors"][0].update(id=1.7), "1.7 is not an integer"),
        (lambda p: p["sensors"][0].update(id="1"), "not an integer"),
        (lambda p: p["sensors"][1].update(id=1), "id 1 is listed twice"),
        (lambda p: p.update(attribute=[1]), r"attribute \[1\] is not a"),
        (lambda p: p.update(attribute={}), "attribute {} is not a string"),
        (lambda p: p.update(attribute=5), "attribute 5 is not a string"),
        (lambda p: p["sensors"][0].update(x="10"),
         "sensor 1 x '10' is not a number"),
        (lambda p: p["sensors"][0].update(y=True),
         "sensor 1 y True is not a number"),
        (lambda p: p["sensors"][2].update(x=None),
         "sensor 3 x None is not a number"),
        (lambda p: p["map"].update(width="100"),
         "map width '100' is not a number"),
        (lambda p: p["map"].update(height=[60]),
         r"map height \[60\] is not a number"),
        (lambda p: p.update(radio_range=True),
         "radio_range True is not a number"),
        (lambda p: p.update(radio_range=10 ** 400), "too large"),
    ], ids=["sink-string", "sink-triple", "sink-bool", "cluster-array",
            "cluster-object", "id-float", "id-string", "id-repeated",
            "attribute-array", "attribute-object", "attribute-number",
            "x-string", "y-bool", "x-null", "width-string",
            "height-array", "radio-bool", "radio-huge"])
    def test_malformed_entries_rejected(self, tmp_path, edit, message):
        import json

        path = tmp_path / "scenario.json"
        save_scenario(self.make_config(), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)

    def test_deploy_builds_network(self):
        from repro.sensing.generators import ConstantField

        config = self.make_config()
        network = config.deploy(ConstantField({1: 10.0, 2: 20.0, 3: 30.0}))
        assert set(network.tree.sensor_ids) == {1, 2, 3}
        assert network.node(1).group == "Auditorium"
        assert network.node(3).read("sound", 0) == pytest.approx(30.0, abs=0.1)

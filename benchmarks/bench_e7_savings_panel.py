"""E7 — the demo itself: the System Panel's continuous savings feed.

Reproduces what conference attendees see projected on the wall: the
conference deployment (15 motes, 6 clusters) running the TOP-3 acoustic
query with a TAG shadow baseline, and the per-epoch savings series the
System Panel plots. Every reported answer is exact.
"""

import _bootstrap  # noqa: F401  src/ path wiring for script runs

from repro.api import Deployment, EpochDriver
from repro.core.mint import MintConfig
from repro.gui.render import render_savings
from repro.scenarios import conference_scenario

from conftest import once

EPOCHS = 60
QUERY = ("SELECT TOP 3 roomid, AVERAGE(sound) FROM sensors "
         "GROUP BY roomid EPOCH DURATION 1 min")


def run_demo():
    scenario = conference_scenario(seed=7, room_step=2.0, sensor_sigma=0.2)
    shadow = conference_scenario(seed=7, room_step=2.0, sensor_sigma=0.2)
    deployment = Deployment.from_scenario(
        scenario, baseline_factory=lambda: shadow.network,
        mint_config=MintConfig(slack=0, adaptive=True))
    handle = deployment.submit(QUERY)
    EpochDriver(deployment).run(EPOCHS)
    panel = handle.system_panel
    exact = all(result.exact for result in handle.results)
    return panel, handle.results, exact


def test_e7_savings_panel(benchmark, table):
    panel, results, exact = once(benchmark, run_demo)

    window = 10
    rows = []
    for start in range(0, EPOCHS, window):
        chunk = panel.samples[start:start + window]
        messages = sum(s.messages for s in chunk)
        baseline = sum(s.baseline_messages for s in chunk)
        byte_cost = sum(s.payload_bytes for s in chunk)
        byte_base = sum(s.baseline_payload_bytes for s in chunk)
        rows.append([f"{start}-{start + window - 1}", messages, baseline,
                     byte_cost, byte_base,
                     100.0 * (1 - byte_cost / byte_base)])
    table(f"E7: System Panel feed — conference demo, {EPOCHS} epochs",
          ["epochs", "msgs", "tag msgs", "bytes", "tag bytes", "saving %"],
          rows)
    print(render_savings(panel.samples, metric="bytes"))

    cumulative = panel.cumulative
    assert exact                                  # answers never degrade
    assert cumulative.payload_bytes <= cumulative.baseline_payload_bytes
    assert cumulative.byte_saving_pct >= 0.0
    assert len(panel.samples) == EPOCHS


if __name__ == "__main__":
    raise SystemExit(_bootstrap.main(__file__))

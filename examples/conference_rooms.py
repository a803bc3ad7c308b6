#!/usr/bin/env python3
"""The ICDE demo plan (§IV): conference-room activity monitoring.

15 MICA2-class motes are deployed across six conference-site clusters
(Auditorium, two conference rooms, coffee station, lobby, registration)
sensing the acoustic channel. A continuous TOP-3 query identifies the
rooms with the most active discussions; the Display Panel projects
KSpot bullets on the floor plan and the System Panel shows the savings
against a TAG baseline running on an identical shadow deployment.

Run:  python examples/conference_rooms.py
"""

from repro.api import Deployment, EpochDriver
from repro.core.mint import MintConfig
from repro.gui import DisplayPanel, render_display, render_savings
from repro.scenarios import conference_scenario

QUERY = """
SELECT TOP 3 roomid, AVERAGE(sound)
FROM sensors
GROUP BY roomid
EPOCH DURATION 1 min
"""

EPOCHS = 40


def main():
    print("KSpot conference demo — §IV demo plan")
    print("=" * 60)

    # Calm corridors between sessions: room levels drift slowly and the
    # per-sensor noise sits below the ADC step, so MINT's cached views
    # suppress most updates. (Savings grow with network size and depth —
    # see benchmark E3; a 15-mote demo deployment is the small end.)
    scenario = conference_scenario(seed=7, room_step=2.0, sensor_sigma=0.2)
    shadow = conference_scenario(seed=7, room_step=2.0, sensor_sigma=0.2)

    positions = dict(scenario.network.topology.positions)
    width = max(x for x, _ in positions.values()) + 5
    height = max(y for _, y in positions.values()) + 5
    display = DisplayPanel(
        width=width, height=height,
        positions=positions,
        cluster_of=dict(scenario.group_of),
        floor_plan_caption="conference site floor plan",
    )

    deployment = Deployment.from_scenario(
        scenario,
        display=display,
        baseline_factory=lambda: shadow.network,
        mint_config=MintConfig(slack=0, adaptive=True),
    )
    driver = EpochDriver(deployment)
    handle = deployment.submit(QUERY)
    plan = handle.plan
    print(f"routed to: {plan.algorithm.value} ({plan.query_class.value})")
    print(f"epoch duration: {plan.epoch_seconds:.0f} s, continuous: "
          f"{plan.continuous}")
    print()

    for result in handle.watch(driver, epochs=EPOCHS):
        if result.epoch % 10 == 0:
            ranked = ", ".join(f"{item.key}={item.score:.1f}"
                               for item in result.items)
            print(f"epoch {result.epoch:3d}: {ranked}"
                  + ("  [probe]" if result.probed else ""))

    print()
    print(render_display(display, columns=66, rows=16))
    print()
    panel = handle.system_panel
    print(render_savings(panel.samples, metric="bytes"))
    print()
    cumulative = panel.cumulative
    print("System Panel cumulative savings vs TAG:")
    print(f"  messages: {cumulative.message_saving_pct:5.1f}%  "
          f"({cumulative.messages} vs {cumulative.baseline_messages})")
    print(f"  bytes:    {cumulative.byte_saving_pct:5.1f}%  "
          f"({cumulative.payload_bytes} vs "
          f"{cumulative.baseline_payload_bytes})")
    print(f"  energy:   {cumulative.energy_saving_pct:5.1f}%  "
          f"({cumulative.radio_joules * 1e3:.2f} mJ vs "
          f"{cumulative.baseline_radio_joules * 1e3:.2f} mJ)")
    probes = sum(r.probed for r in handle.results)
    # The adaptive slack lives on the engine — an engine-room detail
    # the read-only handle deliberately does not surface.
    engine = deployment.active_sessions()[0].engine
    print(f"  probe rounds: {probes} over {EPOCHS} epochs; "
          f"final adaptive slack: {engine.algorithm.slack}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Historic top-k (§III-B): the hottest time instances of a season.

The paper's example query — "Find the K time instances with the highest
average temperature during the last 3 months" — over a 36-node
deployment sensing a diurnal temperature field. Each mote buffers one
reading per day locally (a sliding window in SRAM); TJA then finds the
exact answer, and the same query runs under TPUT and a centralized
collection to show the cost gap.

Run:  python examples/historic_temperature.py
"""

from repro.api import Deployment, EpochDriver
from repro.network.simulator import Network
from repro.network.topology import grid_topology
from repro.query.plan import Algorithm
from repro.sensing.board import SensorBoard
from repro.sensing.generators import DiurnalField, GaussianNoiseField

QUERY = """
SELECT TOP 5 epoch, AVERAGE(temperature)
FROM sensors
GROUP BY epoch
EPOCH DURATION 1 day
WITH HISTORY 3 months
"""


def deploy(seed=0):
    """A 6×6 grid sensing a shared seasonal signal plus local noise."""
    topology = grid_topology(6)
    field = GaussianNoiseField(
        DiurnalField(mean=22.0, amplitude=12.0, period_epochs=30, seed=seed,
                     common_phase=True),
        sigma=1.5, seed=seed)
    boards = {n: SensorBoard({"temperature": field})
              for n in topology.sensor_ids}
    return Network(topology, boards=boards,
                   group_of={n: n for n in topology.sensor_ids})


def run(algorithm=None):
    network = deploy()
    deployment = Deployment(network,
                            group_of={n: n
                                      for n in network.tree.sensor_ids})
    handle = deployment.submit(QUERY, algorithm=algorithm)
    # Historic sessions finish by themselves: run() until idle.
    EpochDriver(deployment).run()
    return handle.plan, handle.historic_result, network.stats


def main():
    print("KSpot historic query — hottest days of the season")
    print("=" * 60)
    print(f"query: {QUERY.strip()}")
    print()

    plan, tja, tja_stats = run()
    print(f"routed to: {plan.algorithm.value}; window = "
          f"{plan.window_epochs} daily epochs")
    print()
    print("top-5 hottest days (exact):")
    for rank, item in enumerate(tja.items, start=1):
        print(f"  {rank}. day {item.key:3d}  avg {item.score:.2f} °C")
    print()
    print(f"TJA: |candidates| = {tja.candidates}, clean-up rounds = "
          f"{tja.cleanup_rounds}")
    print(f"     bytes per phase: {dict(tja.per_phase_bytes)}")

    _, tput, tput_stats = run(algorithm=Algorithm.TPUT)
    _, cent, cent_stats = run(algorithm=Algorithm.CENTRALIZED)
    assert [i.key for i in tput.items] == [i.key for i in tja.items]
    assert [i.key for i in cent.items] == [i.key for i in tja.items]

    print()
    print("cost comparison (identical answers):")
    for name, stats in (("TJA", tja_stats), ("TPUT", tput_stats),
                        ("centralized", cent_stats)):
        print(f"  {name:12s} {stats.messages:6d} messages  "
              f"{stats.payload_bytes:8d} payload bytes  "
              f"{stats.radio_joules * 1e3:7.2f} mJ radio")


if __name__ == "__main__":
    main()

"""E13 — facade overhead: the layered API vs driving engines directly.

The ``repro.api`` facade (PR: layered public API) wraps every epoch in
bookkeeping the raw engine loop does not pay: the driver's shared-epoch
context and intervention/hook dispatch, the session's stats tap and
result append, the handle's push-callback fan-out. This benchmark
prices that wrapper against the floor — a bare
:class:`~repro.core.engine.KSpotEngine` stepped in a plain loop on an
identical deployment — and holds the facade to **< 5 % wall-clock
overhead per epoch**, so "use the clean API" never needs a performance
caveat.

Both sides run the same MINT plan over the same seeded grid, so the
simulated work is identical; answers are checked identical. The two
sides are timed through :func:`repro.perf.measure_ratio`: fresh
deployments each repeat, ``CHUNK_EPOCHS`` epochs per chunk run back to
back with the side that goes first alternating, and the fastest run of
each chunk kept, so a descheduling blip counts only if it hits the same
chunk in every repeat.
"""

import _bootstrap  # noqa: F401  src/ path wiring for script runs

from repro.api import Deployment, EpochDriver
from repro.core.engine import KSpotEngine
from repro.perf import measure_ratio
from repro.query.plan import compile_query
from repro.query.validator import Schema
from repro.scenarios import grid_rooms_scenario

from conftest import once

QUERY = ("SELECT TOP 3 roomid, AVG(sound) FROM sensors "
         "GROUP BY roomid EPOCH DURATION 1 min")
SIDE = 8
ROOMS = 4
EPOCHS = 40
CHUNK_EPOCHS = 4
SEED = 13
REPEATS = 5

#: The acceptance bound: facade per-epoch wall-clock ≤ 1.05× raw.
MAX_OVERHEAD = 0.05
#: Noise floor for shared CI runners: a per-epoch absolute delta under
#: this is scheduler jitter, not facade cost, regardless of the ratio.
NOISE_FLOOR_SECONDS = 150e-6


def fresh_scenario():
    return grid_rooms_scenario(side=SIDE, rooms_per_axis=ROOMS, seed=SEED)


def raw_side():
    """The floor: one engine stepped in a plain loop."""
    scenario = fresh_scenario()
    board = scenario.network.node(
        next(iter(scenario.network.tree.sensor_ids))).board
    schema = Schema.for_deployment(board.attributes,
                                   group_keys=("roomid", "cluster"))
    _, plan = compile_query(QUERY, schema)
    engine = KSpotEngine(scenario.network, plan,
                         group_of=scenario.group_of)
    results = []

    def step():
        for _ in range(CHUNK_EPOCHS):
            results.append(engine.run_epoch())

    return step, lambda: [result.items for result in results]


def facade_side():
    """The full stack: Deployment → EpochDriver → SessionHandle."""
    scenario = fresh_scenario()
    deployment = Deployment.from_scenario(scenario)
    driver = EpochDriver(deployment)
    handle = deployment.submit(QUERY)

    def step():
        driver.run(CHUNK_EPOCHS)

    return step, lambda: [result.items for result in handle.results]


def run_experiment():
    return measure_ratio(facade_side, raw_side,
                         chunks=EPOCHS // CHUNK_EPOCHS, repeats=REPEATS,
                         name="e13 facade overhead")


def test_e13_facade_overhead(benchmark, table):
    # The facade is an organisational layer, not an execution one:
    # measure_ratio raises unless the answers are the very same
    # EpochResult items on both sides.
    timing = once(benchmark, run_experiment)
    raw_time, api_time = timing["off_s"], timing["on_s"]
    overhead = api_time / raw_time - 1.0

    per_epoch_raw = raw_time / EPOCHS * 1e6
    per_epoch_api = api_time / EPOCHS * 1e6
    table(f"E13: facade overhead ({SIDE * SIDE} sensors, {EPOCHS} epochs, "
          f"chunks of {CHUNK_EPOCHS}, best of {REPEATS})",
          ["driving style", "total ms", "per-epoch µs"],
          [["raw engine loop", f"{raw_time * 1e3:.1f}",
            f"{per_epoch_raw:.0f}"],
           ["Deployment + EpochDriver + SessionHandle",
            f"{api_time * 1e3:.1f}", f"{per_epoch_api:.0f}"],
           ["overhead", f"{(api_time - raw_time) * 1e3:+.1f}",
            f"{overhead * 100:+.1f}%"]])

    # The wrapper costs less than 5% wall-clock per epoch (a
    # sub-noise-floor absolute delta passes too, so a descheduling
    # blip on a shared CI runner cannot flake the gate).
    per_epoch_delta = (api_time - raw_time) / EPOCHS
    assert overhead < MAX_OVERHEAD \
        or per_epoch_delta < NOISE_FLOOR_SECONDS, (
        f"facade overhead {overhead * 100:.1f}% exceeds the "
        f"{MAX_OVERHEAD * 100:.0f}% budget "
        f"({per_epoch_api:.0f}µs vs {per_epoch_raw:.0f}µs per epoch)"
    )


if __name__ == "__main__":
    raise SystemExit(_bootstrap.main(__file__))

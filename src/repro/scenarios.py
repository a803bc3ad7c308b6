"""Canonical deployment scenarios used across examples, tests and benches.

The centrepiece is :func:`figure1_scenario`, the paper's 9-sensor /
4-room example reconstructed so its numbers reproduce *exactly*:

* room averages — A = 74.5, B = 41, C = 75, D = 64 (matching the
  in-network view labels of Figure 1);
* the naive greedy pruning strategy answers ``(D, 76.5)`` because
  ``(D, 39)`` is eliminated in-network (§III-A's trap); and
* the correct TOP-1 answer is ``(C, 75)``.

Also provided: the conference demo deployment of §IV (15 MICA2-class
motes in 6 clusters) and parameterised grid/room generators for the
scaling experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Hashable

from .network.simulator import Network
from .network.topology import RoomSpec, Topology, room_topology
from .network.tree import RoutingTree
from .sensing.board import SensorBoard
from .sensing.generators import (
    ConstantField,
    FieldGenerator,
    RoomField,
    ZipfEventField,
)

#: Figure 1's sensor readings (sound level, % of full scale).
FIGURE1_READINGS = {
    1: 40.0, 2: 74.0, 3: 75.0, 4: 42.0, 5: 75.0,
    6: 75.0, 7: 78.0, 8: 75.0, 9: 39.0,
}

#: Figure 1's room assignment. Room averages: A 74.5, B 41, C 75, D 64.
FIGURE1_ROOMS = {
    1: "B", 2: "A", 3: "A", 4: "B", 5: "D",
    6: "C", 7: "D", 8: "C", 9: "D",
}

#: Figure 1's routing hierarchy (child → parent). Sensor s9 (the
#: ``(D, 39)`` reading) routes through s4, whose local top-1 is (B, 42)
#: — precisely the elimination that breaks greedy pruning.
FIGURE1_PARENTS = {
    2: 0, 4: 0, 6: 0,
    1: 2, 3: 2,
    9: 4,
    5: 6, 7: 6, 8: 6,
}

#: Positions only matter for rendering the 4-room floor plan.
FIGURE1_POSITIONS = {
    0: (20.0, -6.0),
    2: (6.0, 6.0), 3: (14.0, 6.0),      # room A (top-left)
    1: (6.0, 14.0), 4: (14.0, 14.0),    # room B (bottom-left)
    6: (26.0, 6.0), 8: (34.0, 6.0),     # room C (top-right)
    5: (26.0, 14.0), 7: (34.0, 14.0),   # room D (bottom-right)
    9: (14.0, 22.0),                    # room D annex, deep in the tree
}


@dataclass
class Scenario:
    """A deployed network plus everything a query needs to run on it."""

    network: Network
    group_of: dict[int, Hashable]
    attribute: str
    field: FieldGenerator

    def board_for(self, node_id: int) -> SensorBoard:
        """A sensor board for a newborn node, sensing this scenario's
        field (the ``board_for`` hook churn schedules need)."""
        del node_id
        return SensorBoard({self.attribute: self.field})

    def churn_group_for(self, anchor: int) -> Hashable:
        """The cluster a mote dropped next to ``anchor`` belongs to."""
        return self.group_of.get(anchor)

    def deployment(self, **kwargs):
        """This scenario as a :class:`repro.api.Deployment` (keyword
        arguments forwarded — ``baseline_factory``, ``display``, ...)."""
        # repro: allow[layer-dag] -- lazy convenience back-edge: scenario.deployment() hands the object to the facade above it; module import stays downward-only
        from .api import Deployment

        return Deployment.from_scenario(self, **kwargs)

    def churn_intervention(self, epochs: int, preset: str = "lively",
                           seed: int = 0, first_epoch: int = 1):
        """A :class:`repro.api.ChurnIntervention` over this deployment:
        a seeded preset schedule with newborn boards wired to this
        scenario's field (ready to hand to an ``EpochDriver``)."""
        # repro: allow[layer-dag] -- lazy convenience back-edge, same contract as deployment() above
        from .api import ChurnIntervention

        schedule = churn_schedule(self, epochs, preset=preset, seed=seed,
                                  first_epoch=first_epoch)
        return ChurnIntervention(schedule, board_for=self.board_for)


def _boards_for(node_ids, attribute: str, field: FieldGenerator,
                quantize: bool = True) -> dict[int, SensorBoard]:
    return {node_id: SensorBoard({attribute: field}, quantize=quantize)
            for node_id in node_ids}


def figure1_scenario() -> Scenario:
    """The paper's Figure 1, wired exactly (readings, rooms, tree)."""
    field = ConstantField(FIGURE1_READINGS)
    topology = Topology(positions=dict(FIGURE1_POSITIONS), radio_range=25.0)
    tree = RoutingTree(0, FIGURE1_PARENTS)
    network = Network(
        topology,
        tree=tree,
        boards=_boards_for(FIGURE1_READINGS, "sound", field,
                           quantize=False),
        group_of=FIGURE1_ROOMS,
    )
    return Scenario(network=network, group_of=dict(FIGURE1_ROOMS),
                    attribute="sound", field=field)


#: The §IV demo deployment: 6 conference-site clusters, 15 motes.
CONFERENCE_CLUSTERS = (
    RoomSpec("Auditorium", 0.0, 0.0, 30.0, 20.0, sensors=4),
    RoomSpec("ConferenceRoomA", 40.0, 0.0, 20.0, 15.0, sensors=3),
    RoomSpec("ConferenceRoomB", 40.0, 25.0, 20.0, 15.0, sensors=3),
    RoomSpec("CoffeeStation", 0.0, 30.0, 15.0, 10.0, sensors=2),
    RoomSpec("Lobby", 20.0, 25.0, 15.0, 12.0, sensors=2),
    RoomSpec("Registration", 25.0, 45.0, 15.0, 10.0, sensors=1),
)


def conference_scenario(seed: int = 7, room_step: float = 5.0,
                        sensor_sigma: float = 2.0) -> Scenario:
    """The demo plan of §IV: 15 motes over 6 clusters sensing sound."""
    topology, room_of = room_topology(
        CONFERENCE_CLUSTERS, radio_range=30.0, seed=seed)
    field = RoomField(room_of, lo=0.0, hi=100.0, room_step=room_step,
                      sensor_sigma=sensor_sigma, seed=seed)
    network = Network(
        topology,
        boards=_boards_for(room_of, "sound", field),
        group_of=room_of,
    )
    return Scenario(network=network, group_of=dict(room_of),
                    attribute="sound", field=field)


def grid_rooms_scenario(side: int = 8, rooms_per_axis: int = 4,
                        seed: int = 0, skew: float = 0.0,
                        attribute: str = "sound",
                        room_step: float = 4.0,
                        sensor_sigma: float = 1.5) -> Scenario:
    """A ``side × side`` grid partitioned into square rooms.

    The standard scaling layout (E2/E3/E4/E9): ``rooms_per_axis²``
    rooms, each covering a block of the grid. ``skew > 0`` switches the
    field to Zipf-distributed room loudness, concentrating activity in
    a few rooms.
    """
    from .errors import ConfigurationError
    from .network.topology import grid_topology

    if rooms_per_axis < 1:
        raise ConfigurationError(
            f"rooms_per_axis must be at least 1, got {rooms_per_axis}")
    spacing = 10.0
    topology = grid_topology(side, spacing=spacing,
                             radio_range=spacing * 1.5)
    room_of: dict[int, Hashable] = {}
    block = max(1, side // rooms_per_axis)
    node_id = 1
    for row in range(side):
        for col in range(side):
            room = (min(row // block, rooms_per_axis - 1),
                    min(col // block, rooms_per_axis - 1))
            room_of[node_id] = f"R{room[0]}{room[1]}"
            node_id += 1
    if skew > 0:
        field: FieldGenerator = ZipfEventField(
            room_of, lo=0.0, hi=100.0, skew=skew, jitter=5.0, seed=seed)
    else:
        field = RoomField(room_of, lo=0.0, hi=100.0, room_step=room_step,
                          sensor_sigma=sensor_sigma, seed=seed)
    network = Network(
        topology,
        boards=_boards_for(room_of, attribute, field),
        group_of=room_of,
    )
    return Scenario(network=network, group_of=room_of,
                    attribute=attribute, field=field)


def fleet_scenario(n: int, seed: int = 11,
                   rooms_per_axis: int = 4) -> Scenario:
    """A deployment of exactly ``n`` sensors on a near-square grid.

    Square ``n`` uses the canonical ``side × side`` layout of
    :func:`grid_rooms_scenario`; other sizes extend it to
    ``rows × cols`` (rows = ⌊√n⌋) with the trailing row truncated, so
    N = 1000 is a 31 × 33 grid missing 23 corner motes.
    """
    spacing = 10.0
    rows = max(1, math.isqrt(n))
    cols = math.ceil(n / rows)
    positions: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    room_of: dict[int, Hashable] = {}
    row_block = max(1, rows // rooms_per_axis)
    col_block = max(1, cols // rooms_per_axis)
    node_id = 1
    for row in range(rows):
        for col in range(cols):
            if node_id > n:
                break
            positions[node_id] = (col * spacing, row * spacing)
            room = (min(row // row_block, rooms_per_axis - 1),
                    min(col // col_block, rooms_per_axis - 1))
            room_of[node_id] = f"R{room[0]}{room[1]}"
            node_id += 1
    topology = Topology(positions=positions, radio_range=spacing * 1.5)
    sound = RoomField(room_of, lo=0.0, hi=100.0, room_step=4.0,
                      sensor_sigma=1.5, seed=seed)
    network = Network(topology, boards=_boards_for(room_of, "sound", sound),
                      group_of=room_of)
    return Scenario(network=network, group_of=room_of,
                    attribute="sound", field=sound)


#: Churn presets: name → (expected deaths per epoch, births per epoch).
#: "calm" is a healthy building deployment (occasional battery death),
#: "lively" a maintained fleet with swaps, "harsh" a field deployment
#: shedding and gaining motes continuously.
CHURN_PRESETS: dict[str, tuple[float, float]] = {
    "calm": (0.05, 0.0),
    "lively": (0.15, 0.10),
    "harsh": (0.35, 0.15),
}


def preset_churn(topology, epochs: int, preset: str = "lively",
                 seed: int = 0, group_for=None, field=None,
                 first_epoch: int = 1):
    """A seeded Poisson :class:`~repro.network.churn.ChurnSchedule`
    from a named preset's death/birth rates.

    Newborn motes inherit the cluster of the node they are dropped
    next to (via ``group_for``), so GROUP BY roomid queries adopt them
    seamlessly — and when ``field`` supports enrollment (RoomField,
    ZipfEventField) they are enrolled into it, so they *sense* that
    cluster's activity too, like any mote deployed there from day one.
    """
    from .network.churn import ChurnSchedule

    try:
        death_rate, birth_rate = CHURN_PRESETS[preset]
    except KeyError:
        from .errors import ConfigurationError

        raise ConfigurationError(
            f"unknown churn preset {preset!r}; "
            f"choose from {sorted(CHURN_PRESETS)}"
        ) from None
    schedule = ChurnSchedule.poisson(
        topology, epochs,
        death_rate=death_rate, birth_rate=birth_rate,
        seed=seed, first_epoch=first_epoch, group_for=group_for,
    )
    enroll = getattr(field, "enroll", None)
    if enroll is not None:
        for event in schedule.births:
            if event.group is not None:
                enroll(event.node_id, event.group)
    return schedule


def churn_schedule(scenario: Scenario, epochs: int,
                   preset: str = "lively", seed: int = 0,
                   first_epoch: int = 1):
    """:func:`preset_churn` over a :class:`Scenario`'s deployment."""
    return preset_churn(scenario.network.topology, epochs,
                        preset=preset, seed=seed,
                        group_for=scenario.churn_group_for,
                        field=scenario.field, first_epoch=first_epoch)


def random_rooms_scenario(rooms: int = 6, sensors_per_room: int = 3,
                          seed: int = 0, attribute: str = "sound"
                          ) -> Scenario:
    """Randomised clustered deployment for property-based tests.

    Placement within rooms is random, so some draws are disconnected at
    the default radio range; those redraw deterministically (advancing
    the placement seed) until a connected layout appears.
    """
    from .errors import TopologyError

    rng = random.Random(seed)
    specs = []
    for index in range(rooms):
        specs.append(RoomSpec(
            name=f"Room{index}",
            x=(index % 3) * 40.0,
            y=(index // 3) * 40.0,
            width=25.0,
            height=25.0,
            sensors=sensors_per_room,
        ))
    topology = room_of = None
    for attempt in range(50):
        try:
            topology, room_of = room_topology(specs, radio_range=45.0,
                                              seed=seed + attempt * 10_007)
            break
        except TopologyError:
            continue
    if topology is None:
        raise TopologyError(
            f"no connected room placement found for seed {seed}"
        )
    field = RoomField(room_of, lo=0.0, hi=100.0,
                      room_step=rng.uniform(2.0, 8.0),
                      sensor_sigma=rng.uniform(0.5, 3.0), seed=seed)
    network = Network(
        topology,
        boards=_boards_for(room_of, attribute, field),
        group_of=room_of,
    )
    return Scenario(network=network, group_of=dict(room_of),
                    attribute=attribute, field=field)

"""Node placement and radio connectivity.

A :class:`Topology` is the physical layer input to routing: node
positions plus the radio range that induces the connectivity graph.
Placement helpers build the layouts used across the experiments —
grids, uniform-random fields, and the clustered "rooms" layout of the
paper's demo scenario.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import TopologyError

#: Conventional identifier of the sink / base station (s0 in the paper).
SINK_ID = 0


@dataclass
class Topology:
    """Node positions and the range-disc connectivity they induce.

    Attributes:
        positions: node id → (x, y) metres. Must include the sink.
        radio_range: maximum link distance in metres.
        sink_id: identifier of the base station.
    """

    positions: dict[int, tuple[float, float]]
    radio_range: float
    sink_id: int = SINK_ID
    _adjacency: dict[int, tuple[int, ...]] = field(init=False, repr=False,
                                                   default_factory=dict)

    def __post_init__(self) -> None:
        if self.sink_id not in self.positions:
            raise TopologyError(f"sink {self.sink_id} has no position")
        if self.radio_range <= 0:
            raise TopologyError("radio range must be positive")
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        ids = sorted(self.positions)
        adjacency: dict[int, list[int]] = {i: [] for i in ids}
        for index, a in enumerate(ids):
            for b in ids[index + 1:]:
                if self.distance(a, b) <= self.radio_range:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        self._adjacency = {i: tuple(ns) for i, ns in adjacency.items()}

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node ids including the sink, sorted."""
        return tuple(sorted(self.positions))

    @property
    def sensor_ids(self) -> tuple[int, ...]:
        """All node ids excluding the sink."""
        return tuple(i for i in self.node_ids if i != self.sink_id)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes in metres."""
        ax, ay = self.positions[a]
        bx, by = self.positions[b]
        return math.hypot(ax - bx, ay - by)

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Nodes within radio range of ``node_id``."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def is_connected(self) -> bool:
        """True when every node can reach the sink over radio links."""
        return len(self.reachable_from_sink()) == len(self.positions)

    def reachable_from_sink(self) -> set[int]:
        """Set of nodes (incl. sink) reachable from the sink."""
        seen = {self.sink_id}
        frontier = [self.sink_id]
        while frontier:
            current = frontier.pop()
            for nxt in self.neighbors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def add_node(self, node_id: int, position: tuple[float, float]) -> None:
        """Place a node (join injection); re-placing the sink is refused.

        A node id that already has a position is moved — how a killed
        mote re-enters the field at a fresh spot when it rejoins.

        Only the placed node's radio edges are recomputed (O(N), not the
        O(N²) full rebuild); every neighbour tuple stays in ascending-id
        order, exactly as :meth:`_rebuild_adjacency` builds it.
        """
        if node_id == self.sink_id:
            raise TopologyError("the sink is already deployed")
        if node_id < 0:
            raise TopologyError("node ids must be non-negative")
        if node_id in self.positions:
            self._unlink(node_id)
        self.positions[node_id] = (float(position[0]), float(position[1]))
        adjacency = self._adjacency
        linked = []
        for other in sorted(self.positions):
            if other == node_id:
                continue
            if self.distance(other, node_id) <= self.radio_range:
                linked.append(other)
                ns = adjacency[other]
                at = bisect.bisect_left(ns, node_id)
                adjacency[other] = ns[:at] + (node_id,) + ns[at:]
        adjacency[node_id] = tuple(linked)

    def remove_node(self, node_id: int) -> None:
        """Delete a node (failure injection); the sink cannot be removed."""
        if node_id == self.sink_id:
            raise TopologyError("cannot remove the sink")
        if node_id not in self.positions:
            raise TopologyError(f"unknown node {node_id}")
        del self.positions[node_id]
        self._unlink(node_id)

    def _unlink(self, node_id: int) -> None:
        """Drop ``node_id``'s radio edges: its neighbours forget it and
        its own adjacency entry goes (incremental counterpart of
        :meth:`_rebuild_adjacency`, O(degree) instead of O(N²))."""
        adjacency = self._adjacency
        for other in adjacency.pop(node_id, ()):
            adjacency[other] = tuple(
                n for n in adjacency[other] if n != node_id)


def grid_topology(side: int, spacing: float = 10.0,
                  radio_range: float | None = None) -> Topology:
    """A ``side × side`` sensor grid with the sink at the origin corner.

    Node ids are 1..side² in row-major order; the sink (id 0) sits at
    the grid's (0, 0) corner cell. The default radio range connects the
    4-neighbourhood plus diagonals, giving a multi-hop tree — the
    standard TAG evaluation layout.
    """
    if side < 1:
        raise TopologyError("grid side must be >= 1")
    if radio_range is None:
        radio_range = spacing * 1.5
    positions: dict[int, tuple[float, float]] = {SINK_ID: (0.0, 0.0)}
    node_id = 1
    for row in range(side):
        for col in range(side):
            positions[node_id] = (col * spacing, row * spacing)
            node_id += 1
    return Topology(positions=positions, radio_range=radio_range)


def linear_topology(n: int, spacing: float = 10.0) -> Topology:
    """A chain sink—1—2—…—n; worst-case depth, used in routing tests."""
    if n < 1:
        raise TopologyError("linear topology needs at least one sensor")
    positions = {SINK_ID: (0.0, 0.0)}
    positions.update({i: (i * spacing, 0.0) for i in range(1, n + 1)})
    return Topology(positions=positions, radio_range=spacing * 1.2)


def star_topology(n: int, radius: float = 10.0) -> Topology:
    """All sensors one hop from the sink (single-hop star)."""
    if n < 1:
        raise TopologyError("star topology needs at least one sensor")
    positions = {SINK_ID: (0.0, 0.0)}
    for i in range(1, n + 1):
        angle = 2.0 * math.pi * (i - 1) / n
        positions[i] = (radius * math.cos(angle), radius * math.sin(angle))
    return Topology(positions=positions, radio_range=radius * 1.05)


def random_topology(n: int, area: float = 100.0, radio_range: float = 25.0,
                    seed: int = 0, max_attempts: int = 200) -> Topology:
    """``n`` sensors placed uniformly in an ``area × area`` square.

    Redraws placements (deterministically, advancing the seed) until the
    network is connected, raising :class:`TopologyError` if no connected
    placement is found within ``max_attempts`` draws.
    """
    if n < 1:
        raise TopologyError("random topology needs at least one sensor")
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt * 7_919)
        positions = {SINK_ID: (area / 2.0, area / 2.0)}
        positions.update({
            i: (rng.uniform(0, area), rng.uniform(0, area))
            for i in range(1, n + 1)
        })
        topology = Topology(positions=positions, radio_range=radio_range)
        if topology.is_connected():
            return topology
    raise TopologyError(
        f"no connected placement of {n} nodes in {area}x{area} at range "
        f"{radio_range} after {max_attempts} attempts; increase the range"
    )


@dataclass(frozen=True)
class RoomSpec:
    """A rectangular room hosting some number of sensors.

    Attributes:
        name: Room / cluster label (the GROUP BY key of the demo query).
        x, y: Lower-left corner in metres.
        width, height: Room dimensions in metres.
        sensors: Number of sensors placed in this room.
    """

    name: str
    x: float
    y: float
    width: float
    height: float
    sensors: int

    def __post_init__(self) -> None:
        if self.sensors < 1:
            raise TopologyError(f"room {self.name!r} needs at least one sensor")
        if self.width <= 0 or self.height <= 0:
            raise TopologyError(f"room {self.name!r} has non-positive size")


def room_topology(rooms: Sequence[RoomSpec], radio_range: float = 30.0,
                  sink_position: tuple[float, float] | None = None,
                  seed: int = 0) -> tuple[Topology, dict[int, str]]:
    """Clustered placement: sensors scattered inside rectangular rooms.

    Returns the topology plus the ``node id → room name`` mapping that
    becomes the query's GROUP BY attribute (the paper's Configuration
    Panel clusters). The sink defaults to the centroid of all rooms.
    """
    if not rooms:
        raise TopologyError("room topology needs at least one room")
    names = [room.name for room in rooms]
    if len(set(names)) != len(names):
        raise TopologyError("room names must be unique")
    rng = random.Random(seed)
    positions: dict[int, tuple[float, float]] = {}
    room_of: dict[int, str] = {}
    node_id = 1
    for room in rooms:
        for _ in range(room.sensors):
            positions[node_id] = (
                room.x + rng.uniform(0, room.width),
                room.y + rng.uniform(0, room.height),
            )
            room_of[node_id] = room.name
            node_id += 1
    if sink_position is None:
        xs = [p[0] for p in positions.values()]
        ys = [p[1] for p in positions.values()]
        sink_position = (sum(xs) / len(xs), sum(ys) / len(ys))
    positions[SINK_ID] = sink_position
    topology = Topology(positions=positions, radio_range=radio_range)
    if not topology.is_connected():
        raise TopologyError(
            "room layout is not connected at the given radio range; "
            "increase radio_range or move rooms closer"
        )
    return topology, room_of


def group_counts(group_of: Mapping[int, str | int]) -> dict[str | int, int]:
    """Sensors per group — the cardinalities MINT learns at creation."""
    counts: dict[str | int, int] = {}
    for group in group_of.values():
        counts[group] = counts.get(group, 0) + 1
    return counts

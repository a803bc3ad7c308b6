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
from typing import Sequence

from ..errors import TopologyError

#: Conventional identifier of the sink / base station (s0 in the paper).
SINK_ID = 0


@dataclass
class Topology:
    """Node positions and the range-disc connectivity they induce.

    Two nodes are linked when ``math.hypot(ax - bx, ay - by) <=
    radio_range``. The links come from a uniform grid of cells at least
    as wide as the range: a node is tested only against the nodes in
    its own cell and the eight around it, so building the links costs
    O(N) tests on an evenly spread deployment instead of the N²/2 of an
    all-pairs loop, and placing one node costs O(1).

    Attributes:
        positions: node id → (x, y) metres. Must include the sink.
        radio_range: maximum link distance in metres.
        sink_id: identifier of the base station.

    Raises:
        TopologyError: the sink has no position, the radio range is
            not a positive finite number, or a coordinate is not
            finite.
    """

    positions: dict[int, tuple[float, float]]
    radio_range: float
    sink_id: int = SINK_ID
    _adjacency: dict[int, tuple[int, ...]] = field(init=False, repr=False,
                                                   default_factory=dict)
    #: Cell → ids binned there, and the cells' width (see _cell_width).
    _cells: dict[tuple[int, int], list[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _width: float = field(init=False, repr=False, compare=False,
                          default=1.0)

    def __post_init__(self) -> None:
        if self.sink_id not in self.positions:
            raise TopologyError(f"sink {self.sink_id} has no position")
        if not 0 < self.radio_range < math.inf:
            raise TopologyError(
                f"radio range must be a positive finite number, got "
                f"{self.radio_range!r}")
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        """Re-bin every position and re-derive every node's links, e.g.
        after ``positions`` was edited directly."""
        self._width = _cell_width(self.radio_range)
        cells: dict[tuple[int, int], list[int]] = {}
        for node_id, position in self.positions.items():
            cells.setdefault(self._cell(node_id, position), []).append(
                node_id)
        self._cells = cells
        self._adjacency = {node_id: self._linked(node_id)
                           for node_id in sorted(self.positions)}

    def _cell(self, node_id: int, position: tuple[float, float]
              ) -> tuple[int, int]:
        """The grid cell holding ``position``; a non-finite coordinate
        is refused by name (``math.floor`` cannot bin it)."""
        x, y = position
        if not (math.isfinite(x) and math.isfinite(y)):
            name = "sink" if node_id == self.sink_id else "node"
            raise TopologyError(
                f"{name} {node_id} has a non-finite position "
                f"({x!r}, {y!r})")
        width = self._width
        return math.floor(x / width), math.floor(y / width)

    def _linked(self, node_id: int) -> tuple[int, ...]:
        """The nodes within radio range of ``node_id``, in ascending id
        order, found in its cell and the eight around it.

        That scan cannot miss a pair the all-pairs rule links. The cells
        are a power of two wide, at least 1 and wider than
        ``radio_range · (1 + 2⁻²⁰)``. A linked pair's ``|ax - bx|``
        exceeds the range by at most the few ulps that the subtraction
        and ``hypot`` round off, so it is under one width. Dividing by
        a power of two that is at least 1 cannot overflow and is exact
        (off by under 2⁻¹⁰⁷⁴ where it underflows), so the pair's
        quotients differ by less than 1 and their floors, the cell
        indices, by at most 1 on each axis, on either side of any cell
        edge.
        """
        positions = self.positions
        radio_range = self.radio_range
        cells = self._cells
        hypot = math.hypot
        x, y = positions[node_id]
        cx, cy = self._cell(node_id, (x, y))
        linked = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for other in cells.get((gx, gy), ()):
                    if other == node_id:
                        continue
                    ox, oy = positions[other]
                    if hypot(x - ox, y - oy) <= radio_range:
                        linked.append(other)
        linked.sort()
        return tuple(linked)

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

        Only the placed node's radio edges are recomputed, from the
        cells around it; every neighbour tuple stays in ascending-id
        order, exactly as :meth:`_rebuild_adjacency` builds it.
        """
        if node_id == self.sink_id:
            raise TopologyError("the sink is already deployed")
        if node_id < 0:
            raise TopologyError("node ids must be non-negative")
        position = (float(position[0]), float(position[1]))
        cell = self._cell(node_id, position)
        if node_id in self.positions:
            self._unlink(node_id)
        self.positions[node_id] = position
        self._cells.setdefault(cell, []).append(node_id)
        adjacency = self._adjacency
        linked = adjacency[node_id] = self._linked(node_id)
        for other in linked:
            ns = adjacency[other]
            at = bisect.bisect_left(ns, node_id)
            adjacency[other] = ns[:at] + (node_id,) + ns[at:]

    def remove_node(self, node_id: int) -> None:
        """Delete a node (failure injection); the sink cannot be removed."""
        if node_id == self.sink_id:
            raise TopologyError("cannot remove the sink")
        if node_id not in self.positions:
            raise TopologyError(f"unknown node {node_id}")
        self._unlink(node_id)
        del self.positions[node_id]

    def _unlink(self, node_id: int) -> None:
        """Drop ``node_id``'s radio edges and its cell entry: its
        neighbours forget it and its own adjacency entry goes
        (incremental counterpart of :meth:`_rebuild_adjacency`,
        O(degree))."""
        cell = self._cell(node_id, self.positions[node_id])
        members = self._cells[cell]
        members.remove(node_id)
        if not members:
            del self._cells[cell]
        adjacency = self._adjacency
        for other in adjacency.pop(node_id, ()):
            adjacency[other] = tuple(
                n for n in adjacency[other] if n != node_id)


def _cell_width(radio_range: float) -> float:
    """The grid's cell width: the smallest power of two that is at
    least 1 and above ``radio_range · (1 + 2⁻²⁰)``, or inf when that
    power exceeds the largest float (one cell then holds every node)."""
    mantissa, exponent = math.frexp(radio_range)
    if mantissa > 1.0 - 2.0 ** -20:
        exponent += 1
    if exponent > 1023:
        return math.inf
    return math.ldexp(1.0, max(exponent, 0))


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

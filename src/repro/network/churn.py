"""Churn schedules: scripted and stochastic node deaths *and* births.

Sensor deployments lose nodes — batteries die, hardware fails — and
gain them — batteries get swapped, extra motes get scattered. A
:class:`ChurnSchedule` is an ordered script of :class:`ChurnEvent`
deaths and births applied against the simulator's lifecycle hooks
(:meth:`~repro.network.simulator.Network.kill_node` /
:meth:`~repro.network.simulator.Network.join_node`), plus a Poisson
generator that draws both processes from one seed so experiments get
reproducible "messy fleet" behaviour.

The sink is never a victim: it is the mains-powered base station, and
scheduling its death is a configuration error, not an experiment.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from ..errors import ConfigurationError, TopologyError
from .simulator import Network
from .topology import SINK_ID, Topology


class ChurnKind(enum.Enum):
    """What a scheduled churn event does to the fleet."""

    DEATH = "death"
    BIRTH = "birth"


@dataclass(frozen=True)
class ChurnEvent:
    """One scripted transition at the start of ``epoch``.

    Births carry the placement (and optionally the cluster) of the new
    mote; deaths need only the victim id.
    """

    epoch: int
    kind: ChurnKind
    node_id: int
    position: tuple[float, float] | None = None
    group: Hashable = None

    def __post_init__(self) -> None:
        if self.kind is ChurnKind.BIRTH and self.position is None:
            raise ConfigurationError(
                f"birth of node {self.node_id} needs a position")


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (λ is small here; exactness over speed)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


@dataclass
class ChurnSchedule:
    """An ordered script of node deaths and births.

    ``events`` is a plain list: callers may append, remove or replace
    events between epochs, and :meth:`due` reads it afresh each time.
    """

    events: list[ChurnEvent] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    @classmethod
    def random_deaths(cls, node_ids: Iterable[int], count: int,
                      epochs: int, seed: int = 0, first_epoch: int = 1,
                      sink_id: int = SINK_ID) -> "ChurnSchedule":
        """``count`` distinct non-sink victims at random epochs in
        ``[first_epoch, epochs)``, a deaths-only schedule for failure
        experiments. The sink is excluded from the victim pool."""
        pool = sorted(i for i in node_ids if i != sink_id)
        if count > len(pool):
            raise ConfigurationError(
                f"cannot kill {count} of {len(pool)} non-sink nodes"
            )
        if first_epoch >= epochs and count > 0:
            raise ConfigurationError("no epoch available for failures")
        rng = random.Random(seed)
        victims = rng.sample(pool, count)
        deaths = sorted(
            (rng.randrange(first_epoch, epochs), v) for v in victims
        )
        return cls([ChurnEvent(epoch, ChurnKind.DEATH, node)
                    for epoch, node in deaths])

    @classmethod
    def poisson(cls, topology: Topology, epochs: int,
                death_rate: float = 0.05, birth_rate: float = 0.02,
                seed: int = 0, first_epoch: int = 1,
                group_for: Callable[[int], Hashable] | None = None,
                min_population: int | None = None) -> "ChurnSchedule":
        """Draw deaths and births as independent Poisson processes.

        ``death_rate`` / ``birth_rate`` are expected events per epoch
        for the whole fleet. Victims are sampled without replacement
        from the current (scheduled) population, never the sink, and
        never below ``min_population`` survivors (default: half the
        initial fleet, at least two). Newborns get fresh ids above the
        highest ever used and are dropped next to a surviving anchor
        node — within ~70 % of the radio range, so they can hear the
        deployment — inheriting the anchor's cluster via ``group_for``.

        The floor counts *scheduled* survivors: motes no event of this
        schedule has killed. It does not count the motes that can still
        reach the sink. A death that partitions the routing tree
        strands its live subtree, which :meth:`Network.kill_node`
        detaches from the fleet, so the motes a deployment can hear
        may fall below the floor, even to none (``harsh`` churn on a
        6×6 grid does within 600 epochs at most seeds). Counting
        reachable motes would need the tree while drawing and would
        change every schedule drawn so far, so the floor keeps this
        meaning.
        """
        if epochs <= first_epoch:
            raise ConfigurationError("no epoch available for churn")
        rng = random.Random(seed)
        alive = {i for i in topology.node_ids if i != topology.sink_id}
        if min_population is None:
            min_population = max(2, len(alive) // 2)
        next_id = max(topology.node_ids) + 1
        positions = dict(topology.positions)
        events: list[ChurnEvent] = []
        for epoch in range(first_epoch, epochs):
            for _ in range(_poisson(rng, birth_rate)):
                anchor = rng.choice(sorted(alive) or
                                    [topology.sink_id])
                ax, ay = positions[anchor]
                angle = rng.uniform(0.0, 2.0 * math.pi)
                radius = rng.uniform(0.2, 0.7) * topology.radio_range
                position = (ax + radius * math.cos(angle),
                            ay + radius * math.sin(angle))
                group = group_for(anchor) if group_for else None
                events.append(ChurnEvent(epoch, ChurnKind.BIRTH, next_id,
                                         position=position, group=group))
                positions[next_id] = position
                alive.add(next_id)
                next_id += 1
            deaths = min(_poisson(rng, death_rate),
                         max(0, len(alive) - min_population))
            for victim in rng.sample(sorted(alive), deaths):
                events.append(ChurnEvent(epoch, ChurnKind.DEATH, victim))
                alive.discard(victim)
        return cls(sorted(events, key=lambda e: (e.epoch, e.kind.value,
                                                 e.node_id)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def deaths(self) -> tuple[ChurnEvent, ...]:
        """Every scheduled death, in script order."""
        return tuple(e for e in self.events if e.kind is ChurnKind.DEATH)

    @property
    def births(self) -> tuple[ChurnEvent, ...]:
        """Every scheduled birth, in script order."""
        return tuple(e for e in self.events if e.kind is ChurnKind.BIRTH)

    @property
    def last_epoch(self) -> int:
        """Epoch of the final scheduled event (-1 when empty)."""
        return max((e.epoch for e in self.events), default=-1)

    def due(self, epoch: int) -> tuple[ChurnEvent, ...]:
        """Events scheduled for exactly this epoch, in script order."""
        return tuple(e for e in self.events if e.epoch == epoch)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, network: Network, epoch: int,
              board_for: "Callable[[int], object] | None" = None,
              ) -> tuple[ChurnEvent, ...]:
        """Apply every event due at ``epoch``; returns those applied.

        Deaths batch — the tree repairs once after the last victim, not
        per victim. Births attach one by one (each needs the repaired
        tree to pick a parent); a birth whose whole neighbourhood died
        is skipped, exactly as a mote scattered out of range stays
        silent. ``board_for(node_id)`` supplies the newborn's sensor
        board; without one the node joins but cannot be sampled.
        """
        due = self.due(epoch)
        born_now = {e.node_id for e in due if e.kind is ChurnKind.BIRTH}
        victims = [e for e in due if e.kind is ChurnKind.DEATH
                   and e.node_id not in born_now
                   and e.node_id in network.nodes
                   and network.nodes[e.node_id].alive]
        applied: list[ChurnEvent] = []
        for event in victims[:-1]:
            network.kill_node(event.node_id, repair=False)
            applied.append(event)
        if victims:
            network.kill_node(victims[-1].node_id, repair=True)
            applied.append(victims[-1])
        for event in due:
            if event.kind is not ChurnKind.BIRTH:
                continue
            board = board_for(event.node_id) if board_for else None
            try:
                network.join_node(event.node_id, event.position,
                                  board=board, group=event.group)
            except TopologyError:
                continue
            applied.append(event)
        # A mote born and lost in the same epoch (the generator allows
        # it) still dies: its death applies after the join, not never.
        for event in due:
            if (event.kind is ChurnKind.DEATH
                    and event.node_id in born_now
                    and event.node_id in network.nodes
                    and network.nodes[event.node_id].alive):
                network.kill_node(event.node_id)
                applied.append(event)
        return tuple(applied)

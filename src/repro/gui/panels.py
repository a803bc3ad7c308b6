"""The Display Panel model of the KSpot GUI (§II, Figure 3).

The classes hold exactly the state the Swing Display Panel shows: the
map, the sensor positions, the cluster links and the ranked KSpot
bullets. They are plain models: the ASCII renderer (or any other
front-end) consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..errors import ValidationError
from ..core.results import EpochResult


@dataclass(frozen=True)
class KSpotBullet:
    """One red ranking bullet on the map: a cluster and its rank.

    "the panel highlights the K-highest ranked clusters by utilizing a
    red bullet, coined the KSpot Bullet, which projects the rank of the
    given cluster at any given time instance."
    """

    rank: int
    cluster: Hashable
    score: float

    @property
    def label(self) -> str:
        """The rank digit drawn inside the bullet."""
        return f"({self.rank})"


@dataclass
class DisplayPanel:
    """The map display: floor plan, sensor positions, cluster links,
    and the continuously re-ranked KSpot bullets."""

    width: float
    height: float
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    cluster_of: dict[int, Hashable] = field(default_factory=dict)
    bullets: tuple[KSpotBullet, ...] = ()
    #: Stand-in for the JPG floor plan: a caption drawn as the header.
    floor_plan_caption: str = "floor plan"

    def place(self, node_id: int, x: float, y: float) -> None:
        """Drag-and-drop a sensor onto the map."""
        if not (0 <= x <= self.width and 0 <= y <= self.height):
            raise ValidationError(
                f"({x}, {y}) is outside the {self.width}x{self.height} map"
            )
        self.positions[node_id] = (x, y)

    def cluster_members(self, cluster: Hashable) -> tuple[int, ...]:
        """Sorted sensors of one cluster (joined by black lines)."""
        return tuple(sorted(
            node_id for node_id, c in self.cluster_of.items() if c == cluster
        ))

    def cluster_centroid(self, cluster: Hashable) -> tuple[float, float]:
        """Where the cluster's bullet is drawn."""
        members = [self.positions[n] for n in self.cluster_members(cluster)
                   if n in self.positions]
        if not members:
            raise ValidationError(f"cluster {cluster!r} has no placed sensors")
        return (sum(p[0] for p in members) / len(members),
                sum(p[1] for p in members) / len(members))

    def update_ranking(self, result: EpochResult) -> tuple[KSpotBullet, ...]:
        """Re-rank the bullets from a fresh epoch result."""
        self.bullets = tuple(
            KSpotBullet(rank=rank, cluster=item.key, score=item.score)
            for rank, item in enumerate(result.items, start=1)
        )
        return self.bullets

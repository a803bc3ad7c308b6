"""Centralized baseline: every raw reading travels to the sink.

The "not cost effective" strawman of §I: no in-network aggregation at
all — each node forwards its own reading plus every reading received
from its children, so a reading pays one message-slot per hop between
its origin and the sink. The sink evaluates the query with complete
information, every reading that arrives (this doubles as the oracle
the exactness tests use).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..errors import ValidationError
from ..network.messages import QueryMessage, RawReadingsMessage, Reading
from ..network.simulator import Network
from .aggregates import Aggregate
from .participants import Participants
from .results import EpochResult, oracle_top_k

GroupKey = Hashable


class Centralized:
    """Raw-forwarding collection with sink-side evaluation."""

    name = "centralized"

    def __init__(self, network: Network, aggregate: Aggregate,
                 k: int | None,
                 group_of: Mapping[int, GroupKey],
                 attribute: str = "sound",
                 window_epochs: int | None = None,
                 where_fn=None):
        if k is not None and k < 1:
            raise ValidationError("k must be >= 1 (or None for all groups)")
        self.where_fn = where_fn
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.attribute = attribute
        self.group_of = dict(group_of)
        self.window_epochs = window_epochs
        self._disseminated = False
        #: The alive participants and their epoch's readings.
        self._participants = Participants(network)

    def run_epoch(self) -> EpochResult:
        """Collect every reading, evaluate at the sink."""
        if not self._disseminated:
            with self.network.stats.phase("dissemination"):
                self.network.flood_down(QueryMessage(query_id=1))
            self._disseminated = True
        readings = self._participants.readings(
            self.group_of, self.attribute, self.aggregate,
            self.window_epochs, self.where_fn)

        buffers: dict[int, list[Reading]] = {}
        arrived: set[int] = set()
        with self.network.stats.phase("collection"):
            for node_id in self.network.converge_cast_order():
                batch: list[Reading] = []
                if node_id in readings:
                    batch.append(Reading(node_id, readings[node_id]))
                for child in self.network.tree.children(node_id):
                    batch.extend(buffers.get(child, ()))
                message = RawReadingsMessage(
                    epoch=self.network.epoch, readings=tuple(batch))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    arrived.update(reading.node_id for reading in batch)
                else:
                    buffers[node_id] = batch
        if len(arrived) != len(readings):
            # The batches of motes below a dead relay never arrive. The
            # survivors keep the readings' order, so sums stay bitwise.
            readings = {node_id: value for node_id, value in readings.items()
                        if node_id in arrived}

        k = self.k if self.k is not None else max(1, len(
            {self.group_of[n] for n in readings} or {0}))
        items = (oracle_top_k(readings, self.group_of, self.aggregate, k)
                 if readings else ())
        result = EpochResult(
            epoch=self.network.epoch,
            items=items,
            exact=True,
            algorithm=self.name,
        )
        self.network.advance_epoch()
        return result

    def run(self, epochs: int) -> list[EpochResult]:
        """``epochs`` consecutive collection rounds."""
        return [self.run_epoch() for _ in range(epochs)]

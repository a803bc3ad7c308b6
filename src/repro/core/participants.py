"""Acquisition: the alive sensors a query reads each epoch, and what
each of them contributes.

A query's participants are the alive members of its static ``WHERE``
pre-filter, a node id → group map. Which of them the sink can hear is
the network's (:meth:`~repro.network.simulator.Network.sink_roots`).
Every epoch engine (MINT, TAG, FILA, CENTRALIZED, NAIVE) and the
historic plans' radio-silent sampling acquire through one
:class:`Participants` each, in one
:meth:`~repro.network.simulator.Network.read_many` call per epoch: a
member contributes its reading or, under ``WITH HISTORY``, the
aggregate of its last readings, unless a dynamic ``WHERE`` drops it.

Switch-and-prove: ``read_many`` itself is the one switch over the
sensing. On a deployment built inside the oracle
``hotpath.reference_path()`` it reads each mote through
:meth:`~repro.network.node.SensorNode.read`; on one whose
``Network.hot`` is set it samples the column in batches, and
:meth:`Participants.partials` reuses lifted partials through a memo.
``tests/test_hotpath_equivalence.py`` holds the two to identical
readings, sensing charges, answers and traffic.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from ..network.simulator import Network
from .aggregates import Aggregate, Partial

#: Lifted partials the hot memo holds before it starts over. Readings
#: are ADC-quantized, so a plain reading column recurs over a few
#: hundred values; window aggregates need not.
_LIFTED_VALUES = 4096


class Participants:
    """The alive members of a membership map, memoized, and their
    epoch's contributions.

    The members' id tuple is memoized by the identity of the network's
    alive tuple, which a hot network rebuilds only on a topology
    change, and of the map, which the engine rebinds when it adopts a
    newborn. When every alive sensor is a member the alive tuple itself
    is read. The network keys its sampling plans and readings rows by
    the tuple's content, so concurrent sessions with equal membership
    share them. None as the map means every alive sensor.
    """

    __slots__ = ("network", "_memo", "_lifted")

    def __init__(self, network: Network):
        self.network = network
        self._memo: tuple | None = None
        #: Hot networks only: (aggregate, reading → lifted partial).
        self._lifted: tuple[Aggregate, dict[float, Partial]] | None = None

    def _alive_members(self, members: Mapping[int, Hashable] | None
                       ) -> tuple[int, ...]:
        alive = self.network.alive_sensor_ids()
        if members is None:
            return alive
        memo = self._memo
        if memo is not None and memo[0] is alive and memo[1] is members:
            return memo[2]
        result = tuple(n for n in alive if n in members)
        if len(result) == len(alive):
            result = alive
        self._memo = (alive, members, result)
        return result

    def readings(self, members: Mapping[int, Hashable] | None,
                 attribute: str, aggregate: Aggregate | None = None,
                 window: int | None = None,
                 where: Callable[[int, Hashable, float], bool] | None = None
                 ) -> Mapping[int, float]:
        """Every alive member's value this epoch, in id order.

        Each member samples ``attribute`` once. With ``window`` set it
        contributes the ``aggregate`` of its last ``window`` readings
        instead, reduced locally (the "local search and filtering" of
        §III-B). A dynamic ``where(node, group, value)`` keeps only the
        members it holds for. Without either the mapping is
        ``read_many``'s row, shared with the epoch's other readers, so
        treat it as read-only.
        """
        values = self.network.read_many(self._alive_members(members),
                                        attribute)
        if window is None and where is None:
            return values
        nodes = self.network.nodes
        op = aggregate.func.lower() if window is not None else None
        kept: dict[int, float] = {}
        for node_id, value in values.items():
            if window is not None:
                value = nodes[node_id].window_for(attribute).aggregate(
                    op, last_n=window)
            if where is None or where(node_id, members[node_id], value):
                kept[node_id] = value
        return kept

    def partials(self, members: Mapping[int, Hashable] | None,
                 attribute: str, aggregate: Aggregate,
                 window: int | None = None,
                 where: Callable[[int, Hashable, float], bool] | None = None
                 ) -> dict[int, Partial]:
        """:meth:`readings` lifted into partials of ``aggregate``.

        Partials are immutable, so on a hot network equal values share
        one lifted partial, across members and epochs.
        """
        values = self.readings(members, attribute, aggregate, window, where)
        from_value = aggregate.from_value
        if not self.network.hot:
            return {node_id: from_value(value)
                    for node_id, value in values.items()}
        lifted = self._lifted
        if (lifted is None or lifted[0] is not aggregate
                or len(lifted[1]) > _LIFTED_VALUES):
            lifted = self._lifted = (aggregate, {})
        memo = lifted[1]
        cached = memo.get
        contributions: dict[int, Partial] = {}
        for node_id, value in values.items():
            partial = cached(value)
            if partial is None:
                partial = memo[value] = from_value(value)
            contributions[node_id] = partial
        return contributions

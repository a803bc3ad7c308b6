"""The alive sensors a query reads each epoch — the alive members of
its static ``WHERE`` pre-filter, a node id → group map. Which of them
the sink can hear is the network's
(:meth:`~repro.network.simulator.Network.sink_roots`)."""

from __future__ import annotations

from typing import Hashable, Mapping

from ..network.simulator import Network


class Participants:
    """The alive members of a membership map, memoized.

    The memo is keyed by the identity of the network's alive tuple,
    which a hot network rebuilds only on a topology change, and of the
    map, which the engine rebinds when it adopts a newborn. When every
    alive sensor is a member the alive tuple itself is returned, and a
    subset is the network's one tuple of that content
    (:meth:`~repro.network.simulator.Network.shared_ids`), so
    concurrent sessions with equal membership share the network's
    identity-keyed sampling plan and readings row. None as the map
    means every alive sensor.
    """

    __slots__ = ("network", "_memo")

    def __init__(self, network: Network):
        self.network = network
        self._memo: tuple | None = None

    def __call__(self, members: Mapping[int, Hashable] | None
                 ) -> tuple[int, ...]:
        alive = self.network.alive_sensor_ids()
        if members is None:
            return alive
        memo = self._memo
        if memo is not None and memo[0] is alive and memo[1] is members:
            return memo[2]
        result = tuple(n for n in alive if n in members)
        result = (alive if len(result) == len(alive)
                  else self.network.shared_ids(result))
        self._memo = (alive, members, result)
        return result

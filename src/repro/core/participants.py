"""The alive sensors a query reads each epoch — the alive members of
its static ``WHERE`` pre-filter, a node id → group map — and which of
them the sink can hear."""

from __future__ import annotations

from typing import Hashable, Mapping

from ..network.simulator import Network


class Participants:
    """The alive members of a membership map, memoized.

    The memo is keyed by the identity of the network's alive tuple,
    which a hot network rebuilds only on a topology change, and of the
    map, which the engine rebinds when it adopts a newborn. When every
    alive sensor is a member the alive tuple itself is returned, so
    concurrent sessions share the network's identity-keyed sampling
    plan and readings row. None as the map means every alive sensor.
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
        if len(result) == len(alive):
            result = alive
        self._memo = (alive, members, result)
        return result


def sink_roots(plan: tuple) -> dict[int, int]:
    """Each row of a converge-cast plan whose reports reach the sink,
    mapped to the sink child they arrive through, root-first.

    The plan read in reverse is root-first; a row reaches the sink
    when its parent is the sink or a row that reaches it. So the live
    descendants of a dead relay (a tree left unrepaired, or a node
    killed without an event) are left out: nothing they send arrives.
    Every row reaches the sink exactly when the result is as long as
    the plan.
    """
    roots: dict[int, int] = {}
    for node_id, parent, _, to_sink in reversed(plan):
        root = node_id if to_sink else roots.get(parent)
        if root is not None:
            roots[node_id] = root
    return roots

"""WSN substrate: topology, routing tree, radio, energy, epoch simulator.

This package is the software stand-in for the paper's hardware testbed
(MICA2 motes, CC1000 radio, MIB520 sink). Algorithms in
:mod:`repro.core` never touch sockets or hardware — they call the
:class:`repro.network.simulator.Network` primitives (``send_up``,
``broadcast_down``) and the simulator charges messages, packets, bytes
and joules to the statistics ledgers that the demo's System Panel
displays.
"""

from .churn import ChurnEvent, ChurnKind, ChurnSchedule
from .energy import EnergyLedger, EnergyModel
from .events import TopologyEvent, TopologyEventKind
from .lifetime import LifetimeReport, simulate_lifetime
from .link import RadioModel
from .node import SensorNode
from .simulator import Network
from .stats import NetworkStats, PhaseSnapshot
from .topology import (
    Topology,
    grid_topology,
    linear_topology,
    random_topology,
    room_topology,
    star_topology,
)
from .tree import RoutingTree

__all__ = [
    "Topology",
    "grid_topology",
    "linear_topology",
    "random_topology",
    "room_topology",
    "star_topology",
    "RoutingTree",
    "ChurnEvent",
    "ChurnKind",
    "ChurnSchedule",
    "TopologyEvent",
    "TopologyEventKind",
    "RadioModel",
    "EnergyModel",
    "EnergyLedger",
    "LifetimeReport",
    "simulate_lifetime",
    "SensorNode",
    "Network",
    "NetworkStats",
    "PhaseSnapshot",
]

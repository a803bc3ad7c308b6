"""WSN substrate: topology, routing tree, energy, epoch simulator.

This package is the software stand-in for the paper's hardware testbed
(MICA2 motes, CC1000 radio, MIB520 sink). Algorithms in
:mod:`repro.core` never touch sockets or hardware — they call the
:class:`repro.network.simulator.Network` primitives (``send_up``,
``broadcast_down``) and the simulator charges messages, packets, bytes
and joules to the statistics ledgers that the demo's System Panel
displays. The radio is lossless: every packet takes one transmission,
priced by :class:`~repro.network.energy.EnergyModel` at its one air
rate, and a topology's ``radio_range`` decides who hears whom.
"""

from .churn import ChurnEvent, ChurnKind, ChurnSchedule
from .energy import EnergyLedger, EnergyModel
from .events import TopologyEvent, TopologyEventKind
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
    "EnergyModel",
    "EnergyLedger",
    "SensorNode",
    "Network",
    "NetworkStats",
    "PhaseSnapshot",
]

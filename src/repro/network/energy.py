"""MICA2-calibrated energy model and per-node ledgers.

The demo's headline metric is the energy the System Panel shows being
saved. The model follows the first-order radio accounting used across
the TAG/TinyDB evaluation lineage: energy is linear in transmitted and
received bytes, with datasheet current draws.

MICA2 (CC1000 @ 3 V): transmit ≈ 27 mA, receive/listen ≈ 10 mA, at
38.4 kbit/s. That works out to about 16.9 µJ per transmitted byte and
6.3 µJ per received byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import joules_from_current


@dataclass(frozen=True)
class EnergyModel:
    """Datasheet-derived energy coefficients.

    Attributes:
        voltage: Supply voltage (2×AA ≈ 3 V).
        tx_current_a: Radio transmit current draw.
        rx_current_a: Radio receive current draw.
        bitrate_bps: Radio data rate used to convert current into J/byte.
        idle_joules_per_epoch: Duty-cycled baseline per node per epoch
            (MCU sleep + periodic listen); identical across algorithms
            so it never changes a comparison, but it keeps lifetime
            numbers honest.
        battery_joules: Usable battery capacity for lifetime estimates
            (2×AA ≈ 2850 mAh at 3 V derated to ~18 kJ usable).
    """

    voltage: float = 3.0
    tx_current_a: float = 0.027
    rx_current_a: float = 0.010
    bitrate_bps: float = 38_400.0
    idle_joules_per_epoch: float = 1e-3
    battery_joules: float = 18_000.0

    def __post_init__(self) -> None:
        if min(self.voltage, self.tx_current_a, self.rx_current_a,
               self.bitrate_bps) <= 0:
            raise ConfigurationError("energy model parameters must be positive")
        if self.idle_joules_per_epoch < 0 or self.battery_joules <= 0:
            raise ConfigurationError("bad idle/battery configuration")

    @property
    def tx_joules_per_byte(self) -> float:
        """Energy to put one byte on the air."""
        return joules_from_current(self.tx_current_a, self.voltage,
                                   8.0 / self.bitrate_bps)

    @property
    def rx_joules_per_byte(self) -> float:
        """Energy to receive one byte."""
        return joules_from_current(self.rx_current_a, self.voltage,
                                   8.0 / self.bitrate_bps)


@dataclass
class EnergyLedger:
    """Per-node joule accounting, split by activity."""

    tx: float = 0.0
    rx: float = 0.0
    sensing: float = 0.0
    idle: float = 0.0

    @property
    def total(self) -> float:
        """All joules drawn so far."""
        return self.tx + self.rx + self.sensing + self.idle

    def charge_tx(self, joules: float) -> None:
        self.tx += joules

    def charge_rx(self, joules: float) -> None:
        self.rx += joules


def lifetime_epochs(model: EnergyModel, per_epoch_joules: float) -> float:
    """Epochs until a node at the given burn rate exhausts its battery.

    The network's lifetime is conventionally the lifetime of its
    *bottleneck* node (the first to die — usually a sink neighbour).
    """
    if per_epoch_joules <= 0:
        return float("inf")
    return model.battery_joules / per_epoch_joules

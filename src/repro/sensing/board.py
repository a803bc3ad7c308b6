"""The sensor-board model a node carries.

A :class:`SensorBoard` binds MTS310 modalities to field generators and
serves quantized samples; the node that reads it charges each sample's
energy to its own ledger
(:meth:`~repro.network.node.SensorNode.book_sample`). This is the
software stand-in for the physical MTS310 expansion board of the demo
(§IV-A).
"""

from __future__ import annotations

from typing import Mapping

from ..errors import ConfigurationError, ValidationError
from .generators import FieldGenerator
from .modalities import Modality, get_modality


class SensorBoard:
    """Per-node sensing hardware: attribute name → field generator."""

    def __init__(self, fields: Mapping[str, FieldGenerator],
                 quantize: bool = True):
        """Args:
            fields: Channel name → generator producing its readings.
            quantize: Snap readings to the ADC grid (the physical
                behaviour). Pinned textbook scenarios disable it so
                hand-picked values round-trip exactly.
        """
        if not fields:
            raise ConfigurationError("a sensor board needs at least one channel")
        self._quantize = quantize
        self._fields: dict[str, FieldGenerator] = {}
        self._modalities: dict[str, Modality] = {}
        for name, generator in fields.items():
            self._fields[name] = generator
            self._modalities[name] = get_modality(name)

    @property
    def attributes(self) -> tuple[str, ...]:
        """The channels this board can sample, sorted by name."""
        return tuple(sorted(self._fields))

    def modality(self, attribute: str) -> Modality:
        """The modality metadata for a channel on this board."""
        try:
            return self._modalities[attribute]
        except KeyError:
            raise ValidationError(
                f"board has no {attribute!r} channel; available: "
                f"{', '.join(self.attributes)}"
            ) from None

    def channel(self, attribute: str) -> tuple[FieldGenerator, Modality, bool]:
        """The (field, modality, quantize) triple behind a channel.

        The columnar kernel groups nodes by this triple so one
        :meth:`FieldGenerator.batch_values` call plus one vectorized
        quantize (or one clamp per value) serves every node sharing the
        same physical channel
        (:meth:`repro.network.simulator.Network.read_many`).
        """
        modality = self.modality(attribute)
        return self._fields[attribute], modality, self._quantize

    def sample(self, attribute: str, node_id: int, epoch: int) -> float:
        """Acquire one quantized reading.

        Args:
            attribute: Channel to sample.
            node_id: Identity of the sampling node (fields are node-aware).
            epoch: Current epoch number.
        """
        modality = self.modality(attribute)
        if self._quantize:
            return self._fields[attribute].bounded(modality, node_id, epoch)
        return modality.clamp(self._fields[attribute].value(node_id, epoch))

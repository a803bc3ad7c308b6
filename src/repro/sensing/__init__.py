"""Sensing substrate: MTS310 modalities and synthetic field generators.

The demo hardware attaches an MTS310 multi-sensor board to each MICA2
mote. This package models that board (:mod:`repro.sensing.modalities`,
:mod:`repro.sensing.board`) and, because no live conference sound field
is available, provides deterministic synthetic field generators
(:mod:`repro.sensing.generators`).
"""

from .board import SensorBoard
from .modalities import MODALITIES, Modality, get_modality
from .generators import (
    ConstantField,
    DiurnalField,
    FieldGenerator,
    GaussianNoiseField,
    RandomWalkField,
    RoomField,
    TableField,
    UniformRandomField,
    ZipfEventField,
)

__all__ = [
    "SensorBoard",
    "MODALITIES",
    "Modality",
    "get_modality",
    "FieldGenerator",
    "ConstantField",
    "UniformRandomField",
    "GaussianNoiseField",
    "RandomWalkField",
    "DiurnalField",
    "ZipfEventField",
    "RoomField",
    "TableField",
]

"""Physical and temporal units used throughout the simulator.

The query language expresses epoch durations and history intervals in
human units (``1 min``, ``3 months``); the simulator works in integer
epochs and seconds. This module centralises the conversions so every
subsystem agrees on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

#: Seconds per supported time unit. Months follow the 30-day convention
#: common in sliding-window stream systems.
_SECONDS_PER_UNIT = {
    "ms": 0.001,
    "millisecond": 0.001,
    "milliseconds": 0.001,
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "min": 60.0,
    "mins": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "h": 3600.0,
    "hour": 3600.0,
    "hours": 3600.0,
    "day": 86400.0,
    "days": 86400.0,
    "week": 604800.0,
    "weeks": 604800.0,
    "month": 2592000.0,
    "months": 2592000.0,
}


@dataclass(frozen=True)
class Duration:
    """An exact duration expressed as ``amount`` of ``unit``.

    >>> Duration(1, "min").seconds
    60.0
    >>> Duration(3, "months").epochs(epoch_seconds=86400.0)
    90
    """

    amount: float
    unit: str

    def __post_init__(self) -> None:
        if self.unit.lower() not in _SECONDS_PER_UNIT:
            raise ValidationError(f"unknown time unit: {self.unit!r}")
        if self.amount < 0:
            raise ValidationError("durations must be non-negative")

    @property
    def seconds(self) -> float:
        """The duration in seconds."""
        return self.amount * _SECONDS_PER_UNIT[self.unit.lower()]

    def epochs(self, epoch_seconds: float) -> int:
        """Number of whole epochs this duration spans (at least 1).

        The paper's queries buffer history "in a sliding window fashion";
        a window shorter than one epoch still holds the current epoch.
        """
        if epoch_seconds <= 0:
            raise ValidationError("epoch duration must be positive")
        return max(1, round(self.seconds / epoch_seconds))

    def __str__(self) -> str:
        amount = int(self.amount) if self.amount == int(self.amount) else self.amount
        return f"{amount} {self.unit}"


#: Convenience aliases for energy arithmetic (joules).
MILLIJOULE = 1e-3
MICROJOULE = 1e-6


def joules_from_current(current_amps: float, volts: float, seconds: float) -> float:
    """Energy drawn by a component pulling ``current_amps`` for ``seconds``.

    MICA2 components are specified by current draw at 3 V in their
    datasheets, which is how the energy model is calibrated.
    """
    if current_amps < 0 or volts < 0 or seconds < 0:
        raise ValidationError("current, voltage and time must be non-negative")
    return current_amps * volts * seconds

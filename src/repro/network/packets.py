"""TinyOS wire-format accounting.

The CC1000 stack on MICA2 ships ``TOS_Msg`` frames: a fixed header plus
at most 29 bytes of application payload. A logical message larger than
the MTU is fragmented into multiple packets, each paying the header
again. Modelling this matters: the savings KSpot's System Panel reports
are *packet* savings, and a view update that shrinks from 12 tuples to
3 crosses packet boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ValidationError

#: Application payload per TOS_Msg frame (TinyOS default).
PAYLOAD_MTU = 29

#: Frame overhead: destination address (2), AM type (1), group (1),
#: length (1) and CRC (2) — 7 bytes per packet on the air.
HEADER_BYTES = 7


@dataclass(frozen=True)
class PacketCount:
    """Cost of shipping one logical message over one hop.

    Attributes:
        packets: TOS_Msg frames required.
        payload_bytes: application bytes carried.
        air_bytes: total bytes on the air (payload + per-packet headers).
    """

    packets: int
    payload_bytes: int
    air_bytes: int


def fragment(payload_bytes: int, mtu: int = PAYLOAD_MTU,
             header_bytes: int = HEADER_BYTES) -> PacketCount:
    """Fragment a logical payload into TOS_Msg frames.

    A zero-byte logical message (a pure signal, e.g. an empty view
    update standing in for "no change") still costs one frame.

    >>> fragment(29).packets
    1
    >>> fragment(30).packets
    2
    """
    if payload_bytes < 0:
        raise ValidationError("payload size cannot be negative")
    if mtu <= 0 or header_bytes < 0:
        raise ValidationError("bad MTU/header configuration")
    packets = max(1, math.ceil(payload_bytes / mtu))
    return PacketCount(
        packets=packets,
        payload_bytes=payload_bytes,
        air_bytes=payload_bytes + packets * header_bytes,
    )


@lru_cache(maxsize=8192)
def fragment_cached(payload_bytes: int, mtu: int = PAYLOAD_MTU,
                    header_bytes: int = HEADER_BYTES) -> PacketCount:
    """Memoized :func:`fragment` — the epoch loop's cost model.

    ``fragment`` is a pure function of its integer arguments and
    :class:`PacketCount` is frozen, so sharing one instance per
    distinct payload size is observationally identical to fragmenting
    afresh — but the converge-cast hot path ships the same few dozen
    payload sizes millions of times, making the allocation the single
    most frequent one of the epoch loop. A hot network (see
    :mod:`repro.network.hotpath`) consults this memo; the reference
    path re-derives via :func:`fragment`.
    """
    return fragment(payload_bytes, mtu, header_bytes)

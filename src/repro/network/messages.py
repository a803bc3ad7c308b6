"""Typed logical messages and their wire sizes.

Every protocol message the top-k algorithms exchange is a dataclass
here, with a ``payload_bytes`` property derived from realistic field
encodings (2-byte node/group ids, 4-byte fixed-point values, 2-byte
counts). The simulator converts payload bytes into TOS_Msg packets via
:mod:`repro.network.packets` and charges the radio energy model.

Keeping sizes *derived from content* rather than hard-coded per message
type is what lets pruning show up as byte savings: a view update with
fewer tuples is genuinely smaller on the air.

Every message is immutable, so its wire size is fixed at construction:
fixed-layout messages publish ``payload_bytes`` as a class constant,
and the messages that relay hop-by-hop (one instance shipped many
times) memoize it per instance (``functools.cached_property``) so no
hop after the first re-walks the entry tuples. The messages the hot
engine passes ship (MINT's view update and probe reply, FILA's filter
report, filter update and probe request, TJA's lower-bound and join
replies) state their size rule once, as a static ``wire_size`` over
counts: those passes ship that size without building the message, and
``payload_bytes`` calls it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, NamedTuple

#: Field encodings (bytes).
SZ_NODE_ID = 2
SZ_GROUP_ID = 2
SZ_VALUE = 4
SZ_COUNT = 2
SZ_EPOCH = 4
SZ_QUERY_ID = 1
SZ_OBJECT_ID = 4  # historic queries rank time instants (32-bit epoch ids)

#: Group keys are strings at the API level but travel as 2-byte ids on
#: the air (the creation phase establishes the dictionary).
GroupKey = Hashable


class ViewEntry(NamedTuple):
    """One view tuple: a group's partial aggregate (group, sum, count).

    This is exactly the ``(roomid, sum, count)`` tuple of the paper's
    TAG example, generalised: MIN/MAX ride in ``value`` with count
    carrying the contributing-sensor tally needed by the bound logic.
    (A NamedTuple: entry construction is the epoch loop's most frequent
    allocation after packet costs, and tuples build in C.)
    """

    group: GroupKey
    value: float
    count: int

    WIRE_BYTES = SZ_GROUP_ID + SZ_VALUE + SZ_COUNT


class Reading(NamedTuple):
    """A raw (node, value) sample, as shipped by the centralized baseline."""

    node_id: int
    value: float

    WIRE_BYTES = SZ_NODE_ID + SZ_VALUE


class ObjectScore(NamedTuple):
    """A historic-query item: (object id, partial score, count)."""

    object_id: int
    value: float
    count: int = 1

    WIRE_BYTES = SZ_OBJECT_ID + SZ_VALUE + SZ_COUNT


class WireMessage:
    """Base class: anything the simulator can ship has a payload size."""

    kind: str = "generic"

    @property
    def payload_bytes(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class QueryMessage(WireMessage):
    """Query dissemination (sink → network): compiled query descriptor.

    TinyDB ships a compact compiled form, not SQL text; we charge a
    fixed descriptor (query id, operator code, attribute id, K, epoch
    duration, window length) — 16 bytes.
    """

    query_id: int
    kind: str = field(default="query", init=False)

    #: Fixed compiled-descriptor layout — a class constant, no walk.
    payload_bytes = 16


@dataclass(frozen=True)
class ViewUpdateMessage(WireMessage):
    """MINT view update (child → parent): pruned view ``V'`` plus γ.

    γ travels as one 4-byte value when present. An empty update (no
    surviving tuples, γ only) is how a heavily-pruned subtree sounds.
    """

    epoch: int
    entries: tuple[ViewEntry, ...]
    gamma: float | None = None
    retractions: tuple[GroupKey, ...] = ()
    kind: str = field(default="view_update", init=False)

    @staticmethod
    def wire_size(entries: int, retractions: int = 0,
                  gamma: bool = False) -> int:
        return (SZ_EPOCH + entries * ViewEntry.WIRE_BYTES
                + retractions * SZ_GROUP_ID + (SZ_VALUE if gamma else 0))

    @property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.entries), len(self.retractions),
                              self.gamma is not None)


@dataclass(frozen=True)
class RawReadingsMessage(WireMessage):
    """Centralized baseline: raw readings forwarded verbatim."""

    epoch: int
    readings: tuple[Reading, ...]
    kind: str = field(default="raw_readings", init=False)

    @property
    def payload_bytes(self) -> int:
        return SZ_EPOCH + len(self.readings) * Reading.WIRE_BYTES


@dataclass(frozen=True)
class ProbeRequestMessage(WireMessage):
    """MINT probe (sink → network): groups whose exact partials are needed."""

    epoch: int
    groups: tuple[GroupKey, ...]
    kind: str = field(default="probe_request", init=False)

    @staticmethod
    def wire_size(groups: int) -> int:
        return SZ_EPOCH + groups * SZ_GROUP_ID

    @cached_property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.groups))


@dataclass(frozen=True)
class ProbeReplyMessage(WireMessage):
    """MINT probe reply (child → parent): exact partials for probed groups."""

    epoch: int
    entries: tuple[ViewEntry, ...]
    kind: str = field(default="probe_reply", init=False)

    @staticmethod
    def wire_size(entries: int) -> int:
        return SZ_EPOCH + entries * ViewEntry.WIRE_BYTES

    @property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.entries))


@dataclass(frozen=True)
class LBReplyMessage(WireMessage):
    """TJA Lower-Bound phase (child → parent): union of local top-k ids.

    The hierarchical union ships object identifiers only — values
    follow in the join phase, which is exactly why the union is cheap.
    """

    object_ids: tuple[int, ...]
    kind: str = field(default="lb_reply", init=False)

    @staticmethod
    def wire_size(ids: int) -> int:
        return ids * SZ_OBJECT_ID

    @property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.object_ids))


@dataclass(frozen=True)
class CandidateSetMessage(WireMessage):
    """TJA HJ dissemination (sink → network): the candidate object ids."""

    object_ids: tuple[int, ...]
    kind: str = field(default="candidate_set", init=False)

    @property
    def payload_bytes(self) -> int:
        return len(self.object_ids) * SZ_OBJECT_ID


@dataclass(frozen=True)
class JoinReplyMessage(WireMessage):
    """TJA HJ reply (child → parent): joined partial scores + threshold.

    ``threshold`` is the subtree's combined k-th local score — the bound
    the Clean-Up certification uses for unseen objects.
    """

    items: tuple[ObjectScore, ...]
    threshold_value: float
    threshold_count: int
    kind: str = field(default="join_reply", init=False)

    @staticmethod
    def wire_size(items: int) -> int:
        return items * ObjectScore.WIRE_BYTES + SZ_VALUE + SZ_COUNT

    @property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.items))


@dataclass(frozen=True)
class ScoreListMessage(WireMessage):
    """Flat (object id, value) pairs, as TPUT ships them node→sink."""

    items: tuple[ObjectScore, ...]
    kind: str = field(default="score_list", init=False)

    @cached_property
    def payload_bytes(self) -> int:
        # Flat protocols ship (id, value) without the count field.
        return len(self.items) * (SZ_OBJECT_ID + SZ_VALUE)


@dataclass(frozen=True)
class FilterUpdateMessage(WireMessage):
    """FILA filter installation (sink → node): per-group [lo, hi] window."""

    intervals: tuple[tuple[GroupKey, float, float], ...]
    kind: str = field(default="filter_update", init=False)

    @staticmethod
    def wire_size(intervals: int) -> int:
        return intervals * (SZ_GROUP_ID + 2 * SZ_VALUE)

    @property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.intervals))


@dataclass(frozen=True)
class FilterReportMessage(WireMessage):
    """FILA violation report (node → sink): readings that left their filter."""

    epoch: int
    entries: tuple[ViewEntry, ...]
    kind: str = field(default="filter_report", init=False)

    @staticmethod
    def wire_size(entries: int) -> int:
        return SZ_EPOCH + entries * ViewEntry.WIRE_BYTES

    @cached_property
    def payload_bytes(self) -> int:
        return self.wire_size(len(self.entries))


@dataclass(frozen=True)
class ControlMessage(WireMessage):
    """Small fixed-size control traffic (acks, phase turnovers, beacons)."""

    label: str
    size: int = 8
    kind: str = field(default="control", init=False)

    @property
    def payload_bytes(self) -> int:
        return self.size

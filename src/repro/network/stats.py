"""Traffic and energy statistics — the data behind the System Panel.

Every message the simulator ships increments these counters. The System
Panel (and every benchmark) reads them to report messages, packets,
bytes and joules, per message kind and per protocol phase; phases are
attributed with the :meth:`NetworkStats.phase` context manager.

Phase attribution is **exclusive**: traffic recorded while a nested
phase is open belongs to the innermost phase only. A ``recovery``
handshake paid in the middle of a session's ``update`` converge-cast
shows up under ``recovery`` and is *excluded* from ``update``, so
summing ``by_phase`` never double-counts a message. (Before this
contract, nested phases credited both levels, silently inflating every
outer phase that happened to contain churn repair.)

**One table.** A ledger keeps its integer counters in one per-kind
table, ``kind → [messages, packets, payload bytes, air bytes]``; the
totals sum it on read, so nothing is ever pending. The simulator's
kernels add to a row directly, in bulk or per message, and add each
message's joules to the ledger as they ship it, so every total is
exactly what one :meth:`NetworkStats.record` per message would give.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class PhaseSnapshot:
    """Immutable totals at one instant (used for per-phase deltas)."""

    messages: int
    packets: int
    payload_bytes: int
    air_bytes: int
    tx_joules: float
    rx_joules: float

    def minus(self, earlier: "PhaseSnapshot") -> "PhaseSnapshot":
        """Component-wise difference ``self - earlier``."""
        return PhaseSnapshot(
            messages=self.messages - earlier.messages,
            packets=self.packets - earlier.packets,
            payload_bytes=self.payload_bytes - earlier.payload_bytes,
            air_bytes=self.air_bytes - earlier.air_bytes,
            tx_joules=self.tx_joules - earlier.tx_joules,
            rx_joules=self.rx_joules - earlier.rx_joules,
        )

    def plus(self, other: "PhaseSnapshot") -> "PhaseSnapshot":
        """Component-wise sum ``self + other``."""
        return PhaseSnapshot(
            messages=self.messages + other.messages,
            packets=self.packets + other.packets,
            payload_bytes=self.payload_bytes + other.payload_bytes,
            air_bytes=self.air_bytes + other.air_bytes,
            tx_joules=self.tx_joules + other.tx_joules,
            rx_joules=self.rx_joules + other.rx_joules,
        )


_ZERO = PhaseSnapshot(0, 0, 0, 0, 0.0, 0.0)


class NetworkStats:
    """Mutable counters accumulated over a run.

    The public counter attributes (``messages``, ``packets``, …) are
    read-only properties summed from the per-kind table.
    """

    def __init__(self) -> None:
        #: kind → [messages, packets, payload bytes, air bytes]
        self._kinds: dict[str, list[int]] = {}
        self._tx_joules = 0.0
        self._rx_joules = 0.0
        self._retransmissions = 0
        self._drops = 0
        self.by_phase: dict[str, PhaseSnapshot] = {}
        #: (name, start snapshot, traffic claimed by closed inner phases)
        self._phase_stack: list[list] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, kind: str, packets: int, payload_bytes: int,
               air_bytes: int, tx_joules: float, rx_joules: float,
               retransmissions: int = 0) -> None:
        """Charge one shipped logical message."""
        self.add_sends(kind, 1, packets, payload_bytes, air_bytes)
        self._tx_joules += tx_joules
        self._rx_joules += rx_joules
        self._retransmissions += retransmissions

    def add_sends(self, kind: str, messages: int, packets: int,
                  payload_bytes: int, air_bytes: int) -> None:
        """Add ``messages`` sends of one kind, none retransmitted, whose
        integer counters sum to the given totals.

        The joules are the caller's: the sending kernels add each
        message's joules as they ship it, so the floating-point
        accumulation order (and thus every bit of the totals) matches
        one :meth:`record` per message.
        """
        row = self._kinds.get(kind)
        if row is None:
            row = self._kinds[kind] = [0, 0, 0, 0]
        row[0] += messages
        row[1] += packets
        row[2] += payload_bytes
        row[3] += air_bytes

    def record_drop(self) -> None:
        """Count a packet lost beyond the retry budget."""
        self._drops += 1

    def _counters(self) -> tuple:
        """Every counter as plain values, ``(rows, tx J, rx J,
        retransmissions, drops)`` with ``rows`` a copy of the table."""
        return ({kind: tuple(row) for kind, row in self._kinds.items()},
                self._tx_joules, self._rx_joules, self._retransmissions,
                self._drops)

    def _add_change(self, now: tuple, then: tuple) -> None:
        """Add another ledger's change from its :meth:`_counters`
        ``then`` to ``now``; a kind that sent nothing adds no row."""
        before = then[0]
        for kind, row in now[0].items():
            old = before.get(kind, (0, 0, 0, 0))
            if row[0] != old[0]:
                self.add_sends(kind, *(count - earlier
                                       for count, earlier in zip(row, old)))
        self._tx_joules += now[1] - then[1]
        self._rx_joules += now[2] - then[2]
        self._retransmissions += now[3] - then[3]
        self._drops += now[4] - then[4]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _column(self, index: int) -> int:
        return sum(row[index] for row in self._kinds.values())

    @property
    def messages(self) -> int:
        """Logical messages shipped."""
        return self._column(0)

    @property
    def packets(self) -> int:
        """TOS_Msg frames transmitted (excluding retransmissions)."""
        return self._column(1)

    @property
    def payload_bytes(self) -> int:
        """Application bytes carried."""
        return self._column(2)

    @property
    def air_bytes(self) -> int:
        """Total bytes on the air (payload + headers + retries)."""
        return self._column(3)

    @property
    def tx_joules(self) -> float:
        """Transmit energy charged."""
        return self._tx_joules

    @property
    def rx_joules(self) -> float:
        """Receive energy charged."""
        return self._rx_joules

    @property
    def retransmissions(self) -> int:
        """Extra attempts the loss process cost."""
        return self._retransmissions

    @property
    def drops(self) -> int:
        """Packets lost beyond the retry budget."""
        return self._drops

    @property
    def by_kind(self) -> dict[str, int]:
        """Message count per message kind (a fresh dict)."""
        return {kind: row[0] for kind, row in self._kinds.items()}

    def snapshot(self) -> PhaseSnapshot:
        """Immutable copy of the headline totals."""
        totals = [sum(column) for column in zip(*self._kinds.values())]
        return PhaseSnapshot(*(totals or (0, 0, 0, 0)), self._tx_joules,
                             self._rx_joules)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute everything recorded inside the block to ``name``.

        Re-entering the same phase name accumulates (per-epoch phases
        sum over a run). Attribution is *exclusive*: traffic recorded
        while a nested phase is open belongs to that inner phase alone
        and is subtracted from every enclosing phase's delta, so the
        values in :attr:`by_phase` partition the traffic they cover.
        """
        start = self.snapshot()
        frame = [name, start, _ZERO]
        self._phase_stack.append(frame)
        try:
            yield
        finally:
            self._phase_stack.pop()
            total = self.snapshot().minus(start)
            delta = total.minus(frame[2])
            previous = self.by_phase.get(name)
            if previous is not None:
                delta = previous.plus(delta)
            self.by_phase[name] = delta
            if self._phase_stack:
                parent = self._phase_stack[-1]
                parent[2] = parent[2].plus(total)

    @property
    def radio_joules(self) -> float:
        """Total radio energy (transmit plus receive)."""
        return self._tx_joules + self._rx_joules

    def summary(self) -> dict[str, float]:
        """Headline totals as a plain dict (for printing / JSON)."""
        totals = self.snapshot()
        return {
            "messages": totals.messages,
            "packets": totals.packets,
            "payload_bytes": totals.payload_bytes,
            "air_bytes": totals.air_bytes,
            "tx_joules": self._tx_joules,
            "rx_joules": self._rx_joules,
            "radio_joules": self._tx_joules + self._rx_joules,
            "retransmissions": self._retransmissions,
            "drops": self._drops,
        }

    def __repr__(self) -> str:
        totals = self.snapshot()
        return (f"NetworkStats(messages={totals.messages}, "
                f"packets={totals.packets}, "
                f"payload_bytes={totals.payload_bytes}, "
                f"air_bytes={totals.air_bytes}, "
                f"drops={self._drops})")

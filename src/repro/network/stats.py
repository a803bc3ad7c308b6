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

**Batched recording.** On the optimized hot path the simulator does not
call :meth:`NetworkStats.record` per message; it accumulates per-kind
counters for the whole epoch and folds them in bulk via
:meth:`apply_batch`. So that readers never observe half-flushed state,
a :class:`NetworkStats` can carry a *drain hook* (installed by the
:class:`~repro.network.simulator.Network` that feeds it): every public
read — counter attributes, :meth:`snapshot`, :meth:`summary`, phase
boundaries — first drains pending traffic. The observable counter
sequence is therefore byte-for-byte identical to eager recording.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


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
    read-only properties; they drain any pending batched traffic before
    returning, so callers always see up-to-date totals regardless of
    how the simulator chose to record.
    """

    def __init__(self) -> None:
        self._messages = 0
        self._packets = 0
        self._payload_bytes = 0
        self._air_bytes = 0
        self._tx_joules = 0.0
        self._rx_joules = 0.0
        self._retransmissions = 0
        self._drops = 0
        self._by_kind: dict[str, int] = {}
        self._bytes_by_kind: dict[str, int] = {}
        self.by_phase: dict[str, PhaseSnapshot] = {}
        #: (name, start snapshot, traffic claimed by closed inner phases)
        self._phase_stack: list[list] = []
        #: Installed by the owning Network while batched traffic may be
        #: pending for this ledger; called before every read.
        self._drain_hook: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, kind: str, packets: int, payload_bytes: int,
               air_bytes: int, tx_joules: float, rx_joules: float,
               retransmissions: int = 0) -> None:
        """Charge one shipped logical message."""
        self._messages += 1
        self._packets += packets
        self._payload_bytes += payload_bytes
        self._air_bytes += air_bytes
        self._tx_joules += tx_joules
        self._rx_joules += rx_joules
        self._retransmissions += retransmissions
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        self._bytes_by_kind[kind] = (
            self._bytes_by_kind.get(kind, 0) + payload_bytes
        )

    def apply_batch(self, kind: str, messages: int, packets: int,
                    payload_bytes: int, air_bytes: int) -> None:
        """Fold a per-kind batch of already-aggregated lossless sends in.

        Equivalent to ``messages`` consecutive :meth:`record` calls of
        the same kind, none retransmitted, whose integer counters sum to
        the given totals. Only the integer counters batch — integer
        addition reassociates exactly. The sending kernels add each
        message's joules to this ledger as they ship it, so the
        floating-point accumulation order (and thus every bit of the
        totals) matches eager recording.
        """
        self._messages += messages
        self._packets += packets
        self._payload_bytes += payload_bytes
        self._air_bytes += air_bytes
        self._by_kind[kind] = self._by_kind.get(kind, 0) + messages
        self._bytes_by_kind[kind] = (
            self._bytes_by_kind.get(kind, 0) + payload_bytes
        )

    def record_drop(self) -> None:
        """Count a packet lost beyond the retry budget."""
        self._drops += 1

    def _drain(self) -> None:
        hook = self._drain_hook
        if hook is not None:
            hook()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def messages(self) -> int:
        """Logical messages shipped."""
        self._drain()
        return self._messages

    @property
    def packets(self) -> int:
        """TOS_Msg frames transmitted (excluding retransmissions)."""
        self._drain()
        return self._packets

    @property
    def payload_bytes(self) -> int:
        """Application bytes carried."""
        self._drain()
        return self._payload_bytes

    @property
    def air_bytes(self) -> int:
        """Total bytes on the air (payload + headers + retries)."""
        self._drain()
        return self._air_bytes

    @property
    def tx_joules(self) -> float:
        """Transmit energy charged."""
        self._drain()
        return self._tx_joules

    @property
    def rx_joules(self) -> float:
        """Receive energy charged."""
        self._drain()
        return self._rx_joules

    @property
    def retransmissions(self) -> int:
        """Extra attempts the loss process cost."""
        self._drain()
        return self._retransmissions

    @property
    def drops(self) -> int:
        """Packets lost beyond the retry budget."""
        return self._drops

    @property
    def by_kind(self) -> dict[str, int]:
        """Message count per message kind."""
        self._drain()
        return self._by_kind

    @property
    def bytes_by_kind(self) -> dict[str, int]:
        """Payload bytes per message kind."""
        self._drain()
        return self._bytes_by_kind

    def snapshot(self) -> PhaseSnapshot:
        """Immutable copy of the headline totals."""
        self._drain()
        return PhaseSnapshot(
            messages=self._messages,
            packets=self._packets,
            payload_bytes=self._payload_bytes,
            air_bytes=self._air_bytes,
            tx_joules=self._tx_joules,
            rx_joules=self._rx_joules,
        )

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
        self._drain()
        return self._tx_joules + self._rx_joules

    def summary(self) -> dict[str, float]:
        """Headline totals as a plain dict (for printing / JSON)."""
        self._drain()
        return {
            "messages": self._messages,
            "packets": self._packets,
            "payload_bytes": self._payload_bytes,
            "air_bytes": self._air_bytes,
            "tx_joules": self._tx_joules,
            "rx_joules": self._rx_joules,
            "radio_joules": self._tx_joules + self._rx_joules,
            "retransmissions": self._retransmissions,
            "drops": self._drops,
        }

    def __repr__(self) -> str:
        self._drain()
        return (f"NetworkStats(messages={self._messages}, "
                f"packets={self._packets}, "
                f"payload_bytes={self._payload_bytes}, "
                f"air_bytes={self._air_bytes}, "
                f"drops={self._drops})")

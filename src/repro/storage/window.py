"""In-memory sliding window of (epoch, value) readings.

The main-memory history buffer of §III-B: bounded capacity, oldest
entries evicted first. Supports the local search and filtering a
historic-horizontal query performs before transmitting (windowed
aggregates, local top-k, threshold scans).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, NamedTuple

from ..errors import ConfigurationError, StorageError


class WindowEntry(NamedTuple):
    """One buffered reading.

    A NamedTuple rather than a frozen dataclass: the acquisition loop
    allocates one per node per epoch, and tuple construction is ~5x
    cheaper than a frozen dataclass ``__init__`` (which pays two
    ``object.__setattr__`` calls). Field access, equality and repr are
    unchanged.
    """

    epoch: int
    value: float


class SlidingWindow:
    """Bounded FIFO buffer of readings, newest last."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigurationError("window capacity must be >= 1")
        self._capacity = capacity
        self._entries: deque[WindowEntry] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of buffered readings."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[WindowEntry]:
        return iter(self._entries)

    def append(self, epoch: int, value: float) -> None:
        """Buffer a reading; evicts the oldest when full.

        Epochs must be appended in non-decreasing order (the
        acquisition loop is the only writer).
        """
        if self._entries and epoch < self._entries[-1].epoch:
            raise StorageError(
                f"out-of-order append: epoch {epoch} after "
                f"{self._entries[-1].epoch}"
            )
        self._entries.append(WindowEntry(epoch, value))

    def latest(self) -> WindowEntry:
        """The most recent reading."""
        if not self._entries:
            raise StorageError("window is empty")
        return self._entries[-1]

    def last(self, n: int) -> list[WindowEntry]:
        """The most recent ``n`` readings (fewer if not yet buffered)."""
        if n < 0:
            raise StorageError("n must be non-negative")
        if n >= len(self._entries):
            return list(self._entries)
        # Walk n entries in from the newest end: O(n), not O(capacity).
        newest_first = list(islice(reversed(self._entries), n))
        newest_first.reverse()
        return newest_first

    def since(self, epoch: int) -> list[WindowEntry]:
        """Readings with ``entry.epoch >= epoch``."""
        return [e for e in self._entries if e.epoch >= epoch]

    def values_in_range(self, lo: float, hi: float) -> list[WindowEntry]:
        """Readings whose value lies in ``[lo, hi]`` (a filter scan)."""
        return [e for e in self._entries if lo <= e.value <= hi]

    def top_k(self, k: int) -> list[WindowEntry]:
        """The ``k`` highest-valued readings, best first.

        Ties break toward the earlier epoch — the same deterministic
        order MicroHash and the ranking helpers use.
        """
        if k < 0:
            raise StorageError("k must be non-negative")
        ranked = sorted(self._entries, key=lambda e: (-e.value, e.epoch))
        return ranked[:k]

    def aggregate(self, op: str, last_n: int | None = None) -> float:
        """A windowed aggregate over the last ``n`` readings (or all).

        Supported ops: avg, sum, min, max, count.
        """
        entries = self.last(last_n) if last_n is not None else list(self._entries)
        if not entries and op != "count":
            raise StorageError("cannot aggregate an empty window")
        values = [e.value for e in entries]
        if op == "avg":
            return sum(values) / len(values)
        if op == "sum":
            return sum(values)
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
        if op == "count":
            return float(len(values))
        raise StorageError(f"unknown window aggregate {op!r}")

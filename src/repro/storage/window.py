"""In-memory sliding window of (epoch, value) readings, in two columns.

The main-memory history buffer of §III-B: bounded capacity, oldest
entries evicted first. A window keeps its readings as a structure of
arrays: an ``array('q')`` of epochs and a ``list`` of values, so
booking a reading allocates no per-entry tuple and a reader takes the
newest entries as two slices (:meth:`SlidingWindow.tail`) or reads the
columns' last positions. The values column is a list, so the window
keeps the exact object it booked: an int reading stays an int.

The columns grow past the capacity and drop their oldest entries in
one step when they reach twice it, so an append costs O(1) on
average; every read sees only the newest ``capacity`` entries. The
newest entry doubles as the mote's same-epoch sample cache
(:class:`~repro.network.node.SensorNode`).
"""

from __future__ import annotations

from array import array

from ..errors import ConfigurationError, StorageError

#: Readings a mote's window buffers: every window a
#: :class:`~repro.network.node.SensorNode` makes holds this many.
DEFAULT_CAPACITY = 1024


class SlidingWindow:
    """Bounded FIFO buffer of readings, newest last.

    ``epochs`` and ``values`` are the raw columns, aligned by position
    and possibly longer than the capacity: only their newest
    ``capacity`` entries are the window. The acquisition loop
    (:meth:`~repro.network.simulator.Network.read_many`) appends to
    them directly; everything else appends through :meth:`append` and
    reads through the methods below.
    """

    __slots__ = ("_capacity", "limit", "epochs", "values")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigurationError("window capacity must be >= 1")
        self._capacity = capacity
        #: The column length at which :meth:`compact` runs.
        self.limit = 2 * capacity
        self.epochs = array("q")
        self.values: list[float] = []

    @property
    def capacity(self) -> int:
        """Maximum number of buffered readings."""
        return self._capacity

    def __len__(self) -> int:
        return min(len(self.epochs), self._capacity)

    # repro: hot
    def append(self, epoch: int, value: float) -> None:
        """Buffer a reading; evicts the oldest when full.

        Epochs must be appended in non-decreasing order (the
        acquisition loop is the only writer); an out-of-order append
        raises and leaves both columns as they were.
        """
        epochs = self.epochs
        if epochs and epoch < epochs[-1]:
            raise StorageError(
                f"out-of-order append: epoch {epoch} after {epochs[-1]}")
        epochs.append(epoch)
        self.values.append(value)
        if len(epochs) >= self.limit:
            self.compact()

    def compact(self) -> None:
        """Drop every entry older than the newest ``capacity``."""
        del self.epochs[:-self._capacity]
        del self.values[:-self._capacity]

    def tail(self, n: int) -> tuple[array, list[float]]:
        """The most recent ``n`` readings (fewer if not yet buffered)
        as an epochs slice and a values slice, oldest first."""
        if n < 0:
            raise StorageError("n must be non-negative")
        keep = min(n, self._capacity)
        if not keep:
            return self.epochs[:0], []
        return self.epochs[-keep:], self.values[-keep:]

    def aggregate(self, op: str, last_n: int | None = None) -> float:
        """A windowed aggregate over the last ``n`` readings (or all).

        Supported ops: avg, sum, min, max, count.
        """
        values = self.tail(self._capacity if last_n is None else last_n)[1]
        if not values and op != "count":
            raise StorageError("cannot aggregate an empty window")
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

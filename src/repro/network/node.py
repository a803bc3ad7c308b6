"""The KSpot-client node runtime.

A :class:`SensorNode` is the software image flashed onto each mote: its
sensor board, its local history windows, and its cluster (room)
membership. Algorithm state (views, filters, candidate caches) lives in
the algorithm objects in :mod:`repro.core`, mirroring how the real
KSpot client keeps the top-k operator separate from the node firmware.

A node samples its board at most once per (attribute, epoch): the
newest entry of an attribute's window is that attribute's sample
cache, so :meth:`SensorNode.read` serves a live node's same-epoch
sample before any board check, on either execution path. The columnar
kernel books a batch-acquired sample into the window's columns itself,
and through :meth:`SensorNode.book_sample` where the window already
holds this epoch or a later one.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import ConfigurationError
from ..sensing.board import SensorBoard
from ..storage.window import SlidingWindow
from .energy import EnergyLedger


class SensorNode:
    """One mote: identity, sensing hardware, local storage, liveness."""

    def __init__(self, node_id: int, board: SensorBoard | None = None,
                 group: Hashable = None):
        if node_id < 0:
            raise ConfigurationError("node ids must be non-negative")
        self.node_id = node_id
        self.board = board
        self.group = group
        self.ledger = EnergyLedger()
        #: Attribute → its history window, made on first use.
        self._windows: dict[str, SlidingWindow] = {}
        self.alive = True
        #: Death observer installed by the owning network so liveness
        #: caches invalidate even when a test kills the node directly.
        self.on_kill: "Callable[[int], None] | None" = None
        #: Physical acquisitions performed (cache hits excluded).
        self.samples_taken = 0

    def window_for(self, attribute: str) -> SlidingWindow:
        """The history window buffering ``attribute``'s readings.

        Each attribute gets its own window, made on first use at
        :data:`~repro.storage.window.DEFAULT_CAPACITY` readings, so
        concurrent sessions over different channels of one board
        cannot interleave their streams.
        """
        window = self._windows.get(attribute)
        if window is None:
            window = self._windows[attribute] = SlidingWindow()
        return window

    def read(self, attribute: str, epoch: int) -> float:
        """Sample the board, charge sensing energy, buffer into history.

        This is the per-epoch acquisition step of the TinyDB model: the
        sample is both the current snapshot value and the newest entry
        of the node's history window.

        The board fires at most once per (attribute, epoch): when
        several query sessions share the deployment, the first read of
        an epoch pays the sampling energy and lands in the history;
        every later read of the same epoch is served from the window's
        newest entry, so concurrent queries never double-sample or
        double-buffer.
        """
        window = self._windows.get(attribute)
        if window is not None and self.alive:
            # A same-epoch reading from a live node skips the board
            # checks — concurrent sessions re-read the same epoch's
            # sample hundreds of times per epoch. The liveness guard
            # stays: a dead node raises, even with a fresh sample.
            epochs = window.epochs
            if epochs and epochs[-1] == epoch:
                return window.values[-1]
        if not self.alive:
            raise ConfigurationError(f"node {self.node_id} is dead")
        if self.board is None:
            raise ConfigurationError(f"node {self.node_id} has no sensor board")
        value = self.board.sample(attribute, self.node_id, epoch)
        return self.book_sample(
            attribute, epoch, value,
            self.board.modality(attribute).sample_cost_joules)

    # repro: hot
    def book_sample(self, attribute: str, epoch: int, value: float,
                    cost_joules: float) -> float:
        """Book one acquired sample: the second half of :meth:`read`.

        A window whose newest entry is this epoch's already holds the
        epoch's sample, which is returned unbooked. Otherwise the value
        is appended to the attribute's window (which refuses an epoch
        older than its newest, booking nothing), the sensing energy is
        charged and the sample counted.

        The columnar kernel
        (:meth:`repro.network.simulator.Network.read_many`) books the
        epoch's first batch into the columns itself. It books here a
        mote whose window already holds this epoch or a later one, and
        every stale mote of a later batch, so this one method keeps the
        straggler rule (a mote a scalar :meth:`read` sampled first is
        booked once) and the out-of-order refusal. The caller
        guarantees this node is alive with a board (:meth:`read`
        checks; a sampling plan lives only until the topology changes).
        Returns the value actually booked (the window's on a same-epoch
        hit — byte-identical, since field generators are deterministic
        per cell)."""
        window = self.window_for(attribute)
        epochs = window.epochs
        if epochs and epochs[-1] == epoch:
            return window.values[-1]
        window.append(epoch, value)
        self.ledger.sensing += cost_joules
        self.samples_taken += 1
        return value

    def kill(self) -> None:
        """Mark the node dead (battery exhausted / crushed / unplugged)."""
        was_alive = self.alive
        self.alive = False
        if was_alive and self.on_kill is not None:
            self.on_kill(self.node_id)

    def __repr__(self) -> str:
        status = "alive" if self.alive else "dead"
        return f"SensorNode({self.node_id}, group={self.group!r}, {status})"

"""The KSpot-client node runtime.

A :class:`SensorNode` is the software image flashed onto each mote: its
sensor board, its local history window, and its cluster (room)
membership. Algorithm state (views, filters, candidate caches) lives in
the algorithm objects in :mod:`repro.core`, mirroring how the real
KSpot client keeps the top-k operator separate from the node firmware.

A node samples its board at most once per (attribute, epoch):
:meth:`SensorNode.read` serves a live node's same-epoch sample before
any board check, on either execution path, and the columnar kernel
books batch-acquired samples through :meth:`SensorNode.book_sample`.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..errors import ConfigurationError
from ..sensing.board import SensorBoard
from ..storage.microhash import MicroHashIndex
from ..storage.window import SlidingWindow, WindowEntry
from .energy import EnergyLedger


class SensorNode:
    """One mote: identity, sensing hardware, local storage, liveness."""

    def __init__(self, node_id: int, board: SensorBoard | None = None,
                 group: Hashable = None, window_capacity: int = 1024):
        if node_id < 0:
            raise ConfigurationError("node ids must be non-negative")
        self.node_id = node_id
        self.board = board
        self.group = group
        self.ledger = EnergyLedger()
        #: The primary history window — adopted by the first attribute
        #: this node samples (the only one, on the single-channel
        #: boards every shipped scenario deploys).
        self.window: SlidingWindow = SlidingWindow(capacity=window_capacity)
        self._window_capacity = window_capacity
        self._windows: dict[str, SlidingWindow] = {}
        #: Optional flash-resident history (§III-B: "either in main
        #: memory … or on secondary memory"). Attached via
        #: :meth:`attach_flash`; page costs charge the storage ledger.
        self.flash_index: MicroHashIndex | None = None
        self.alive = True
        #: Death observer installed by the owning network so liveness
        #: caches invalidate even when a test kills the node directly.
        self.on_kill: "Callable[[int], None] | None" = None
        #: Physical acquisitions performed (cache hits excluded).
        self.samples_taken = 0
        #: attribute → (epoch, value) of the newest physical sample.
        self._sample_cache: dict[str, tuple[int, float]] = {}

    def attach_flash(self, index: MicroHashIndex) -> None:
        """Buffer history on flash (MicroHash) instead of SRAM only.

        The flash index buffers one stream — deep history on a
        multi-attribute board should stay in the per-attribute SRAM
        windows (see :meth:`window_for`).
        """
        self.flash_index = index

    def window_for(self, attribute: str) -> SlidingWindow:
        """The history window buffering ``attribute``'s readings.

        Each attribute gets its own window so concurrent sessions over
        different channels of one board cannot interleave their
        streams. The first attribute adopts the legacy
        :attr:`window`, keeping single-channel deployments (every
        shipped scenario) byte-identical to the historical behaviour.
        """
        window = self._windows.get(attribute)
        if window is None:
            window = (self.window if not self._windows
                      else SlidingWindow(capacity=self._window_capacity))
            self._windows[attribute] = window
        return window

    def _charge_flash(self, before_joules: float) -> None:
        if self.flash_index is not None:
            delta = self.flash_index.flash.stats.joules - before_joules
            if delta:
                self.ledger.charge_storage(delta)

    def read(self, attribute: str, epoch: int) -> float:
        """Sample the board, charge sensing energy, buffer into history.

        This is the per-epoch acquisition step of the TinyDB model: the
        sample is both the current snapshot value and the newest entry
        of the node's history — the SRAM sliding window, plus the flash
        index when one is attached (its page-write energy is charged to
        the storage ledger).

        The board fires at most once per (attribute, epoch): when
        several query sessions share the deployment, the first read of
        an epoch pays the sampling energy and lands in the history;
        every later read of the same epoch is served from the cached
        reading, so concurrent queries never double-sample or
        double-buffer.
        """
        cached = self._sample_cache.get(attribute)
        if cached is not None and cached[0] == epoch and self.alive:
            # A cached same-epoch reading from a live node skips the
            # board checks — concurrent sessions re-read the same
            # epoch's sample hundreds of times per epoch. The liveness
            # guard stays: a dead node raises, even with a fresh cache
            # entry.
            return cached[1]
        if not self.alive:
            raise ConfigurationError(f"node {self.node_id} is dead")
        if self.board is None:
            raise ConfigurationError(f"node {self.node_id} has no sensor board")
        value = self.board.sample(attribute, self.node_id, epoch,
                                  energy_sink=self.ledger.charge_sensing)
        self.samples_taken += 1
        self._sample_cache[attribute] = (epoch, value)
        self.window_for(attribute).append(epoch, value)
        if self.flash_index is not None:
            before = self.flash_index.flash.stats.joules
            self.flash_index.insert(epoch, value)
            self._charge_flash(before)
        return value

    # repro: hot
    def book_sample(self, attribute: str, epoch: int, value: float,
                    cost_joules: float) -> float:
        """Book one batch-acquired sample exactly as :meth:`read` does.

        The columnar kernel samples a whole id column in one batch
        (:meth:`repro.network.simulator.Network.read_many`) and books
        each value here: the same-epoch-cache check of :meth:`read`,
        then on a miss the sensing charge, counter increment,
        same-epoch cache, history window and flash — so per-node state
        is byte-identical to a scalar :meth:`read`. One fused method
        because ``read_many`` calls it for every freshly-drawn row and
        the call overhead was measurable. The caller's sampling plan
        guarantees this node is alive with a board (plan validity is
        tied to the alive-tuple's identity), so the liveness/board
        checks are hoisted; the caller also pre-filters
        same-epoch-fresh rows, making the cache check here a cheap
        second line of defence rather than the primary one. Returns
        the value actually booked (the cached one on a same-epoch hit
        — byte-identical, since field generators are deterministic per
        cell)."""
        cached = self._sample_cache.get(attribute)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        self.ledger.charge_sensing(cost_joules)
        self.samples_taken += 1
        self._sample_cache[attribute] = (epoch, value)
        self.window_for(attribute).append(epoch, value)
        if self.flash_index is not None:
            before = self.flash_index.flash.stats.joules
            self.flash_index.insert(epoch, value)
            self._charge_flash(before)
        return value

    def history(self, last_n: int,
                attribute: str | None = None) -> "list[WindowEntry]":
        """The most recent ``last_n`` readings, flash-first.

        Reads from the flash index when attached (charging page-read
        energy), falling back to the SRAM window. Flash survives past
        the window capacity, so deep historic queries prefer it.
        ``attribute`` selects that channel's window; None keeps the
        legacy primary window. The flash index buffers a single
        stream, so once more than one attribute has been buffered,
        attribute-specific reads come from the per-attribute SRAM
        window — never from flash pages holding interleaved channels.
        """
        window = (self.window if attribute is None
                  else self.window_for(attribute))
        if attribute is not None and len(self._windows) > 1:
            return window.last(last_n)
        if self.flash_index is not None:
            newest = window.latest().epoch if len(window) else 0
            before = self.flash_index.flash.stats.joules
            entries = self.flash_index.epoch_range(
                newest - last_n + 1, newest)
            self._charge_flash(before)
            return entries
        return window.last(last_n)

    def kill(self) -> None:
        """Mark the node dead (battery exhausted / crushed / unplugged)."""
        was_alive = self.alive
        self.alive = False
        if was_alive and self.on_kill is not None:
            self.on_kill(self.node_id)

    def __repr__(self) -> str:
        status = "alive" if self.alive else "dead"
        return f"SensorNode({self.node_id}, group={self.group!r}, {status})"

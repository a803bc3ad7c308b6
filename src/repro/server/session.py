"""Query sessions: one user's running query over the shared deployment.

The paper's base station serves *many* users' top-k queries over one
sensor deployment. A :class:`QuerySession` is the per-user execution
context a :class:`~repro.api.Deployment` keeps in its registry: the compiled plan, the engine instance (with its own view /
filter state), the session's share of the network traffic, an optional
shadow-baseline engine feeding a per-session System Panel, and the
result stream.

Two execution shapes exist, matching the plan's query class:

* **Epoch mode** (MINT / TAG / FILA / NAIVE / CENTRALIZED): every
  :meth:`QuerySession.step` drives one acquisition round and appends
  one :class:`~repro.core.results.EpochResult`.
* **Historic-vertical mode** (TJA / TPUT): each step is one radio-
  silent acquisition epoch; once the window is full the one-shot
  distributed execution runs and the session finishes. This lets a
  historic query ride the same shared epoch clock as concurrent
  monitoring queries — its samples are the very readings the other
  sessions already paid for.

Sessions never drive the deployment clock directly. Their engines call
``network.advance_epoch()`` as always; when the server steps several
sessions inside ``network.shared_epoch()`` those calls coalesce into a
single real tick, so each sensor board samples exactly once per epoch
no matter how many sessions consume the reading.

**Churn recovery.** Live sessions survive node failures and joins via
a four-step protocol rather than a restart:

1. *detect* — the server forwards every
   :class:`~repro.network.events.TopologyEvent` the network publishes
   to each live session, which queues it;
2. *quiesce* — at the next step, before any acquisition, the session
   replays the queued events into its engine, which resets exactly the
   affected subtree state (MINT view caches, FILA filters), so no
   stale delta can transmit over the repaired tree;
3. *repair* — the routing tree itself was already re-wired
   incrementally by the network (orphans re-parented energy-aware,
   one attach handshake per new edge, charged to the ``recovery``
   stats phase);
4. *resume* — the epoch then runs normally; invalidated nodes re-ship
   full views, re-priming the caches, and answers are certified-exact
   over the surviving population again.

Every pass is appended to the session's
:class:`~repro.gui.stats.RecoveryLog`, which its System Panel exposes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from typing import Callable

from ..core.results import EpochResult
from ..errors import PlanError, SessionError
from ..gui.stats import RecoveryLog, RecoveryRecord, SystemPanel
from ..network.events import TopologyEvent
from ..network.stats import NetworkStats
from ..query.plan import QueryClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.engine import KSpotEngine
    from ..core.tja import TjaResult
    from ..core.tput import TputResult
    from ..gui.panels import DisplayPanel
    from ..network.simulator import Network
    from ..query.plan import LogicalPlan


class QuerySession:
    """One submitted query: plan + engine + per-session accounting."""

    def __init__(self, session_id: int, network: "Network",
                 plan: "LogicalPlan", engine: "KSpotEngine",
                 query_text: str,
                 baseline_engine: "KSpotEngine | None" = None,
                 display: "DisplayPanel | None" = None):
        """Args:
            session_id: Registry key assigned by the server.
            network: The shared deployment the engine runs on.
            plan: The compiled logical plan.
            engine: The engine executing the plan.
            query_text: The submitted SQL-like text (for listings).
            baseline_engine: Optional TAG shadow engine on a baseline
                network; when present the session keeps its own
                :class:`~repro.gui.stats.SystemPanel`.
            display: Optional Display Panel re-ranked on every result.
        """
        self.session_id = session_id
        self.network = network
        self.plan = plan
        #: The engines. Both are released (set to None) when the
        #: session stops, so the registry, which keeps stopped
        #: sessions for their handles, does not keep their state.
        self.engine: "KSpotEngine | None" = engine
        self.query_text = query_text
        self.baseline_engine: "KSpotEngine | None" = baseline_engine
        self.display = display
        #: This session's share of traffic on the shared deployment:
        #: the deployment ledger's change over each of its steps
        #: (see ``Network.tap_stats``).
        self.stats = NetworkStats()
        #: Churn-recovery accounting: one record per absorbed event
        #: batch (exposed on the session's System Panel when present).
        self.recovery = RecoveryLog()
        self._pending_events: list[TopologyEvent] = []
        self.system_panel: SystemPanel | None = None
        if baseline_engine is not None:
            self.system_panel = SystemPanel(
                self.stats, baseline_engine.network.stats,
                recovery=self.recovery)
        self.results: list[EpochResult] = []
        #: The one-shot answer of a historic-vertical session.
        self.historic_result: "TjaResult | TputResult | None" = None
        self.active = True
        #: Epochs this session has been stepped (acquisition included).
        self.steps_taken = 0
        self._acquired_epochs = 0
        # Push subscriptions (the api layer's SessionHandle registers
        # here): result callbacks fire on every appended EpochResult
        # and on the historic answer; recovery callbacks fire per
        # recorded recovery pass, always *before* that epoch's result.
        self._result_callbacks: list[Callable[[object], None]] = []
        self._recovery_callbacks: list[Callable[[RecoveryRecord], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_historic(self) -> bool:
        """True for one-shot TJA/TPUT sessions."""
        return self.plan.query_class is QueryClass.HISTORIC_VERTICAL

    @property
    def finished(self) -> bool:
        """True once a historic session has produced its answer."""
        return self.historic_result is not None

    @property
    def baseline_network(self) -> "Network | None":
        """The shadow deployment this session's baseline runs on
        (None once the session stops)."""
        if self.baseline_engine is None:
            return None
        return self.baseline_engine.network

    # ------------------------------------------------------------------
    # Push subscriptions
    # ------------------------------------------------------------------

    def add_result_callback(self, callback: "Callable[[object], None]"
                            ) -> None:
        """Invoke ``callback(result)`` on every result this session
        produces (each EpochResult, and the one-shot historic answer)."""
        self._result_callbacks.append(callback)

    def add_recovery_callback(
            self, callback: "Callable[[RecoveryRecord], None]") -> None:
        """Invoke ``callback(record)`` on every recovery pass, before
        the same epoch's result callback fires."""
        self._recovery_callbacks.append(callback)

    def _publish_result(self, result) -> None:
        for callback in self._result_callbacks:
            callback(result)

    # ------------------------------------------------------------------
    # Churn recovery
    # ------------------------------------------------------------------

    def on_topology_event(self, event: TopologyEvent) -> None:
        """Detect: queue a lifecycle event for recovery at the next step."""
        if self.active:
            self._pending_events.append(event)

    def _recover_pending(self) -> None:
        """Quiesce + re-prime: replay queued events into the engine.

        Runs before the epoch's acquisition so stale subtree state
        never transmits over the repaired tree. The pass is recorded in
        :attr:`recovery`; the re-primed nodes' full-view resends ride
        the next epoch's normal converge-cast.
        """
        if not self._pending_events:
            return
        events, self._pending_events = self._pending_events, []
        reprimed = 0
        for event in events:
            reprimed += self.engine.handle_topology_event(event)
        record = RecoveryRecord(
            epoch=self.network.epoch,
            failed=tuple(e.node_id for e in events if e.failed),
            joined=tuple(e.node_id for e in events if e.joined),
            reprimed=reprimed,
            repair_edges=sum(len(e.reattached) for e in events),
        )
        self.recovery.record(record)
        for callback in self._recovery_callbacks:
            callback(record)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self) -> "EpochResult | TjaResult | TputResult | None":
        """Advance this session by one epoch of the shared clock.

        Epoch-mode sessions return the epoch's
        :class:`~repro.core.results.EpochResult`. Historic sessions
        return None while acquiring and the final
        ``TjaResult``/``TputResult`` on the epoch that completes the
        window.
        """
        if not self.active:
            raise SessionError(
                f"session {self.session_id} is no longer active")
        self._recover_pending()
        self.steps_taken += 1
        if self.is_historic:
            return self._step_historic()
        with self.network.tap_stats(self.stats):
            result = self.engine.run_epoch()
        if self.baseline_engine is not None:
            self.baseline_engine.run_epoch()
        if self.system_panel is not None:
            self.system_panel.sample()
        if self.display is not None:
            self.display.update_ranking(result)
        self.results.append(result)
        self._publish_result(result)
        return result

    def _step_historic(self) -> "TjaResult | TputResult | None":
        """One acquisition epoch; once the window is full, the one-shot
        distributed execution, which finishes the session.

        Sampling goes through the node-level per-epoch cache, so when
        monitoring sessions share the deployment the acquisition is
        free — the board already fired this epoch.
        """
        window = self.plan.window_epochs
        if window is None:
            raise PlanError("no window length to fill")
        self.engine.sample_participants()
        self._acquired_epochs += 1
        self.network.advance_epoch()
        if self._acquired_epochs < window:
            return None
        with self.network.tap_stats(self.stats):
            self.historic_result = self.engine.execute_historic()
        self._stop()
        self._publish_result(self.historic_result)
        return self.historic_result

    def cancel(self) -> None:
        """Deactivate the session; the server stops stepping it."""
        self._stop()

    def _stop(self) -> None:
        """Deactivate and release both engines, and with the baseline
        engine the shadow network: the System Panel holds only the
        shadow's ledger, which refers to no network. Results, stats,
        the recovery log and the panel's samples stay readable."""
        self.active = False
        self.engine = None
        self.baseline_engine = None

    def __repr__(self) -> str:
        state = ("finished" if self.finished
                 else "active" if self.active else "cancelled")
        return (f"QuerySession({self.session_id}, "
                f"{self.plan.algorithm.value}, {state}, "
                f"results={len(self.results)})")

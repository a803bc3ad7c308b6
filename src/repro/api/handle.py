"""Session handles: the user-facing, read-only view of a query.

A :class:`SessionHandle` is what :meth:`repro.api.Deployment.submit`
returns: a stable facade over the engine-room
:class:`~repro.server.session.QuerySession` that exposes *state*
(:class:`SessionState`), *results* (typed accessors plus a
:meth:`~SessionHandle.watch` iterator), and *push subscriptions*
(:meth:`~SessionHandle.on_result` / :meth:`~SessionHandle.on_recovery`)
— so callers react to answers and churn recoveries as they happen
instead of polling the registry.

Handles never mutate execution: stepping belongs to
:class:`~repro.api.EpochDriver`, cancellation to
:meth:`~repro.api.Deployment.cancel`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import EpochResult
    from ..core.tja import TjaResult
    from ..core.tput import TputResult
    from ..gui.stats import RecoveryLog, RecoveryRecord, SystemPanel
    from ..network.stats import NetworkStats
    from ..query.plan import Algorithm, LogicalPlan
    from ..server.session import QuerySession
    from .driver import EpochDriver


class SessionState(enum.Enum):
    """Lifecycle of a submitted query session."""

    #: Registered but never stepped by a driver yet.
    PENDING = "pending"
    #: Stepped at least once and still riding the shared clock.
    RUNNING = "running"
    #: Produced its one-shot answer (historic sessions only).
    FINISHED = "finished"
    #: Deactivated before finishing; results remain readable.
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True once the session will never produce another result."""
        return self in (SessionState.FINISHED, SessionState.CANCELLED)


class SessionHandle:
    """Read-only facade over one registered query session."""

    def __init__(self, session: "QuerySession"):
        self._session = session

    # ------------------------------------------------------------------
    # Identity and plan
    # ------------------------------------------------------------------

    @property
    def id(self) -> int:
        """The session's registry id (stable for the deployment's life)."""
        return self._session.session_id

    @property
    def query_text(self) -> str:
        """The submitted SQL-like query text."""
        return self._session.query_text

    @property
    def plan(self) -> "LogicalPlan":
        """The compiled logical plan the session executes."""
        return self._session.plan

    @property
    def algorithm(self) -> "Algorithm":
        """The routed in-network algorithm."""
        return self._session.plan.algorithm

    @property
    def is_historic(self) -> bool:
        """True for one-shot TJA/TPUT sessions."""
        return self._session.is_historic

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def state(self) -> SessionState:
        """The session's lifecycle state, derived live."""
        session = self._session
        if session.finished:
            return SessionState.FINISHED
        if not session.active:
            return SessionState.CANCELLED
        if session.steps_taken == 0:
            return SessionState.PENDING
        return SessionState.RUNNING

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------

    @property
    def results(self) -> "tuple[EpochResult, ...]":
        """Every epoch result produced so far (read-only snapshot)."""
        return tuple(self._session.results)

    @property
    def last_result(self) -> "EpochResult | None":
        """The most recent epoch result, if any."""
        return self._session.results[-1] if self._session.results else None

    @property
    def historic_result(self) -> "TjaResult | TputResult | None":
        """The one-shot answer of a historic session (None until it
        finishes; always None for epoch-mode sessions)."""
        return self._session.historic_result

    @property
    def stats(self) -> "NetworkStats":
        """This session's share of the deployment's traffic."""
        return self._session.stats

    @property
    def recovery(self) -> "RecoveryLog":
        """The session's churn-recovery log (one record per absorbed
        event batch)."""
        return self._session.recovery

    @property
    def system_panel(self) -> "SystemPanel | None":
        """The session's System Panel, when it runs a shadow baseline."""
        return self._session.system_panel

    # ------------------------------------------------------------------
    # Push subscriptions
    # ------------------------------------------------------------------

    def on_result(self, callback: Callable[[object], None]) -> None:
        """Call ``callback(result)`` for every result this session
        produces from now on — each :class:`EpochResult`, plus the
        one-shot answer of a historic session."""
        self._session.add_result_callback(callback)

    def on_recovery(self, callback: "Callable[[RecoveryRecord], None]"
                    ) -> None:
        """Call ``callback(record)`` for every churn-recovery pass.

        Ordering guarantee: on an epoch that absorbs churn, the
        recovery callback fires *before* that epoch's result callback
        (recovery runs pre-acquisition)."""
        self._session.add_recovery_callback(callback)

    # ------------------------------------------------------------------
    # Watching
    # ------------------------------------------------------------------

    def watch(self, driver: "EpochDriver | None" = None,
              epochs: int | None = None) -> Iterator[object]:
        """Iterate this session's results as they arrive.

        Already-produced results the iterator has not seen yet are
        yielded first. Given a ``driver``, the iterator then keeps
        stepping the shared clock (driving *every* active session, as
        the driver always does) until this session reaches a terminal
        state or ``epochs`` further epochs have been driven. Without a
        driver it simply drains and returns — the synchronous
        equivalent of a non-blocking poll.

        Historic sessions yield their one-shot answer as the final
        item.

        Like :meth:`EpochDriver.run`, it raises
        :class:`~repro.errors.ConfigurationError` — at the call site,
        not at the first ``next()`` — for an ``epochs`` that is not a
        non-negative integer, and for an unbounded watch of a session
        that never terminates by itself (a continuous monitoring query,
        no ``epochs``, no driver ``max_epochs``) instead of spinning
        forever.
        """
        from ..errors import ConfigurationError
        from .driver import _check_count

        if epochs is not None:
            _check_count("epochs", epochs)
        if (driver is not None
                and driver.deployment.network is not self._session.network):
            raise ConfigurationError(
                "watch() was given a driver for a different deployment — "
                "it would step that deployment's sessions while this one "
                "never advances")
        if (driver is not None and epochs is None
                and driver.max_epochs is None
                and not self._session.is_historic
                and not self.state.terminal):
            raise ConfigurationError(
                "unbounded watch: a continuous monitoring session never "
                "finishes — pass epochs= or set the driver's max_epochs")
        return self._watch(driver, epochs)

    def _watch(self, driver: "EpochDriver | None",
               epochs: int | None) -> Iterator[object]:
        session = self._session
        seen = 0
        historic_seen = False
        stepped = 0
        while True:
            while seen < len(session.results):
                yield session.results[seen]
                seen += 1
            if session.historic_result is not None and not historic_seen:
                historic_seen = True
                yield session.historic_result
            if self.state.terminal or driver is None:
                return
            if epochs is not None and stepped >= epochs:
                return
            if driver.max_epochs is not None \
                    and driver.epochs_driven >= driver.max_epochs:
                return
            driver.step()
            stepped += 1

    def __repr__(self) -> str:
        return (f"SessionHandle({self.id}, {self.algorithm.value}, "
                f"{self.state.value}, results={len(self._session.results)})")

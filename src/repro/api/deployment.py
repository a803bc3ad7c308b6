"""Deployments: the network-owning layer of the public API.

A :class:`Deployment` owns exactly the static half of what the old
``KSpotServer`` god-object mixed with driving concerns: the deployed
:class:`~repro.network.simulator.Network`, the queryable
:class:`~repro.query.validator.Schema`, the cluster mapping, the
optional Display Panel, and the baseline (shadow) factory that gives
each top-k session its own TAG comparison network. It also keeps the
session registry: :meth:`submit` compiles a query into a
:class:`~repro.server.session.QuerySession` and hands back the
read-only :class:`~repro.api.SessionHandle`.

What a Deployment deliberately does *not* do is advance time — the
shared epoch clock and the step loop belong to
:class:`~repro.api.EpochDriver`, so several driving policies can be
layered over one deployment without touching it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Mapping

from ..core.engine import KSpotEngine
from ..errors import SubmissionError, UnknownSessionError, ValidationError
from ..query.plan import Algorithm, QueryClass, compile_query
from ..query.validator import Schema
# repro: allow[layer-dag] -- QuerySession predates the facade and still lives in server/; this is the one runtime api -> server edge until it is hoisted (ROADMAP)
from ..server.session import QuerySession
from .handle import SessionHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mint import MintConfig
    from ..gui.panels import DisplayPanel
    from ..network.simulator import Network
    from ..scenarios import Scenario
    from ..sensing.board import SensorBoard


class Deployment:
    """One deployed sensor network plus its session registry."""

    def __init__(self, network: "Network",
                 schema: Schema | None = None,
                 group_of: Mapping[int, Hashable] | None = None,
                 display: "DisplayPanel | None" = None,
                 baseline_factory: "Callable[[], Network] | None" = None,
                 baseline_network: "Network | None" = None,
                 mint_config: "MintConfig | None" = None,
                 max_sessions: int | None = None,
                 scenario: "Scenario | None" = None):
        """Args:
            network: The deployed sensor network.
            schema: Queryable attributes; derived from the first
                node's board when omitted.
            group_of: Cluster mapping (defaults to node groups).
            display: Optional Display Panel re-ranked on every result.
            baseline_factory: Zero-argument callable deploying a fresh
                shadow network; called once per top-k session so each
                session's TAG baseline (and System Panel) is isolated.
            baseline_network: One shared shadow deployment — only safe
                when a single session wants a baseline; prefer
                ``baseline_factory``.
            mint_config: Tunables forwarded to MINT-routed sessions.
            max_sessions: Admission limit — :meth:`submit` raises
                :class:`~repro.errors.SubmissionError` while this many
                sessions are still active (None: unlimited).
            scenario: The :class:`~repro.scenarios.Scenario` this
                deployment came from, when built from one; supplies
                sensor boards for churn-born motes.
        """
        self.network = network
        self.schema = schema or self._derive_schema(network)
        self.group_of = group_of
        self.display = display
        self.baseline_factory = baseline_factory
        self.baseline_network = baseline_network
        self.mint_config = mint_config
        self.max_sessions = max_sessions
        self.scenario = scenario
        self._sessions: dict[int, QuerySession] = {}
        #: Sessions not yet seen inactive, in submission order; walks
        #: drop stopped ones (``active`` is terminal), so it stays small.
        self._live: dict[int, QuerySession] = {}
        self._handles: dict[int, SessionHandle] = {}
        self._next_session_id = 1
        # Every node failure / join the network publishes is forwarded
        # to the live sessions, which recover at their next step.
        network.subscribe(self._on_topology_event)

    @classmethod
    def from_scenario(cls, scenario: "Scenario",
                      **kwargs) -> "Deployment":
        """Build a deployment declaratively from a
        :class:`~repro.scenarios.Scenario` (network + cluster mapping +
        field, wired for churn-born boards). Keyword arguments are
        forwarded to the constructor."""
        return cls(scenario.network, group_of=scenario.group_of,
                   scenario=scenario, **kwargs)

    @staticmethod
    def _derive_schema(network: "Network") -> Schema:
        for node_id in network.tree.sensor_ids:
            board = network.node(node_id).board
            if board is not None:
                return Schema.for_deployment(board.attributes,
                                             group_keys=("roomid", "cluster"))
        raise ValidationError("no sensor board found to derive a schema from")

    def _on_topology_event(self, event) -> None:
        for session in self.active_sessions():
            session.on_topology_event(event)

    def board_for(self, node_id: int) -> "SensorBoard | None":
        """A sensor board for a churn-born mote, when the deployment
        knows its scenario's field (None otherwise — the newborn joins
        but cannot be sampled)."""
        if self.scenario is None:
            return None
        return self.scenario.board_for(node_id)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _open_session(self, query_text: str,
                      algorithm: Algorithm | None) -> QuerySession:
        _, plan = compile_query(query_text, self.schema, algorithm=algorithm)
        engine = KSpotEngine(self.network, plan,
                             group_of=self.group_of,
                             mint_config=self.mint_config)
        if plan.query_class is not QueryClass.HISTORIC_VERTICAL:
            # Instantiate the routed algorithm now: plan/algorithm
            # incompatibilities (e.g. FILA over cluster ranking) must
            # reject *this* submission, not kill a later driver step
            # that is also driving everyone else's sessions.
            engine.algorithm
        baseline_engine = None
        wants_baseline = (plan.query_class is not QueryClass.HISTORIC_VERTICAL
                          and plan.k is not None)
        if wants_baseline:
            shadow = (self.baseline_factory()
                      if self.baseline_factory is not None
                      else self.baseline_network)
            if shadow is not None:
                _, baseline_plan = compile_query(query_text, self.schema,
                                                 algorithm=Algorithm.TAG)
                baseline_engine = KSpotEngine(shadow, baseline_plan,
                                              group_of=self.group_of)
        session = QuerySession(self._next_session_id, self.network, plan,
                               engine, query_text,
                               baseline_engine=baseline_engine,
                               display=self.display)
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self._live[session.session_id] = session
        self._handles[session.session_id] = SessionHandle(session)
        return session

    def submit(self, query_text: str,
               algorithm: Algorithm | None = None) -> SessionHandle:
        """Compile a query into one more concurrent session.

        The new session joins the shared epoch clock at the driver's
        next step; existing sessions keep running. Raises the precise
        :class:`~repro.errors.QueryError` subclass on a bad query, and
        :class:`~repro.errors.SubmissionError` when the deployment's
        ``max_sessions`` admission limit is reached.
        """
        if self.max_sessions is not None:
            active = len(self.active_sessions())
            if active >= self.max_sessions:
                raise SubmissionError(
                    f"deployment admission limit reached "
                    f"({active} active sessions, max {self.max_sessions})")
        session = self._open_session(query_text, algorithm)
        return self._handles[session.session_id]

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def session(self, session_id: int) -> SessionHandle:
        """Look up a registered session's handle by id."""
        try:
            return self._handles[session_id]
        except KeyError:
            raise UnknownSessionError(
                f"unknown session {session_id}") from None

    def sessions(self) -> tuple[SessionHandle, ...]:
        """Every registered session's handle, in submission order
        (cancelled and finished ones included)."""
        return tuple(self._handles.values())

    def cancel(self, session_id: int) -> None:
        """Stop stepping a session (its results remain readable)."""
        try:
            self._sessions[session_id].cancel()
        except KeyError:
            raise UnknownSessionError(
                f"unknown session {session_id}") from None

    def active_sessions(self) -> tuple[QuerySession, ...]:
        """The engine-room sessions the shared clock still drives, in
        submission order (the driver's step source; most callers want
        :meth:`sessions`)."""
        active = tuple(s for s in self._live.values() if s.active)
        if len(active) != len(self._live):
            self._live = {s.session_id: s for s in active}
        return active

    def __repr__(self) -> str:
        return (f"Deployment({len(self.network.nodes)} nodes, "
                f"epoch {self.network.epoch}, "
                f"{len(self.active_sessions())}/{len(self._sessions)} "
                f"sessions active)")

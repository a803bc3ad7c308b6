"""``repro.api`` — the layered public facade of the server tier.

Three composable layers replace the old ``KSpotServer`` god-object:

* :class:`Deployment` — owns the network, schema, cluster mapping and
  baseline (shadow) factory; registers sessions
  (:meth:`~Deployment.submit` returns a handle). Build one from a
  :class:`~repro.scenarios.Scenario` via
  :meth:`Deployment.from_scenario` or from a raw ``Network``.
* :class:`EpochDriver` — owns the shared epoch clock and the step
  loop, with pluggable :class:`Intervention` objects
  (:class:`ChurnIntervention` wraps a churn schedule) and driver-level
  policies (``max_epochs``, ``stop_when_idle``, per-step hooks).
* :class:`SessionHandle` — the user-facing, read-only view of one
  query: a :class:`SessionState`, typed accessors for results, stats,
  recovery log and panels, a :meth:`~SessionHandle.watch` iterator,
  and push subscriptions (:meth:`~SessionHandle.on_result` /
  :meth:`~SessionHandle.on_recovery`).

The ninety-second tour (doctest-checked by ``tests/test_doctests.py``
— the example below runs, and its output is pinned, on every CI run):

    >>> from repro.api import Deployment, EpochDriver
    >>> from repro.scenarios import conference_scenario
    >>> deployment = Deployment.from_scenario(conference_scenario())
    >>> driver = EpochDriver(deployment)
    >>> handle = deployment.submit(
    ...     "SELECT TOP 1 roomid, MAX(sound) FROM sensors "
    ...     "GROUP BY roomid EPOCH DURATION 1 min")
    >>> for result in handle.watch(driver, epochs=3):
    ...     print(result.epoch,
    ...           [(i.key, round(i.score, 1)) for i in result.items],
    ...           result.exact)
    0 [('ConferenceRoomA', 62.4)] True
    1 [('ConferenceRoomA', 59.3)] True
    2 [('ConferenceRoomA', 54.3)] True

(Determinism is the simulator's contract: the scenario seed pins every
reading, and the lossless radio draws nothing, so a run is the same on
either the hot or reference path — see
``tests/test_hotpath_equivalence.py``.)

Errors raised by this layer live in :mod:`repro.errors` and are
re-exported here: :class:`SessionError` (base of the session
taxonomy), :class:`UnknownSessionError`, :class:`SubmissionError`.

This surface is snapshot-tested (``tests/api_surface.txt``), together
with the value types a handle returns (``EpochResult``, ``RankedItem``,
``CertificationOutcome``): additions and signature changes must update
the snapshot deliberately.
"""

from ..errors import SessionError, SubmissionError, UnknownSessionError
from .deployment import Deployment
from .driver import EpochDriver
from .handle import SessionHandle, SessionState
from .interventions import ChurnIntervention, Intervention

__all__ = [
    "Deployment",
    "EpochDriver",
    "SessionHandle",
    "SessionState",
    "Intervention",
    "ChurnIntervention",
    "SessionError",
    "UnknownSessionError",
    "SubmissionError",
]

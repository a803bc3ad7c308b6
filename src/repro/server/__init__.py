"""The KSpot server tier (§II) — engine room of :mod:`repro.api`.

The base station software: accepts declarative queries from the Query
Panel, validates them against the deployment, routes them to the right
top-k algorithm, disseminates execution into the network, and feeds the
Display and System panels as epoch results stream back.

The public surface of this tier is :mod:`repro.api` (``Deployment`` /
``EpochDriver`` / ``SessionHandle``). :class:`QuerySession` is the
internal per-query execution context those layers drive.
"""

from .session import QuerySession

__all__ = ["QuerySession"]

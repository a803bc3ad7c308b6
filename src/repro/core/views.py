"""Materialized in-network view state (the V_i / V'_i of §III-A).

Each epoch a node rebuilds V_i, its full view: one partial per group,
covering its own reading plus everything its children *reported*
(children may themselves have withheld mass, which their γ bounds).
V_i lives only for that pass; every node keeps:

* ``reported`` — V'_i, the subset its parent currently caches, i.e.
  exactly what the parent believes about this subtree; and
* ``withheld`` — the tuples pruned at this node this epoch (the probe
  phase answers from these).

The parent-side "cache" *is* the child's ``reported`` dict — the
simulator is shared-memory, so caching a child's last report reads as
the child exposing it. The invariant MINT maintains per edge:

    reported[g] is the exact partial for the mass it covers, and every
    reading of the subtree not covered by any ``reported`` entry lies
    in some pruned partial whose finalized value ≤ ``gamma_reported``.

This module is *node-side* state only. The sink derives the per-group
certified intervals from its children's ``reported`` caches each epoch
and ranks them with :func:`~repro.core.certify.certify_top_k`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .aggregates import Partial

GroupKey = Hashable


@dataclass
class MintNodeState:
    """Per-node MINT state for one continuous query."""

    #: V'_i as the parent knows it (the edge cache).
    reported: dict[GroupKey, Partial] = field(default_factory=dict)
    #: γ as last shipped to the parent (None until first report).
    gamma_reported: float | None = None
    #: Tuples pruned at this node in the current epoch.
    withheld: dict[GroupKey, Partial] = field(default_factory=dict)

    def reset(self) -> None:
        """Forget everything (topology changed; creation phase re-runs)."""
        self.reported.clear()
        self.withheld.clear()
        self.gamma_reported = None


def max_gamma(*gammas: float | None) -> float | None:
    """Combine γ descriptors: the max of those present (None = no mass).

    γ is an upper bound over *all* pruned partials below a point in the
    tree, so combining descriptors from disjoint subtrees takes the max.
    """
    present = [g for g in gammas if g is not None]
    if not present:
        return None
    return max(present)

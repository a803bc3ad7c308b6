"""The paper's contribution: in-network top-k query processing.

Algorithms:

* :class:`~repro.core.mint.Mint` — MINT views for snapshot (and
  windowed historic-horizontal) top-k queries: creation / pruning /
  update phases, γ descriptors, certification, probe fallback.
* :class:`~repro.core.tja.Tja` — the Threshold Join Algorithm for
  historic vertically-fragmented top-k queries: lower-bound /
  hierarchical-join / clean-up phases.
* Baselines: :class:`~repro.core.tag.Tag` (full in-network
  aggregation), :class:`~repro.core.centralized.Centralized` (raw
  readings to the sink), :class:`~repro.core.naive.NaiveTopK` (the
  *wrongful* greedy pruning of §III-A), :class:`~repro.core.tput.Tput`
  (PODC'04 three-round protocol) and :class:`~repro.core.fila.Fila`
  (filter-based monitoring, ICDE'06).

:class:`~repro.core.engine.KSpotEngine` routes a logical plan to the
right algorithm, mirroring the paper's query router.
"""

from .aggregates import Aggregate, Bounds, Partial
from .certify import CertificationOutcome, certify_top_k
from .delta import BoundsDelta, DeltaEntry, TopKView
from .engine import KSpotEngine
from .results import (EpochResult, RankedItem, is_valid_top_k, oracle_scores,
                      oracle_top_k)
from .mint import Mint, MintConfig
from .tja import Tja, TjaResult
from .tag import Tag
from .centralized import Centralized
from .naive import NaiveTopK
from .tput import Tput, TputResult
from .fila import Fila

__all__ = [
    "Aggregate",
    "Partial",
    "Bounds",
    "certify_top_k",
    "CertificationOutcome",
    "BoundsDelta",
    "DeltaEntry",
    "TopKView",
    "RankedItem",
    "EpochResult",
    "oracle_top_k",
    "oracle_scores",
    "is_valid_top_k",
    "Mint",
    "MintConfig",
    "Tja",
    "TjaResult",
    "Tag",
    "Centralized",
    "NaiveTopK",
    "Tput",
    "TputResult",
    "Fila",
    "KSpotEngine",
]

"""Top-k certification from per-group bound intervals.

Given a certified interval ``[lb, ub]`` per group, the sink can often
*prove* the answer without seeing every reading:

1. rank groups by lower bound and take τ = the k-th largest lb;
2. every group whose ub < τ provably cannot displace the chosen k;
3. the groups with ub ≥ τ form the *ambiguous set* — if it has exactly
   k members the set answer is certified; otherwise a probe must fetch
   exact values for precisely those groups.

After probing, every ambiguous group's interval is a point, so the set
*and the order* of the answer are exact.

:func:`certify_top_k` here is the stateless **reference oracle** of
that decision procedure: given a full bounds mapping it re-derives
everything from scratch, O(N log N) per call. MINT's sink calls it
every epoch on both paths, since nearly every group's interval moves
each epoch. FILA's sink, which certifies N node intervals several
times an epoch, keeps them as float pairs in a
:class:`~repro.core.delta.TopKView` on the optimized path
(:mod:`repro.network.hotpath`) instead, which ranks them in one C
sort per changed outcome; its ``outcome()`` is proven byte-identical
to this oracle (``tests/test_delta_equivalence.py``).
The oracle stays authoritative: the reference path runs it cold, and
every equivalence test compares the view against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from ..errors import ValidationError
from .aggregates import Bounds
from .results import RankedItem, rank_key


@dataclass(frozen=True)
class CertificationOutcome:
    """What the sink concluded from one round of bounds."""

    certified: bool
    items: tuple[RankedItem, ...]
    ambiguous: tuple[Hashable, ...]
    threshold: float

    @property
    def needs_probe(self) -> bool:
        """True when a probe round must resolve the ambiguous groups."""
        return not self.certified

    def as_dict(self) -> dict:
        """Plain-data form for JSON surfaces (mirrors
        :meth:`~repro.gui.stats.SavingsSample.as_dict`)."""
        return {
            "certified": self.certified,
            "threshold": self.threshold,
            "ambiguous": list(self.ambiguous),
            "items": [
                {"key": item.key, "score": item.score,
                 "lb": item.lb, "ub": item.ub}
                for item in self.items
            ],
            "needs_probe": self.needs_probe,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CertificationOutcome":
        """Rebuild an outcome from :meth:`as_dict` output."""
        return cls(
            certified=bool(data["certified"]),
            items=tuple(
                RankedItem(key=item["key"], score=item["score"],
                           lb=item["lb"], ub=item["ub"])
                for item in data["items"]
            ),
            ambiguous=tuple(data["ambiguous"]),
            threshold=data["threshold"],
        )


def certify_top_k(bounds: Mapping[Hashable, Bounds], k: int,
                  tolerance: float = 1e-9,
                  require_exact_scores: bool = True) -> CertificationOutcome:
    """Decide the top-k from intervals, or name the groups to probe.

    With ``require_exact_scores`` (MINT's mode), certification requires
    every chosen group's score to be exact (its interval collapsed)
    *and* every non-chosen group's upper bound to sit below the k-th
    chosen score: that certifies both membership and rank order,
    matching the paper's claim of exact answers. Without it (FILA's
    mode), only *set membership* must separate — silent nodes keep
    their filter intervals as scores.

    Args:
        bounds: Interval per group (every group that exists).
        k: Ranking depth; when fewer groups exist, all are returned.
        tolerance: Slack for float comparisons; intervals within
            tolerance of a point count as exact, and displacements must
            exceed it to block certification (ties may break either
            way — both orders are correct answers).
        require_exact_scores: Demand point scores for the chosen k.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not bounds:
        raise ValidationError("cannot certify an empty group set")
    effective_k = min(k, len(bounds))

    by_lb = sorted(bounds.items(),
                   key=lambda pair: rank_key(pair[0], pair[1].lb))
    threshold = by_lb[effective_k - 1][1].lb

    ambiguous = tuple(sorted(
        (group for group, interval in bounds.items()
         if interval.ub >= threshold - tolerance),
        key=str,
    ))

    chosen = by_lb[:effective_k]
    chosen_exact = (not require_exact_scores) or all(
        interval.ub - interval.lb <= tolerance for _, interval in chosen)
    others_below = all(
        interval.ub <= threshold + tolerance
        for group, interval in bounds.items()
        if group not in {g for g, _ in chosen}
    )
    certified = chosen_exact and others_below

    items = tuple(
        RankedItem(key=group, score=interval.midpoint,
                   lb=interval.lb, ub=interval.ub)
        for group, interval in chosen
    )
    return CertificationOutcome(
        certified=certified,
        items=items,
        ambiguous=ambiguous,
        threshold=threshold,
    )

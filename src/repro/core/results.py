"""Result types and the centralized oracle used for validation.

Results carry both the point score and the certified interval so the
GUI can display rankings with their confidence and tests can check
exactness claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, NamedTuple

from ..errors import ValidationError
from .aggregates import Aggregate, Partial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (certify
    from .certify import CertificationOutcome  # imports RankedItem)


def rank_key(key: Hashable, score: float) -> tuple:
    """Deterministic ranking: score descending, then key ascending.

    Stringifying the key breaks ties across int/str group labels
    without type errors.
    """
    return (-score, str(key))


class RankedItem(NamedTuple):
    """One answer row: a group (or object) and its certified score.

    A NamedTuple rather than a frozen dataclass: FILA's sink builds k
    rows per changed outcome (200 per outcome on a top-200 query), and
    a tuple is built in C, where a frozen dataclass ``__init__`` pays
    one ``object.__setattr__`` per field. Field access, ``repr`` and
    hashing read as before; as a tuple, a row is also iterable,
    indexable and orderable, and equals a plain 4-tuple of its fields.
    """

    key: Hashable
    score: float
    lb: float
    ub: float

    @property
    def exact(self) -> bool:
        """True when the score interval is a point."""
        return self.lb == self.ub


@dataclass(frozen=True)
class EpochResult:
    """The top-k answer produced for one epoch.

    Attributes:
        epoch: The acquisition round this answers.
        items: The k highest-ranked answers, best first.
        exact: Whether the algorithm certifies the answer. MINT
            certifies that keys, order and scores equal the centralized
            oracle's; FILA certifies the key *set* only, ranking and
            scoring from each item's ``[lb, ub]``. Baselines that are
            exact by construction set it; the naive algorithm never
            does.
        algorithm: Producing algorithm name (for panels and logs).
        probed: Number of probe/clean-up rounds the epoch needed.
        certification: The sink's final
            :class:`~repro.core.certify.CertificationOutcome` for the
            epoch (certifying engines only — MINT and FILA attach it;
            baselines that never certify leave it None).
    """

    epoch: int
    items: tuple[RankedItem, ...]
    exact: bool
    algorithm: str
    probed: int = 0
    certification: "CertificationOutcome | None" = None

    @property
    def keys(self) -> tuple[Hashable, ...]:
        """The answer keys in rank order."""
        return tuple(item.key for item in self.items)

    @property
    def top(self) -> RankedItem:
        """The single highest-ranked answer."""
        if not self.items:
            raise ValidationError("empty result has no top item")
        return self.items[0]


def oracle_top_k(readings: Mapping[int, float],
                 group_of: Mapping[int, Hashable],
                 aggregate: Aggregate, k: int) -> tuple[RankedItem, ...]:
    """The ground-truth top-k, computed with global knowledge.

    This is the "centralized manner" reference of §I: aggregate every
    reading per group, rank, cut at k. All algorithms' exactness is
    judged against it.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    scored = sorted(oracle_scores(readings, group_of, aggregate).items(),
                    key=lambda pair: rank_key(*pair))
    return tuple(
        RankedItem(key=group, score=score, lb=score, ub=score)
        for group, score in scored[:k]
    )


def oracle_scores(readings: Mapping[int, float],
                  group_of: Mapping[int, Hashable],
                  aggregate: Aggregate) -> dict[Hashable, float]:
    """Ground-truth score of *every* group (the full ranking)."""
    partials: dict[Hashable, Partial] = {}
    for node_id, value in readings.items():
        group = group_of.get(node_id, node_id)
        lifted = aggregate.from_value(value)
        existing = partials.get(group)
        partials[group] = (lifted if existing is None
                           else aggregate.merge(existing, lifted))
    return {group: aggregate.finalize(partial)
            for group, partial in partials.items()}


def is_valid_top_k(items: Iterable[RankedItem],
                   true_scores: Mapping[Hashable, float], k: int,
                   tolerance: float = 1e-9) -> bool:
    """Whether an answer is *a* correct top-k under some tie-break.

    An answer is valid when (i) it has min(k, #groups) rows, (ii) every
    claimed score equals the group's true score, (iii) rows are sorted
    by score descending, and (iv) the claimed score multiset matches
    the true k highest scores — which is precisely the freedom a
    tie-break leaves.
    """
    answer = list(items)
    expected_len = min(k, len(true_scores))
    if len(answer) != expected_len:
        return False
    for item in answer:
        true = true_scores.get(item.key)
        if true is None or abs(item.score - true) > tolerance:
            return False
    claimed = [item.score for item in answer]
    if any(claimed[i] < claimed[i + 1] - tolerance
           for i in range(len(claimed) - 1)):
        return False
    best = sorted(true_scores.values(), reverse=True)[:expected_len]
    return all(abs(c - t) <= tolerance
               for c, t in zip(sorted(claimed, reverse=True), best))

"""Incremental top-k certification view over per-group intervals.

FILA's sink certifies its N node intervals several times an epoch: the
monitor pass, each probe round and the answer. :class:`TopKView` holds
those intervals as one ``(lb, ub)`` float pair per group and derives
from them everything :func:`~repro.core.certify.certify_top_k` derives
— the rank order by lower bound, the k-boundary threshold τ (the k-th
largest lower bound), the ambiguous set (every group whose ub reaches
τ − tolerance) and the chosen items — by ranking every row in one
stable C sort whenever the pairs changed since the last outcome: the
rows, taken in ``str`` order of their groups, sorted by lb descending.
Taking them in string order makes lb ties fall as the oracle's
``rank_key`` breaks them, keys that print alike keeping their
insertion order as its stable sorts do; that order is recomputed only
when the key set changes. The sort key is a list's ``__getitem__``, so
CPython compares plain floats, and the view reads no column backend.

On FILA's stream a pass moves most of the N intervals, so the view
does not maintain sorted orders per move: it processes the change by
rewriting pairs and ranks the state once per outcome. What it saves
over the cold oracle is the per-group :class:`~repro.core.aggregates.
Bounds`, the Python-level ``rank_key`` sort and an outcome per
unchanged state (cached until the next move).

A dirty outcome costs that sort plus its k answer rows, each a
:class:`~repro.core.results.RankedItem` tuple built positionally, about
0.4 µs a row where the frozen dataclass it replaced cost 1.1–1.3 µs. On
bench ``fila``'s view (400 pairs, k = 200) an outcome takes 180–260 µs
(360–530 µs with the dataclass rows), about half of it in the rows.

The stateless oracle stays authoritative: for any view content,
``view.outcome()`` equals ``certify_top_k(dict(view.bounds), k,
tolerance, require_exact_scores)`` byte for byte — certified flag,
items, ambiguous tuple, threshold. FILA feeds its view on the
optimized path (:mod:`repro.network.hotpath`); the reference path
calls the oracle cold, and ``tests/test_delta_equivalence.py`` proves
the two identical across random views, engines and churn. MINT and
TAG keep no view.

:class:`BoundsDelta` is the Z-set batch form of a change (per-group
retract/assert pairs, birth and death included) that :meth:`TopKView.
apply`, :meth:`~TopKView.reconcile` and :meth:`~TopKView.
reconcile_scores` consume. No engine feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from ..errors import ValidationError
from .aggregates import Bounds
from .certify import CertificationOutcome
from .results import RankedItem

GroupKey = Hashable


@dataclass(frozen=True)
class DeltaEntry:
    """One group's change: retract ``old``, assert ``new``.

    ``old is None`` is a group **birth** (churn created the group or it
    entered the query's scope), ``new is None`` a group **death**.
    """

    group: GroupKey
    old: Bounds | None
    new: Bounds | None

    @property
    def born(self) -> bool:
        """True when this entry creates the group in the view."""
        return self.old is None

    @property
    def died(self) -> bool:
        """True when this entry removes the group from the view."""
        return self.new is None


@dataclass(frozen=True)
class BoundsDelta:
    """A batch of per-group interval changes for one maintenance step.

    The weighted-delta batch of the DBSP framing: each entry carries
    the retracted old interval and the asserted new one, so applying a
    delta to a view whose content does not match the retractions is an
    error (:class:`~repro.errors.ValidationError`), not a silent
    divergence.
    """

    entries: tuple[DeltaEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[DeltaEntry]:
        return iter(self.entries)

    @property
    def births(self) -> int:
        """Entries creating a group."""
        return sum(1 for entry in self.entries if entry.born)

    @property
    def deaths(self) -> int:
        """Entries removing a group."""
        return sum(1 for entry in self.entries if entry.died)

    @classmethod
    def diff(cls, old: Mapping[GroupKey, Bounds],
             new: Mapping[GroupKey, Bounds]) -> "BoundsDelta":
        """The delta turning mapping ``old`` into mapping ``new``."""
        entries = []
        births = 0
        old_get = old.get
        append = entries.append
        for group, interval in new.items():
            before = old_get(group)
            if before is interval:
                continue
            if before is None:
                births += 1
            elif before.lb == interval.lb and before.ub == interval.ub:
                continue
            append(DeltaEntry(group, before, interval))
        if len(old) > len(new) - births:
            entries.extend(DeltaEntry(group, interval, None)
                           for group, interval in old.items()
                           if group not in new)
        return cls(tuple(entries))


class TopKView:
    """A top-k certification view over per-group ``(lb, ub)`` pairs.

    The mutation surface: :meth:`ensure_many` converges a whole pass
    of pairs (FILA's monitor, probe and answer passes) and
    :meth:`delete` retracts a group (a FILA node that died or can no
    longer report); :meth:`set` and :meth:`ensure` are the one-group
    forms, :meth:`apply`, :meth:`reconcile` and
    :meth:`reconcile_scores` the :class:`BoundsDelta` ones. Every
    mutation that moves a pair voids the cached outcome; the next
    :meth:`outcome` ranks the whole view once.
    """

    def __init__(self, k: int, *, tolerance: float = 1e-9,
                 require_exact_scores: bool = True):
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = k
        self.tolerance = tolerance
        self.require_exact_scores = require_exact_scores
        #: group → (lb, ub), in the order the groups arrived.
        self._pairs: dict[GroupKey, tuple[float, float]] = {}
        #: The groups in ``_pairs`` order at the last string ranking,
        #: None once the key set has changed since, and their rows in
        #: string order.
        self._keys: list[GroupKey] | None = None
        self._by_str: list[int] = []
        #: Last outcome, valid until the next move (outcomes are
        #: frozen, so sharing is safe).
        self._cached_outcome: CertificationOutcome | None = None

    # -- mapping surface ------------------------------------------------

    @property
    def pairs(self) -> Mapping[GroupKey, tuple[float, float]]:
        """The per-group ``(lb, ub)`` pairs (do not mutate: every write
        goes through the mutation surface, which voids the outcome)."""
        return self._pairs

    @property
    def bounds(self) -> dict[GroupKey, Bounds]:
        """A fresh ``{group: Bounds}`` snapshot of the view, in its
        order: the mapping the cold oracle is handed."""
        return {group: Bounds(lb, ub)
                for group, (lb, ub) in self._pairs.items()}

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, group: GroupKey) -> bool:
        return group in self._pairs

    # -- mutations ------------------------------------------------------

    def set(self, group: GroupKey, new: Bounds) -> None:
        """Assert ``group``'s interval (group birth when absent)."""
        self.ensure(group, new.lb, new.ub)

    def ensure(self, group: GroupKey, lb: float, ub: float) -> bool:
        """Converge one group to ``[lb, ub]``; True when it changed."""
        return self.ensure_many(((group, (lb, ub)),)) == 1

    # repro: hot
    def ensure_many(self, changes: Iterable[tuple[GroupKey,
                                                  tuple[float, float]]]
                    ) -> int:
        """Converge every ``(group, (lb, ub))`` in order as one batch;
        returns how many groups moved.

        An unchanged pair costs one tuple comparison. A group listed
        twice ends at its last pair, as with per-group calls.
        """
        pairs = self._pairs
        pairs_get = pairs.get
        size = len(pairs)
        moved = 0
        for group, pair in changes:
            if pairs_get(group) != pair:
                pairs[group] = pair
                moved += 1
        if moved:
            self._cached_outcome = None
            if len(pairs) != size:
                self._keys = None
        return moved

    def delete(self, group: GroupKey) -> bool:
        """Retract ``group`` entirely (group death); True if present."""
        if self._pairs.pop(group, None) is None:
            return False
        self._keys = None
        self._cached_outcome = None
        return True

    # repro: hot
    def apply(self, delta: BoundsDelta) -> None:
        """Apply one delta batch, validating its retractions.

        Every entry's ``old`` must match what the view holds — the
        Z-set discipline that turns an engine bug (a stale or doubly-
        applied delta) into an immediate error instead of a silently
        wrong answer.
        """
        pairs = self._pairs
        for entry in delta.entries:
            current = pairs.get(entry.group)
            old = entry.old
            if ((current is None) != (old is None)
                    or (current is not None
                        and current != (old.lb, old.ub))):
                raise ValidationError(
                    f"stale delta for group {entry.group!r}: view holds "
                    f"{current}, delta retracts {old}")
            self._apply_entry(entry)

    def _apply_diffed(self, delta: BoundsDelta) -> None:
        """Apply a delta this view just diffed against itself, whose
        retractions are current by construction."""
        for entry in delta.entries:
            self._apply_entry(entry)

    def _apply_entry(self, entry: DeltaEntry) -> None:
        if entry.new is None:
            self.delete(entry.group)
        else:
            self.set(entry.group, entry.new)

    def reconcile(self, new_bounds: Mapping[GroupKey, Bounds]
                  ) -> BoundsDelta:
        """Diff the view against a full mapping and apply the delta.

        Births and deaths (churn) fall out of the diff. Returns the
        applied delta (empty when nothing changed).
        """
        delta = BoundsDelta.diff(self.bounds, new_bounds)
        self._apply_diffed(delta)
        return delta

    def reconcile_scores(self, scores: Mapping[GroupKey, float]
                         ) -> BoundsDelta:
        """Point-valued :meth:`reconcile`: allocates a Bounds only for
        groups that actually moved."""
        entries = []
        pairs = self._pairs
        births = 0
        for group, score in scores.items():
            old = pairs.get(group)
            if old is None:
                births += 1
            elif old == (score, score):
                continue
            entries.append(DeltaEntry(
                group, None if old is None else Bounds(*old),
                Bounds(score, score)))
        if len(pairs) > len(scores) - births:
            entries.extend(DeltaEntry(group, Bounds(*old), None)
                           for group, old in pairs.items()
                           if group not in scores)
        delta = BoundsDelta(tuple(entries))
        self._apply_diffed(delta)
        return delta

    # -- derived state --------------------------------------------------

    def _rerank(self) -> list[GroupKey]:
        """Re-derive the rows and their string order from the current
        key set: one C sort of ``(str(group), row)``, so keys that
        print alike keep their insertion order."""
        keys = list(self._pairs)
        self._by_str = [row for _, row in sorted(
            zip(map(str, keys), range(len(keys))))]
        self._keys = keys
        return keys

    # repro: hot
    def outcome(self) -> CertificationOutcome:
        """The certification outcome of the current view content.

        Byte-identical to ``certify_top_k(dict(self.bounds), self.k,
        self.tolerance, self.require_exact_scores)`` — the equivalence
        the hypothesis suite proves — from one C sort of the rows, or
        from the cache when no pair moved since the last call. A dirty
        call's largest part on a top-200 view is its k rows, built
        positionally as tuples (about 0.4 µs each).
        """
        cached = self._cached_outcome
        if cached is not None:
            return cached
        pairs = self._pairs
        if not pairs:
            raise ValidationError("cannot certify an empty group set")
        keys = self._keys
        if keys is None:
            keys = self._rerank()
        by_str = self._by_str
        rows = list(pairs.values())
        lbs = [pair[0] for pair in rows]
        # Stable, so rows with equal lbs stay in string order.
        order = sorted(by_str, key=lbs.__getitem__, reverse=True)
        effective_k = min(self.k, len(rows))
        chosen = order[:effective_k]
        # τ: the k-th row's own lb (bit-equality with the oracle).
        threshold = lbs[chosen[-1]]
        tolerance = self.tolerance
        cut = threshold - tolerance
        ambiguous = tuple(keys[row] for row in by_str
                          if rows[row][1] >= cut)
        chosen_exact = True
        if self.require_exact_scores:
            for row in chosen:
                lb, ub = rows[row]
                if ub - lb > tolerance:
                    chosen_exact = False
                    break
        ceiling = threshold + tolerance
        others_below = True
        for row in order[effective_k:]:
            if rows[row][1] > ceiling:
                others_below = False
                break

        items = []
        for row in chosen:
            lb, ub = rows[row]
            items.append(RankedItem(keys[row], (lb + ub) / 2.0, lb, ub))
        outcome = CertificationOutcome(
            certified=chosen_exact and others_below,
            items=tuple(items),
            ambiguous=ambiguous,
            threshold=threshold,
        )
        self._cached_outcome = outcome
        return outcome

    def __repr__(self) -> str:
        return (f"TopKView(k={self.k}, groups={len(self._pairs)}, "
                f"require_exact_scores={self.require_exact_scores})")

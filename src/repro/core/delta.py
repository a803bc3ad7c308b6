"""Incremental top-k view maintenance: weighted deltas over a sink view.

FILA's sink certifies its N node intervals several times an epoch (the
monitor pass, each probe round, the answer), yet a pass moves only a
few of them: the violations, the probed nodes and the reinstalled
filters. Re-running :func:`~repro.core.certify.certify_top_k` from
scratch would re-rank all N nodes per call. This module is the
DBSP/Z-set treatment of that cost: the bound changes form a
:class:`BoundsDelta` (a batch of per-group retract/assert pairs, group
birth and death included), and a :class:`TopKView` *maintains*
everything the certifier derives —

* the ranked-by-lower-bound order (the ``rank_key`` order),
* the k-boundary threshold τ (the k-th largest lower bound),
* the ambiguous set (every group whose ub reaches τ − tolerance), and
* the per-group interval partials themselves —

applying a delta in O(|delta| · log N) bisect updates instead of
re-ranking all N groups, and answering :meth:`TopKView.outcome` in
O(k + |ambiguous| + log N).

The stateless :func:`~repro.core.certify.certify_top_k` stays as the
**reference oracle**: for any view content whose keys print apart,
``view.outcome()`` equals ``certify_top_k(dict(view.bounds), k,
tolerance, require_exact_scores)`` byte for byte — certified flag,
items, ambiguous tuple, threshold. FILA feeds its view only on the
optimized path (:mod:`repro.network.hotpath`); the reference path
calls the oracle cold, and ``tests/test_delta_equivalence.py`` proves
the two paths identical across random scenarios, engines and churn.
MINT and TAG keep no view: nearly every group's interval moves each
epoch there, so both rank from scratch on either path.

Keys that print alike (the int ``1`` and the str ``"1"``) would tie in
the oracle's dict insertion order, which a sorted structure cannot
observe. No engine can hit that: FILA ranks node ids.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterator, Mapping

from ..errors import ValidationError
from .aggregates import Bounds, SortKeys
from .certify import CertificationOutcome
from .results import RankedItem

GroupKey = Hashable


#: Sort key for rebuilding the maintained orders: (sort value,
#: stringified group), built in C. The raw group key is never compared
#: — mixed int/str key spaces must not raise where the oracle's
#: ``rank_key`` does not. Bisect probes use the same discipline: a
#: 2-tuple ``(sort value, gstr)`` compares against the stored 3-tuples
#: entirely in C, and an equal prefix makes the longer stored tuple
#: sort *after* the probe — so ``bisect_left`` always lands before every
#: entry sharing the prefix, never touching the group slot.
_order_key = itemgetter(0, 1)


def _insert(order: list, entry: tuple) -> None:
    """Insert a ``(sort value, gstr, group)`` entry at its C-bisected
    position (before any entries sharing the (value, gstr) prefix)."""
    order.insert(bisect_left(order, entry[:2]), entry)


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
    """A maintained top-k certification view over group bounds.

    Holds the same ``{group: Bounds}`` mapping the cold certifier is
    handed (exposed read-only as :attr:`bounds`) plus two bisect-
    maintained orders — by ``(-lb, str(group))`` (the oracle's
    ``rank_key`` ranking) and by ``(ub, str(group))`` (the ambiguous
    cut) — so a delta of d groups costs O(d · log N) and a
    certification outcome O(k + |ambiguous| + log N).

    The mutation surface: :meth:`ensure_many` converges a whole pass
    of bounds (FILA's monitor, probe and answer passes) and
    :meth:`delete` retracts a group (a FILA node that died or can no
    longer report); :meth:`set` and :meth:`ensure` are the one-group
    forms, :meth:`apply`, :meth:`reconcile` and
    :meth:`reconcile_scores` the whole-batch ones.
    """

    def __init__(self, k: int, *, tolerance: float = 1e-9,
                 require_exact_scores: bool = True):
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = k
        self.tolerance = tolerance
        self.require_exact_scores = require_exact_scores
        self._bounds: dict[GroupKey, Bounds] = {}
        #: Ranked by (-lb, str(group), ·): the oracle's rank_key order.
        self._by_lb: list[tuple[float, str, GroupKey]] = []
        #: Ascending (ub, str(group), ·): the ambiguous-cut order.
        self._by_ub: list[tuple[float, str, GroupKey]] = []
        self._gstr = SortKeys()
        #: Last outcome, valid until the next mutation — the view is
        #: the only state between certifications, so an unchanged epoch
        #: answers in O(1) (outcomes are frozen, sharing is safe).
        self._cached_outcome: CertificationOutcome | None = None

    # -- mapping surface ------------------------------------------------

    @property
    def bounds(self) -> Mapping[GroupKey, Bounds]:
        """The maintained per-group intervals (do not mutate: every
        write must go through the delta surface to keep the orders)."""
        return self._bounds

    def __len__(self) -> int:
        return len(self._bounds)

    def __contains__(self, group: GroupKey) -> bool:
        return group in self._bounds

    # -- single-group deltas --------------------------------------------

    def set(self, group: GroupKey, new: Bounds) -> None:
        """Assert ``group``'s interval (group birth when absent)."""
        old = self._bounds.get(group)
        if old is not None and old.lb == new.lb and old.ub == new.ub:
            return
        self._bounds[group] = new
        self._reorder(group, old, new)
        self._cached_outcome = None

    def ensure(self, group: GroupKey, lb: float, ub: float) -> bool:
        """Converge one group to ``[lb, ub]``; True when it changed.

        Takes raw floats, so an unchanged bound costs two comparisons
        and zero allocations.
        """
        old = self._bounds.get(group)
        if old is not None and old.lb == lb and old.ub == ub:
            return False
        self.set(group, Bounds(lb, ub))
        return True

    # repro: hot
    def ensure_many(self, changes: list[tuple[GroupKey, float, float]]
                    ) -> int:
        """:meth:`ensure` every ``(group, lb, ub)`` in order as one
        batch; returns how many groups moved.

        Unchanged bounds cost two comparisons each. The moved ones
        follow the batch rule of :meth:`apply` (:meth:`_is_bulk`): a
        batch moving a quarter of the view re-sorts both orders once,
        a smaller one pays a bisected update per move. A group listed
        twice ends at its last bound, as with per-group calls.
        """
        bounds = self._bounds
        moved = []
        for group, lb, ub in changes:
            old = bounds.get(group)
            if old is not None and old.lb == lb and old.ub == ub:
                continue
            new = bounds[group] = Bounds(lb, ub)
            moved.append((group, old, new))
        if not moved:
            return 0
        if self._is_bulk(len(moved)):
            self._rebuild()
            return len(moved)
        for group, old, new in moved:
            self._reorder(group, old, new)
        self._cached_outcome = None
        return len(moved)

    def _reorder(self, group: GroupKey, old: Bounds | None,
                 new: Bounds) -> None:
        """Move ``group`` from ``old`` (None: a birth) to ``new`` in
        both maintained orders by bisected pops and inserts."""
        gstr = self._gstr[group]
        if old is not None:
            self._pop(self._by_lb, (-old.lb, gstr), group)
            self._pop(self._by_ub, (old.ub, gstr), group)
        _insert(self._by_lb, (-new.lb, gstr, group))
        _insert(self._by_ub, (new.ub, gstr, group))

    def delete(self, group: GroupKey) -> bool:
        """Retract ``group`` entirely (group death); True if present."""
        old = self._bounds.pop(group, None)
        if old is None:
            return False
        gstr = self._gstr[group]
        self._pop(self._by_lb, (-old.lb, gstr), group)
        self._pop(self._by_ub, (old.ub, gstr), group)
        self._cached_outcome = None
        return True

    @staticmethod
    def _pop(order: list, key: tuple, group: GroupKey) -> None:
        index = bisect_left(order, key)
        for probe in range(index, len(order)):
            entry = order[probe]
            if (entry[0], entry[1]) != key:
                break
            if entry[2] == group:
                del order[probe]
                return
        raise ValidationError(
            f"view order lost group {group!r} at key {key!r}")

    # -- batch deltas ---------------------------------------------------

    # repro: hot
    def apply(self, delta: BoundsDelta) -> None:
        """Apply one delta batch, validating its retractions.

        Every entry's ``old`` must match what the view holds — the
        Z-set discipline that turns an engine bug (a stale or doubly-
        applied delta) into an immediate error instead of a silently
        wrong answer.
        """
        bounds = self._bounds
        bulk = self._is_bulk(len(delta.entries))
        for entry in delta.entries:
            current = bounds.get(entry.group)
            old = entry.old
            if ((current is None) != (old is None)
                    or (current is not None
                        and (current.lb != old.lb
                             or current.ub != old.ub))):
                raise ValidationError(
                    f"stale delta for group {entry.group!r}: view holds "
                    f"{current}, delta retracts {old}")
            if bulk:
                if entry.new is None:
                    del bounds[entry.group]
                else:
                    bounds[entry.group] = entry.new
            elif entry.new is None:
                self.delete(entry.group)
            else:
                self.set(entry.group, entry.new)
        if bulk:
            self._rebuild()

    def _apply_diffed(self, delta: BoundsDelta) -> None:
        """Apply a delta this view just diffed against itself.

        The retractions are tautologically current, so the Z-set
        staleness check of :meth:`apply` would re-prove what the diff
        loop established — :meth:`reconcile` skips straight to the
        order maintenance.
        """
        bounds = self._bounds
        if self._is_bulk(len(delta.entries)):
            for entry in delta.entries:
                if entry.new is None:
                    del bounds[entry.group]
                else:
                    bounds[entry.group] = entry.new
            self._rebuild()
            return
        for entry in delta.entries:
            if entry.new is None:
                self.delete(entry.group)
            else:
                self.set(entry.group, entry.new)

    def _is_bulk(self, changes: int) -> bool:
        """True when a batch of ``changes`` should re-sort the view.

        A batch touching a quarter of the view or more re-sorts from
        scratch (one C sort per order, :meth:`_rebuild`) instead of
        paying O(d · log N) bisected updates — the same trade a B-tree
        bulk load makes. Every batch form shares this rule."""
        return 4 * changes >= len(self._bounds)

    def _rebuild(self) -> None:
        """Re-derive both orders from the bounds mapping wholesale."""
        gstr = self._gstr
        items = self._bounds.items()
        self._by_lb = sorted(
            [(-interval.lb, gstr[group], group)
             for group, interval in items], key=_order_key)
        self._by_ub = sorted(
            [(interval.ub, gstr[group], group)
             for group, interval in items], key=_order_key)
        self._cached_outcome = None

    def reconcile(self, new_bounds: Mapping[GroupKey, Bounds]
                  ) -> BoundsDelta:
        """Diff the view against a full mapping and apply the delta.

        The O(N) compare loop allocates nothing for unchanged groups;
        only the changed entries pay the O(log N) order updates. Births
        and deaths (churn) fall out of the diff. Returns the applied
        delta (empty when the epoch changed nothing).
        """
        delta = BoundsDelta.diff(self._bounds, new_bounds)
        if delta:
            self._apply_diffed(delta)
        return delta

    def reconcile_scores(self, scores: Mapping[GroupKey, float]
                         ) -> BoundsDelta:
        """Point-valued :meth:`reconcile`: allocates a Bounds only for
        groups that actually moved."""
        entries = []
        bounds = self._bounds
        births = 0
        for group, score in scores.items():
            old = bounds.get(group)
            if old is None:
                births += 1
            elif old.lb == score and old.ub == score:
                continue
            entries.append(DeltaEntry(group, old, Bounds(score, score)))
        if len(bounds) > len(scores) - births:
            entries.extend(DeltaEntry(group, old, None)
                           for group, old in bounds.items()
                           if group not in scores)
        delta = BoundsDelta(tuple(entries))
        if delta:
            self._apply_diffed(delta)
        return delta

    # -- derived state --------------------------------------------------

    def outcome(self) -> CertificationOutcome:
        """The certification outcome of the current view content.

        Byte-identical to ``certify_top_k(dict(self.bounds), self.k,
        self.tolerance, self.require_exact_scores)`` — the equivalence
        the hypothesis suite proves — at O(k + |ambiguous| + log N)
        instead of the oracle's O(N log N).
        """
        cached = self._cached_outcome
        if cached is not None:
            return cached
        bounds = self._bounds
        if not bounds:
            raise ValidationError("cannot certify an empty group set")
        tolerance = self.tolerance
        effective_k = min(self.k, len(bounds))
        by_lb = self._by_lb
        # τ: the lb of the k-th entry in rank order (the float itself,
        # not a re-negation — bit-equality with the oracle matters).
        threshold = bounds[by_lb[effective_k - 1][2]].lb

        by_ub = self._by_ub
        first = bisect_left(by_ub, (threshold - tolerance,))
        flagged = [(entry[1], position, entry[2])
                   for position, entry in enumerate(by_ub[first:])]
        flagged.sort()
        ambiguous = tuple(entry[2] for entry in flagged)

        chosen = by_lb[:effective_k]
        chosen_exact = True
        if self.require_exact_scores:
            for _, _, group in chosen:
                interval = bounds[group]
                if interval.ub - interval.lb > tolerance:
                    chosen_exact = False
                    break
        others_below = True
        if len(bounds) > effective_k:
            ceiling = threshold + tolerance
            chosen_groups = {group for _, _, group in chosen}
            # The max non-chosen ub decides; walk down from the top of
            # the ub order past at most k chosen entries.
            for position in range(len(by_ub) - 1, -1, -1):
                entry = by_ub[position]
                if entry[2] in chosen_groups:
                    continue
                others_below = entry[0] <= ceiling
                break

        items = []
        for _, _, group in chosen:
            interval = bounds[group]
            items.append(RankedItem(key=group, score=interval.midpoint,
                                    lb=interval.lb, ub=interval.ub))
        outcome = CertificationOutcome(
            certified=chosen_exact and others_below,
            items=tuple(items),
            ambiguous=ambiguous,
            threshold=threshold,
        )
        self._cached_outcome = outcome
        return outcome

    def __repr__(self) -> str:
        return (f"TopKView(k={self.k}, groups={len(self._bounds)}, "
                f"require_exact_scores={self.require_exact_scores})")

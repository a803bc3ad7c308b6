"""Partial-aggregate algebra with bound logic.

Everything in-network aggregation does reduces to three operations on
*partial states* — initialise from a reading, merge two partials,
finalize to a value (the TAG decomposition) — plus, for top-k pruning,
a fourth: **bound** the final value of a group given that some of its
readings were withheld (pruned) somewhere in the tree.

The bound contract (used by MINT's certification and probe logic):

* ``seen`` is the merged partial of every contribution that reached the
  sink; ``unseen`` is the exact number of readings still missing
  (known, because group cardinalities are learned in the creation
  phase and membership is static);
* every missing reading lies in the attribute's physical range
  ``[lo, hi]``; and
* every *pruned partial* containing missing readings finalized to a
  value ≤ ``gamma`` (the γ descriptor). ``gamma=None`` means no
  descriptor reached the sink, so only ``[lo, hi]`` constrains.

Each aggregate derives a sound interval from those facts; the proofs
are one-liners noted per class (the AVG case uses the mediant
inequality via sum/count mass accounting).

One :meth:`Aggregate.merge`, built from each class's ``combine``, and
one ``from_value`` (all but COUNT) serve all five; SUM, COUNT, MAX and
MIN finalize to the value in C, through ``operator.itemgetter(0)``.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

from ..errors import ValidationError


class SortKeys(dict):
    """group → ``str(group)`` memo for deterministic orderings.

    The engines' converge-cast loops sort views by the stringified
    group key at every node every epoch; group keys are a small static
    set, so the hot paths stringify each exactly once (shared by MINT
    and TAG).
    """

    def __missing__(self, group):
        key = self[group] = str(group)
        return key


class Partial(NamedTuple):
    """Mergeable aggregate state.

    ``value`` carries the sum for SUM/COUNT/AVG and the extremum for
    MIN/MAX; ``count`` is the number of readings folded in (the mass
    accounting the AVG bounds rely on).

    A NamedTuple rather than a dataclass: partials are created and
    compared millions of times per run in the converge-cast hot loop,
    and tuple construction/equality run in C.
    """

    value: float
    count: int


@dataclass(frozen=True, slots=True)
class Bounds:
    """A certified interval for a group's final aggregate value."""

    lb: float
    ub: float

    @property
    def exact(self) -> bool:
        """True when the interval has collapsed to a point."""
        return self.lb == self.ub

    @property
    def midpoint(self) -> float:
        """Point estimate used for provisional ranking."""
        return (self.lb + self.ub) / 2.0


class Aggregate(ABC):
    """One aggregate function bound to an attribute's physical range."""

    func: str = ""

    #: The value half of :meth:`merge`; every concrete aggregate sets
    #: it. A builtin or ``staticmethod`` (a plain function would bind),
    #: so TJA's join rows can ``map`` it in C and hot passes can merge
    #: inline with :meth:`merge`'s formula.
    combine: ClassVar[Callable[[float, float], float]]

    def __init__(self, lo: float, hi: float):
        if lo > hi:
            raise ValidationError("aggregate bounds need lo <= hi")
        self.lo = lo
        self.hi = hi

    # -- TAG algebra ----------------------------------------------------

    def from_value(self, value: float) -> Partial:
        """Lift one reading into a partial."""
        return Partial(value, 1)

    def merge(self, a: Partial, b: Partial) -> Partial:
        """Combine two disjoint partials: ``combine`` the values, add
        the counts (``Partial``'s constructor, minus a Python frame)."""
        return tuple.__new__(Partial,
                             (self.combine(a[0], b[0]), a[1] + b[1]))

    @abstractmethod
    def finalize(self, partial: Partial) -> float:
        """The aggregate value of a complete partial."""

    # -- Bound logic ------------------------------------------------------

    @abstractmethod
    def bounds(self, seen: Partial | None, unseen: int,
               gamma: float | None) -> Bounds:
        """Sound interval for the final value under the bound contract."""

    # -- Helpers ----------------------------------------------------------

    def _pruned_value_cap(self, gamma: float | None) -> float:
        """Upper bound on any missing reading mass per reading."""
        if gamma is None:
            return self.hi
        return min(gamma, self.hi)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lo={self.lo}, hi={self.hi})"


class AvgAggregate(Aggregate):
    """AVERAGE — the paper's running example.

    Bound proof sketch: final = (s + S') / (c + m) where the unseen sum
    S' is a union of pruned partials, each with average ≤ γ, so
    S' ≤ min(γ, hi)·m, and trivially S' ≥ lo·m.
    """

    func = "AVG"
    combine = operator.add

    def finalize(self, partial: Partial) -> float:
        if partial.count == 0:
            raise ValidationError("cannot finalize an empty AVG partial")
        return partial.value / partial.count

    def bounds(self, seen: Partial | None, unseen: int,
               gamma: float | None) -> Bounds:
        if unseen < 0:
            raise ValidationError("unseen count cannot be negative")
        if seen is None:
            if unseen == 0:
                raise ValidationError("a group with no readings has no bounds")
            return Bounds(self.lo, self._pruned_value_cap(gamma))
        if unseen == 0:
            exact = self.finalize(seen)
            return Bounds(exact, exact)
        total = seen.count + unseen
        cap = self._pruned_value_cap(gamma)
        return Bounds(
            lb=(seen.value + self.lo * unseen) / total,
            ub=(seen.value + cap * unseen) / total,
        )


class SumAggregate(Aggregate):
    """SUM. Unseen mass adds between lo·m and min(γ, hi)·m.

    (Each pruned partial sums to ≤ γ and covers ≥ 1 reading, so with m
    readings missing there are at most m pruned partials: S' ≤ γ·m; the
    per-reading cap gives S' ≤ hi·m; both hold, so the min does.)
    """

    func = "SUM"
    combine = operator.add
    finalize = operator.itemgetter(0)

    def bounds(self, seen: Partial | None, unseen: int,
               gamma: float | None) -> Bounds:
        if unseen < 0:
            raise ValidationError("unseen count cannot be negative")
        base = seen.value if seen is not None else 0.0
        if seen is None and unseen == 0:
            raise ValidationError("a group with no readings has no bounds")
        cap = self._pruned_value_cap(gamma)
        return Bounds(lb=base + self.lo * unseen, ub=base + cap * unseen)


class CountAggregate(Aggregate):
    """COUNT of readings. Every reading weighs exactly 1."""

    func = "COUNT"
    combine = operator.add
    finalize = operator.itemgetter(0)

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        super().__init__(0.0, 1.0)

    def from_value(self, value: float) -> Partial:
        return Partial(1.0, 1)

    def bounds(self, seen: Partial | None, unseen: int,
               gamma: float | None) -> Bounds:
        if unseen < 0:
            raise ValidationError("unseen count cannot be negative")
        base = seen.value if seen is not None else 0.0
        return Bounds(lb=base, ub=base + unseen)


class MaxAggregate(Aggregate):
    """MAX. Merging only raises the value; every missing reading ≤ cap."""

    func = "MAX"
    combine = max
    finalize = operator.itemgetter(0)

    def bounds(self, seen: Partial | None, unseen: int,
               gamma: float | None) -> Bounds:
        if unseen < 0:
            raise ValidationError("unseen count cannot be negative")
        cap = self._pruned_value_cap(gamma)
        if seen is None:
            if unseen == 0:
                raise ValidationError("a group with no readings has no bounds")
            return Bounds(self.lo, cap)
        if unseen == 0:
            return Bounds(seen.value, seen.value)
        return Bounds(lb=seen.value, ub=max(seen.value, cap))


class MinAggregate(Aggregate):
    """MIN. Missing readings can only lower the value, and at least one
    missing reading sits in a pruned partial whose min is ≤ γ."""

    func = "MIN"
    combine = min
    finalize = operator.itemgetter(0)

    def bounds(self, seen: Partial | None, unseen: int,
               gamma: float | None) -> Bounds:
        if unseen < 0:
            raise ValidationError("unseen count cannot be negative")
        cap = self._pruned_value_cap(gamma)
        if seen is None:
            if unseen == 0:
                raise ValidationError("a group with no readings has no bounds")
            return Bounds(self.lo, cap)
        if unseen == 0:
            return Bounds(seen.value, seen.value)
        return Bounds(lb=self.lo, ub=min(seen.value, cap))


_AGGREGATE_TYPES: dict[str, type[Aggregate]] = {
    "AVG": AvgAggregate,
    "AVERAGE": AvgAggregate,
    "SUM": SumAggregate,
    "COUNT": CountAggregate,
    "MAX": MaxAggregate,
    "MIN": MinAggregate,
}


def make_aggregate(func: str, lo: float, hi: float) -> Aggregate:
    """Instantiate the aggregate for a query's ranking function."""
    try:
        cls = _AGGREGATE_TYPES[func.upper()]
    except KeyError:
        known = ", ".join(sorted(_AGGREGATE_TYPES))
        raise ValidationError(
            f"unsupported aggregate {func!r}; supported: {known}"
        ) from None
    return cls(lo, hi)

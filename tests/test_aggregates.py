"""Partial-aggregate algebra and its bound logic."""

import functools
import itertools
import math
import operator

import pytest

from repro.core.aggregates import Aggregate, Bounds, Partial, make_aggregate
from repro.errors import ValidationError


class TestAlgebra:
    def test_avg_merge_finalize(self):
        avg = make_aggregate("AVG", 0, 100)
        merged = avg.merge(avg.from_value(40.0), avg.from_value(60.0))
        assert merged == Partial(100.0, 2)
        assert avg.finalize(merged) == 50.0

    def test_sum(self):
        s = make_aggregate("SUM", 0, 100)
        assert s.finalize(s.merge(s.from_value(3.0), s.from_value(4.0))) == 7.0

    def test_count_ignores_value(self):
        c = make_aggregate("COUNT", 0, 100)
        merged = c.merge(c.from_value(99.0), c.from_value(-5.0))
        assert c.finalize(merged) == 2.0

    def test_max_min(self):
        mx = make_aggregate("MAX", 0, 100)
        mn = make_aggregate("MIN", 0, 100)
        assert mx.finalize(mx.merge(mx.from_value(3.0), mx.from_value(9.0))) == 9.0
        assert mn.finalize(mn.merge(mn.from_value(3.0), mn.from_value(9.0))) == 3.0

    def test_merge_many(self):
        avg = make_aggregate("AVG", 0, 100)
        partials = [avg.from_value(v) for v in (10.0, 20.0, 30.0)]
        assert avg.finalize(functools.reduce(avg.merge, partials)) == 20.0

    def test_average_alias(self):
        assert make_aggregate("AVERAGE", 0, 1).func == "AVG"

    def test_unknown_function_rejected(self):
        with pytest.raises(ValidationError, match="unsupported"):
            make_aggregate("MEDIAN", 0, 1)

    def test_empty_avg_finalize_rejected(self):
        with pytest.raises(ValidationError):
            make_aggregate("AVG", 0, 1).finalize(Partial(0.0, 0))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            make_aggregate("AVG", 10, 5)


class TestMergedAlgebra:
    """One :meth:`Aggregate.merge`, built from each class's ``combine``,
    stands in for five per-class copies; SUM, COUNT, MAX and MIN
    finalize through ``operator.itemgetter(0)``."""

    #: The per-class formulas the shared merge replaced.
    OLD_MERGE = {
        "AVG": lambda a, b: Partial(a.value + b.value, a.count + b.count),
        "SUM": lambda a, b: Partial(a.value + b.value, a.count + b.count),
        "COUNT": lambda a, b: Partial(a.value + b.value,
                                      a.count + b.count),
        "MAX": lambda a, b: Partial(max(a.value, b.value),
                                    a.count + b.count),
        "MIN": lambda a, b: Partial(min(a.value, b.value),
                                    a.count + b.count),
    }
    GRID = [Partial(value, count)
            for value in (-3.5, 0.0, 2.0, 2.0, 7.25, 100.0)
            for count in (1, 2, 5)]

    @pytest.mark.parametrize("func", sorted(OLD_MERGE))
    def test_merge_returns_a_partial(self, func):
        merged = make_aggregate(func, 0, 100).merge(Partial(3.0, 1),
                                                    Partial(4.0, 2))
        assert type(merged) is Partial
        value = {"MAX": 4.0, "MIN": 3.0}.get(func, 7.0)
        assert repr(merged) == f"Partial(value={value}, count=3)"
        assert merged.value == value and merged.count == 3

    @pytest.mark.parametrize("func", sorted(OLD_MERGE))
    def test_merge_equals_the_per_class_formula(self, func):
        aggregate = make_aggregate(func, 0, 100)
        old = self.OLD_MERGE[func]
        for a, b in itertools.product(self.GRID, repeat=2):
            assert aggregate.merge(a, b) == old(a, b), (a, b)

    @pytest.mark.parametrize("func", ["MAX", "MIN"])
    def test_extremum_keeps_the_first_argument_on_a_tie(self, func):
        aggregate = make_aggregate(func, -1, 1)
        first = aggregate.merge(Partial(0.0, 1), Partial(-0.0, 1)).value
        second = aggregate.merge(Partial(-0.0, 1), Partial(0.0, 1)).value
        assert math.copysign(1.0, first) == 1.0
        assert math.copysign(1.0, second) == -1.0

    @pytest.mark.parametrize("func", ["SUM", "COUNT", "MAX", "MIN"])
    def test_value_aggregates_finalize_to_the_value(self, func):
        aggregate = make_aggregate(func, 0, 100)
        assert isinstance(aggregate.finalize, operator.itemgetter)
        for partial in self.GRID:
            assert aggregate.finalize(partial) == partial.value

    def test_a_subclass_setting_only_combine_merges(self):
        class Product(Aggregate):
            func = "PRODUCT"
            combine = operator.mul

            def finalize(self, partial):
                return partial.value

            def bounds(self, seen, unseen, gamma):
                return Bounds(self.lo, self.hi)

        product = Product(0, 100)
        merged = functools.reduce(product.merge, [product.from_value(v)
                                                  for v in (2.0, 3.0, 4.0)])
        assert type(merged) is Partial
        assert merged == Partial(24.0, 3)


class TestAvgBounds:
    """The figure-1 arithmetic: seen (D: 153, 2), unseen 1, γ = 39."""

    avg = make_aggregate("AVG", 0, 100)

    def test_exact_when_fully_seen(self):
        bounds = self.avg.bounds(Partial(150.0, 2), unseen=0, gamma=None)
        assert bounds == Bounds(75.0, 75.0)
        assert bounds.exact

    def test_figure1_room_d(self):
        bounds = self.avg.bounds(Partial(153.0, 2), unseen=1, gamma=39.0)
        assert bounds.lb == pytest.approx(153.0 / 3)   # unseen at lo=0
        assert bounds.ub == pytest.approx(192.0 / 3)   # unseen at γ=39
        # The true value 64 lies inside.
        assert bounds.lb <= 64.0 <= bounds.ub

    def test_gamma_none_uses_hi(self):
        bounds = self.avg.bounds(Partial(153.0, 2), unseen=1, gamma=None)
        assert bounds.ub == pytest.approx(253.0 / 3)

    def test_gamma_above_hi_is_clipped(self):
        bounds = self.avg.bounds(Partial(100.0, 1), unseen=1, gamma=500.0)
        assert bounds.ub == pytest.approx(100.0)

    def test_fully_unseen_group(self):
        bounds = self.avg.bounds(None, unseen=3, gamma=42.0)
        assert bounds == Bounds(0.0, 42.0)

    def test_no_readings_at_all_rejected(self):
        with pytest.raises(ValidationError):
            self.avg.bounds(None, unseen=0, gamma=None)

    def test_negative_unseen_rejected(self):
        with pytest.raises(ValidationError):
            self.avg.bounds(Partial(1.0, 1), unseen=-1, gamma=None)

    def test_midpoint(self):
        assert Bounds(10.0, 20.0).midpoint == 15.0


class TestSumBounds:
    s = make_aggregate("SUM", 0, 100)

    def test_unseen_adds_between_lo_and_cap(self):
        bounds = self.s.bounds(Partial(50.0, 2), unseen=3, gamma=10.0)
        assert bounds == Bounds(50.0, 80.0)

    def test_cap_respects_hi(self):
        bounds = self.s.bounds(Partial(0.0, 1), unseen=2, gamma=1000.0)
        assert bounds.ub == 200.0

    def test_soundness_example(self):
        # Two pruned partials summing ≤ γ each: (γ=30) with 3 readings.
        # True unseen sum could be at most min(γ, hi)·m = 90.
        bounds = self.s.bounds(Partial(10.0, 1), unseen=3, gamma=30.0)
        assert bounds.ub == 100.0


class TestCountBounds:
    def test_count_interval(self):
        c = make_aggregate("COUNT", 0, 1)
        bounds = c.bounds(Partial(4.0, 4), unseen=2, gamma=None)
        assert bounds == Bounds(4.0, 6.0)


class TestMaxBounds:
    mx = make_aggregate("MAX", 0, 100)

    def test_seen_is_lower_bound(self):
        bounds = self.mx.bounds(Partial(70.0, 2), unseen=2, gamma=50.0)
        assert bounds == Bounds(70.0, 70.0)

    def test_gamma_can_raise_ub(self):
        bounds = self.mx.bounds(Partial(40.0, 2), unseen=2, gamma=90.0)
        assert bounds == Bounds(40.0, 90.0)

    def test_fully_unseen(self):
        assert self.mx.bounds(None, unseen=1, gamma=30.0) == Bounds(0.0, 30.0)


class TestMinBounds:
    mn = make_aggregate("MIN", 0, 100)

    def test_unseen_can_only_lower(self):
        bounds = self.mn.bounds(Partial(40.0, 2), unseen=1, gamma=90.0)
        assert bounds == Bounds(0.0, 40.0)

    def test_gamma_tightens_ub(self):
        bounds = self.mn.bounds(Partial(40.0, 2), unseen=1, gamma=20.0)
        assert bounds == Bounds(0.0, 20.0)

    def test_exact_when_seen(self):
        assert self.mn.bounds(Partial(40.0, 2), 0, None) == Bounds(40.0, 40.0)


class TestBoundSoundnessSweep:
    """Brute-force soundness: true value always within [lb, ub]."""

    @pytest.mark.parametrize("func", ["AVG", "SUM", "MAX", "MIN"])
    def test_random_scenarios(self, func):
        import random

        rng = random.Random(99)
        agg = make_aggregate(func, 0, 100)
        for _ in range(300):
            total = rng.randint(1, 8)
            seen_count = rng.randint(0, total)
            values = [rng.uniform(0, 100) for _ in range(total)]
            seen_values = values[:seen_count]
            unseen_values = values[seen_count:]
            seen = functools.reduce(
                agg.merge, [agg.from_value(v) for v in seen_values]
            ) if seen_values else None
            # γ must bound the pruned partials; use the max unseen value
            # (each unseen reading is its own pruned partial here).
            gamma = max(unseen_values) if unseen_values else None
            true = agg.finalize(functools.reduce(
                agg.merge, [agg.from_value(v) for v in values]))
            bounds = agg.bounds(seen, len(unseen_values), gamma)
            assert bounds.lb - 1e-9 <= true <= bounds.ub + 1e-9

"""γ descriptors and view-state plumbing."""

from repro.core.aggregates import Partial, make_aggregate
from repro.core.descriptors import (
    local_gamma,
    should_reship_gamma,
    subtree_gamma,
)
from repro.core.views import MintNodeState, max_gamma


class TestGammaComputation:
    avg = make_aggregate("AVG", 0, 100)

    def test_local_gamma_is_max_finalized(self):
        withheld = {"A": Partial(80.0, 2), "B": Partial(30.0, 1)}
        assert local_gamma(self.avg, withheld) == 40.0

    def test_local_gamma_empty_is_none(self):
        assert local_gamma(self.avg, {}) is None

    def test_subtree_gamma_combines_children(self):
        withheld = {"A": Partial(20.0, 1)}
        assert subtree_gamma(self.avg, withheld, [55.0, None, 10.0]) == 55.0

    def test_subtree_gamma_all_none(self):
        assert subtree_gamma(self.avg, {}, [None, None]) is None

    def test_max_gamma(self):
        assert max_gamma(None, 3.0, None, 7.0) == 7.0
        assert max_gamma(None, None) is None


class TestReshipPolicy:
    def test_mandatory_when_bound_would_break(self):
        assert should_reship_gamma(current=50.0, reported=40.0)

    def test_first_gamma_always_ships(self):
        assert should_reship_gamma(current=10.0, reported=None)

    def test_no_mass_no_message(self):
        assert not should_reship_gamma(current=None, reported=33.0)
        assert not should_reship_gamma(current=None, reported=None)

    def test_tightening_respects_hysteresis(self):
        assert not should_reship_gamma(current=39.5, reported=40.0,
                                       hysteresis=1.0)
        assert should_reship_gamma(current=30.0, reported=40.0,
                                   hysteresis=1.0)

    def test_equal_gamma_is_silent(self):
        assert not should_reship_gamma(current=40.0, reported=40.0)


class TestMintNodeState:
    def test_reset_clears_everything(self):
        state = MintNodeState()
        state.reported["A"] = Partial(1.0, 1)
        state.withheld["B"] = Partial(2.0, 1)
        state.gamma_reported = 5.0
        state.reset()
        assert not state.reported
        assert not state.withheld
        assert state.gamma_reported is None

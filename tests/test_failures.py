"""Failure schedules and tree repair under node death."""

import pytest

from repro.errors import ConfigurationError
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.network.simulator import Network
from repro.network.topology import grid_topology


@pytest.fixture
def net():
    return Network(grid_topology(4))


def deaths(*pairs):
    """A deaths-only schedule from ``(epoch, node_id)`` pairs."""
    return ChurnSchedule([ChurnEvent(epoch, ChurnKind.DEATH, node_id)
                          for epoch, node_id in pairs])


class TestSchedule:
    def test_due_filters_by_epoch(self):
        schedule = deaths((3, 1), (3, 2), (5, 4))
        assert {e.node_id for e in schedule.due(3)} == {1, 2}
        assert schedule.due(4) == ()

    def test_random_deaths_deterministic(self):
        a = ChurnSchedule.random_deaths(range(1, 17), count=4, epochs=20,
                                        seed=2)
        b = ChurnSchedule.random_deaths(range(1, 17), count=4, epochs=20,
                                        seed=2)
        assert a.events == b.events

    def test_random_deaths_distinct_victims(self):
        schedule = ChurnSchedule.random_deaths(range(1, 17), count=8,
                                               epochs=20, seed=3)
        victims = [e.node_id for e in schedule.events]
        assert len(set(victims)) == 8

    def test_too_many_victims_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule.random_deaths([1, 2], count=3, epochs=10)

    def test_no_epoch_available_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule.random_deaths([1, 2], count=1, epochs=1,
                                        first_epoch=1)


class TestApply:
    def test_kills_due_nodes(self, net):
        schedule = deaths((0, 5), (0, 6))
        victims = schedule.apply(net, epoch=0)
        assert {e.node_id for e in victims} == {5, 6}
        assert not net.node(5).alive
        assert not net.node(6).alive
        assert 5 not in net.tree.node_ids

    def test_apply_skips_wrong_epoch(self, net):
        schedule = deaths((2, 5))
        assert schedule.apply(net, epoch=0) == ()
        assert net.node(5).alive

    def test_apply_ignores_already_dead(self, net):
        net.kill_node(5)
        schedule = deaths((0, 5))
        assert schedule.apply(net, epoch=0) == ()

    def test_survivors_still_routed(self, net):
        schedule = deaths((0, 1))
        schedule.apply(net, epoch=0)
        survivors = set(net.tree.node_ids)
        assert survivors == {net.sink_id, *(
            n for n in range(1, 17) if n != 1)}

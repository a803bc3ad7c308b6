"""Sliding window buffer."""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.storage.window import SlidingWindow, WindowEntry


@pytest.fixture
def window():
    w = SlidingWindow(capacity=8)
    for t, value in enumerate([5.0, 9.0, 1.0, 9.0, 3.0]):
        w.append(t, value)
    return w


class TestAppendEvict:
    def test_length(self, window):
        assert len(window) == 5

    def test_capacity_evicts_oldest(self):
        w = SlidingWindow(capacity=3)
        for t in range(5):
            w.append(t, float(t))
        assert [e.epoch for e in w] == [2, 3, 4]

    def test_out_of_order_rejected(self, window):
        with pytest.raises(StorageError):
            window.append(0, 1.0)

    def test_same_epoch_allowed(self):
        w = SlidingWindow(capacity=4)
        w.append(3, 1.0)
        w.append(3, 2.0)
        assert len(w) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SlidingWindow(capacity=0)


class TestAccess:
    def test_latest(self, window):
        assert window.latest() == WindowEntry(4, 3.0)

    def test_latest_on_empty_raises(self):
        with pytest.raises(StorageError):
            SlidingWindow().latest()

    def test_last_n(self, window):
        assert [e.value for e in window.last(2)] == [9.0, 3.0]

    def test_last_more_than_buffered(self, window):
        assert len(window.last(99)) == 5

    @pytest.mark.parametrize("appended", [16, 16 * 3 + 5],
                             ids=["full", "wrapped"])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17])
    def test_last_at_and_past_capacity(self, appended, n):
        """``last(n)`` reads from the newest end; on a full window and
        on one whose columns have compacted it equals the tail of
        ``list(window)``."""
        w = SlidingWindow(capacity=16)
        for t in range(appended):
            w.append(t, float(t % 7))
        entries = list(w)
        assert w.last(n) == (entries[-n:] if n else [])

    def test_tail_is_a_copy(self, window):
        epochs, values = window.tail(5)
        epochs[0] = 99
        values[0] = 99.0
        assert window.latest() == WindowEntry(4, 3.0)
        assert list(window)[0] == WindowEntry(0, 5.0)

    def test_negative_n_rejected(self, window):
        with pytest.raises(StorageError):
            window.tail(-1)
        with pytest.raises(StorageError):
            window.last(-1)


class TestLocalTopK:
    def test_ranked_best_first(self, window):
        top = window.top_k(3)
        assert [e.value for e in top] == [9.0, 9.0, 5.0]

    def test_tie_breaks_toward_earlier_epoch(self, window):
        top = window.top_k(2)
        assert [e.epoch for e in top] == [1, 3]

    def test_k_zero(self, window):
        assert window.top_k(0) == []

    def test_negative_k_rejected(self, window):
        with pytest.raises(StorageError):
            window.top_k(-1)


class TestAggregates:
    def test_avg(self, window):
        assert window.aggregate("avg") == pytest.approx(27.0 / 5)

    def test_windowed_avg(self, window):
        assert window.aggregate("avg", last_n=2) == pytest.approx(6.0)

    def test_min_max_sum_count(self, window):
        assert window.aggregate("min") == 1.0
        assert window.aggregate("max") == 9.0
        assert window.aggregate("sum") == 27.0
        assert window.aggregate("count") == 5.0

    def test_empty_avg_raises(self):
        with pytest.raises(StorageError):
            SlidingWindow().aggregate("avg")

    def test_empty_count_is_zero(self):
        assert SlidingWindow().aggregate("count") == 0.0

    def test_unknown_op_rejected(self, window):
        with pytest.raises(StorageError):
            window.aggregate("median")

"""Sliding window buffer."""

import pytest

from repro.errors import ConfigurationError, StorageError
from repro.storage.window import SlidingWindow


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
        assert list(w.tail(5)[0]) == [2, 3, 4]

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
    def test_last_n(self, window):
        epochs, values = window.tail(2)
        assert list(epochs) == [3, 4]
        assert values == [9.0, 3.0]

    def test_last_more_than_buffered(self, window):
        epochs, values = window.tail(99)
        assert len(epochs) == len(values) == 5

    @pytest.mark.parametrize("appended", [16, 16 * 3 + 5],
                             ids=["full", "wrapped"])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17])
    def test_last_at_and_past_capacity(self, appended, n):
        """``tail(n)`` reads from the newest end: on a full window and
        on one whose columns have compacted it is the newest
        ``min(n, capacity)`` readings, oldest first."""
        w = SlidingWindow(capacity=16)
        for t in range(appended):
            w.append(t, float(t % 7))
        newest = range(appended - min(n, 16), appended)
        epochs, values = w.tail(n)
        assert list(epochs) == list(newest)
        assert values == [float(t % 7) for t in newest]

    def test_tail_is_a_copy(self, window):
        epochs, values = window.tail(5)
        epochs[0] = 99
        values[0] = 99.0
        assert list(window.tail(5)[0]) == [0, 1, 2, 3, 4]
        assert window.tail(5)[1] == [5.0, 9.0, 1.0, 9.0, 3.0]

    def test_negative_n_rejected(self, window):
        with pytest.raises(StorageError):
            window.tail(-1)


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

"""Wire format: fragmentation and message sizes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.network.messages import (
    CandidateSetMessage,
    ControlMessage,
    FilterReportMessage,
    FilterUpdateMessage,
    JoinReplyMessage,
    LBReplyMessage,
    ObjectScore,
    ProbeReplyMessage,
    ProbeRequestMessage,
    QueryMessage,
    RawReadingsMessage,
    Reading,
    ScoreListMessage,
    ViewEntry,
    ViewUpdateMessage,
    total_entries,
)
from repro.network.packets import HEADER_BYTES, PAYLOAD_MTU, fragment


class TestFragmentation:
    def test_single_packet_at_mtu(self):
        assert fragment(PAYLOAD_MTU).packets == 1

    def test_two_packets_above_mtu(self):
        assert fragment(PAYLOAD_MTU + 1).packets == 2

    def test_zero_payload_still_one_frame(self):
        cost = fragment(0)
        assert cost.packets == 1
        assert cost.air_bytes == HEADER_BYTES

    def test_air_bytes_include_per_packet_header(self):
        cost = fragment(60)
        assert cost.packets == 3
        assert cost.air_bytes == 60 + 3 * HEADER_BYTES

    @pytest.mark.parametrize("multiple", [1, 2, 3, 7])
    def test_exact_mtu_multiples(self, multiple):
        cost = fragment(PAYLOAD_MTU * multiple)
        assert cost.packets == multiple
        assert cost.air_bytes == PAYLOAD_MTU * multiple + multiple * HEADER_BYTES

    def test_custom_mtu(self):
        assert fragment(30).packets == 2
        assert fragment(30, mtu=30).packets == 1

    def test_negative_payload_rejected(self):
        with pytest.raises(ValidationError):
            fragment(-1)

    def test_bad_mtu_rejected(self):
        with pytest.raises(ValidationError):
            fragment(10, mtu=0)


class TestMessageSizes:
    def test_view_entry_wire_size(self):
        assert ViewEntry.WIRE_BYTES == 8

    def test_view_update_scales_with_entries(self):
        base = ViewUpdateMessage(epoch=0, entries=())
        one = ViewUpdateMessage(epoch=0, entries=(ViewEntry("A", 1.0, 1),))
        assert one.payload_bytes - base.payload_bytes == ViewEntry.WIRE_BYTES

    def test_view_update_gamma_costs_four_bytes(self):
        without = ViewUpdateMessage(epoch=0, entries=())
        with_gamma = ViewUpdateMessage(epoch=0, entries=(), gamma=5.0)
        assert with_gamma.payload_bytes - without.payload_bytes == 4

    def test_view_update_retractions_cost_two_bytes_each(self):
        without = ViewUpdateMessage(epoch=0, entries=())
        with_two = ViewUpdateMessage(epoch=0, entries=(),
                                     retractions=("A", "B"))
        assert with_two.payload_bytes - without.payload_bytes == 4

    def test_raw_readings_size(self):
        msg = RawReadingsMessage(epoch=0, readings=(
            Reading(1, 5.0), Reading(2, 6.0)))
        assert msg.payload_bytes == 4 + 2 * Reading.WIRE_BYTES

    def test_probe_request_size(self):
        msg = ProbeRequestMessage(epoch=0, groups=("A", "B", "C"))
        assert msg.payload_bytes == 4 + 3 * 2

    def test_probe_reply_matches_view_entries(self):
        msg = ProbeReplyMessage(epoch=0, entries=(ViewEntry("A", 1.0, 1),))
        assert msg.payload_bytes == 4 + 8

    def test_lb_reply_is_ids_only(self):
        msg = LBReplyMessage(object_ids=(1, 2, 3))
        assert msg.payload_bytes == 12

    def test_candidate_set_size(self):
        assert CandidateSetMessage(object_ids=(7,)).payload_bytes == 4

    def test_join_reply_carries_threshold(self):
        empty = JoinReplyMessage(items=(), threshold_value=1.0,
                                 threshold_count=2)
        assert empty.payload_bytes == 6
        one = JoinReplyMessage(items=(ObjectScore(1, 2.0, 3),),
                               threshold_value=1.0, threshold_count=2)
        assert one.payload_bytes == 6 + ObjectScore.WIRE_BYTES

    def test_score_list_omits_count(self):
        msg = ScoreListMessage(items=(ObjectScore(1, 2.0),))
        assert msg.payload_bytes == 8

    def test_filter_update_size(self):
        msg = FilterUpdateMessage(intervals=((1, 0.0, 10.0),))
        assert msg.payload_bytes == 2 + 8

    def test_filter_report_size(self):
        msg = FilterReportMessage(epoch=0,
                                  entries=(ViewEntry(1, 5.0, 1),))
        assert msg.payload_bytes == 4 + 8

    def test_query_message_fixed(self):
        assert QueryMessage(query_id=1).payload_bytes == 16

    def test_control_message_configurable(self):
        assert ControlMessage(label="x", size=12).payload_bytes == 12


_ENTRIES = st.lists(st.builds(
    ViewEntry, st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 1000)), max_size=40)


class TestWireSize:
    """The static size rule the hot passes ship without building a
    message equals the size of the message they would have built."""

    @given(entries=_ENTRIES,
           retractions=st.lists(st.text(max_size=3), max_size=20),
           gamma=st.none() | st.floats(allow_nan=False))
    def test_view_update(self, entries, retractions, gamma):
        message = ViewUpdateMessage(epoch=7, entries=tuple(entries),
                                    gamma=gamma,
                                    retractions=tuple(retractions))
        assert ViewUpdateMessage.wire_size(
            len(entries), len(retractions), gamma is not None
        ) == message.payload_bytes

    @given(entries=_ENTRIES)
    def test_probe_reply(self, entries):
        message = ProbeReplyMessage(epoch=7, entries=tuple(entries))
        assert (ProbeReplyMessage.wire_size(len(entries))
                == message.payload_bytes)

    @given(entries=_ENTRIES)
    def test_filter_report(self, entries):
        message = FilterReportMessage(epoch=7, entries=tuple(entries))
        assert FilterReportMessage.kind == message.kind == "filter_report"
        assert (FilterReportMessage.wire_size(len(entries))
                == message.payload_bytes)

    @given(intervals=st.lists(st.tuples(
        st.integers(0, 1000), st.floats(allow_nan=False),
        st.floats(allow_nan=False)), max_size=40))
    def test_filter_update(self, intervals):
        message = FilterUpdateMessage(intervals=tuple(intervals))
        assert FilterUpdateMessage.kind == message.kind == "filter_update"
        assert (FilterUpdateMessage.wire_size(len(intervals))
                == message.payload_bytes)

    @given(object_ids=st.lists(st.integers(0, 2**31), max_size=60))
    def test_lb_reply(self, object_ids):
        message = LBReplyMessage(object_ids=tuple(object_ids))
        assert LBReplyMessage.kind == message.kind == "lb_reply"
        assert (LBReplyMessage.wire_size(len(object_ids))
                == message.payload_bytes)

    @given(items=st.lists(st.builds(
        ObjectScore, st.integers(0, 2**31),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 1000)), max_size=40),
        threshold=st.floats(allow_nan=False), count=st.integers(0, 1000))
    def test_join_reply(self, items, threshold, count):
        message = JoinReplyMessage(items=tuple(items),
                                   threshold_value=threshold,
                                   threshold_count=count)
        assert JoinReplyMessage.kind == message.kind == "join_reply"
        assert (JoinReplyMessage.wire_size(len(items))
                == message.payload_bytes)

    @given(groups=st.lists(st.integers(0, 1000) | st.text(max_size=3),
                           max_size=40))
    def test_probe_request(self, groups):
        message = ProbeRequestMessage(epoch=7, groups=tuple(groups))
        assert ProbeRequestMessage.kind == message.kind == "probe_request"
        assert (ProbeRequestMessage.wire_size(len(groups))
                == message.payload_bytes)


class TestHelpers:
    def test_total_entries_counts_tuples(self):
        messages = [
            ViewUpdateMessage(epoch=0, entries=(ViewEntry("A", 1.0, 1),)),
            JoinReplyMessage(items=(ObjectScore(1, 2.0), ObjectScore(2, 3.0)),
                             threshold_value=0.0, threshold_count=0),
            QueryMessage(query_id=1),
        ]
        assert total_entries(messages) == 3

    def test_kind_labels(self):
        assert ViewUpdateMessage(epoch=0, entries=()).kind == "view_update"
        # The hot passes ship the class-level kind without an instance.
        assert ViewUpdateMessage.kind == "view_update"
        assert ProbeReplyMessage.kind == "probe_reply"
        assert QueryMessage(query_id=1).kind == "query"
        assert LBReplyMessage(object_ids=()).kind == "lb_reply"

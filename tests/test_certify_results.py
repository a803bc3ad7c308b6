"""Top-k certification and result helpers."""

import pickle

import pytest

from repro.core.aggregates import Bounds, make_aggregate
from repro.core.certify import CertificationOutcome, certify_top_k
from repro.core.delta import TopKView
from repro.core.results import (
    EpochResult,
    RankedItem,
    is_valid_top_k,
    oracle_scores,
    oracle_top_k,
    rank_key,
)
from repro.errors import ValidationError


def point(value):
    return Bounds(value, value)


class TestCertify:
    def test_certified_when_separated(self):
        outcome = certify_top_k(
            {"A": point(90.0), "B": point(50.0), "C": point(10.0)}, k=1)
        assert outcome.certified
        assert outcome.items[0].key == "A"
        assert not outcome.needs_probe

    def test_wide_candidate_interval_blocks(self):
        outcome = certify_top_k(
            {"A": Bounds(40.0, 95.0), "B": point(50.0)}, k=1)
        assert not outcome.certified
        assert set(outcome.ambiguous) == {"A", "B"}

    def test_overlapping_runner_up_blocks(self):
        outcome = certify_top_k(
            {"A": point(60.0), "B": Bounds(10.0, 70.0), "C": point(5.0)},
            k=1)
        assert not outcome.certified
        assert "B" in outcome.ambiguous
        assert "C" not in outcome.ambiguous

    def test_ambiguous_contains_chosen(self):
        outcome = certify_top_k(
            {"A": point(60.0), "B": Bounds(10.0, 70.0)}, k=1)
        assert "A" in outcome.ambiguous

    def test_k_larger_than_groups(self):
        outcome = certify_top_k({"A": point(5.0)}, k=4)
        assert outcome.certified
        assert len(outcome.items) == 1

    def test_exact_ties_certify(self):
        outcome = certify_top_k({"A": point(50.0), "B": point(50.0)}, k=1)
        assert outcome.certified
        assert outcome.items[0].key in {"A", "B"}

    def test_items_ranked_descending(self):
        outcome = certify_top_k(
            {"A": point(10.0), "B": point(30.0), "C": point(20.0)}, k=3)
        assert [i.key for i in outcome.items] == ["B", "C", "A"]

    def test_threshold_is_kth_lb(self):
        outcome = certify_top_k(
            {"A": point(90.0), "B": Bounds(40.0, 60.0), "C": point(10.0)},
            k=2)
        assert outcome.threshold == 40.0

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValidationError):
            certify_top_k({}, k=1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            certify_top_k({"A": point(1.0)}, k=0)

    def test_probe_set_sufficiency(self):
        """Resolving exactly the ambiguous groups certifies the answer."""
        import random

        rng = random.Random(5)
        for _ in range(100):
            groups = {f"G{i}": rng.uniform(0, 100) for i in range(8)}
            bounds = {}
            for g, true in groups.items():
                slackness = rng.uniform(0, 30)
                bounds[g] = Bounds(max(0.0, true - slackness),
                                   min(100.0, true + slackness))
            k = rng.randint(1, 4)
            outcome = certify_top_k(bounds, k)
            if outcome.certified:
                continue
            for g in outcome.ambiguous:
                bounds[g] = point(groups[g])
            resolved = certify_top_k(bounds, k)
            assert resolved.certified
            expected = sorted(groups.items(),
                              key=lambda kv: rank_key(kv[0], kv[1]))[:k]
            assert [i.key for i in resolved.items] == [g for g, _ in expected]


class TestCertifyBoundaries:
    """Edge behaviour the incremental view must reproduce bit-for-bit
    (see tests/test_delta_equivalence.py for the property-level proof).
    """

    def test_tie_within_tolerance_certifies(self):
        # B's ub reaches into τ's tolerance band, but a displacement
        # must *exceed* the tolerance to block certification.
        outcome = certify_top_k(
            {"A": point(50.0), "B": point(50.0 + 5e-10)}, k=1,
            tolerance=1e-9)
        assert outcome.certified
        assert set(outcome.ambiguous) == {"A", "B"}

    def test_tie_beyond_tolerance_blocks(self):
        outcome = certify_top_k(
            {"A": Bounds(50.0, 52.0), "B": point(51.0)}, k=1,
            tolerance=1e-9)
        assert not outcome.certified

    def test_tied_lower_bounds_break_by_key_string(self):
        # rank_key breaks exact score ties by str(key) ascending.
        outcome = certify_top_k(
            {"B": point(50.0), "A": point(50.0), "C": point(10.0)}, k=1)
        assert outcome.items[0].key == "A"
        assert outcome.threshold == 50.0

    def test_k_at_group_count(self):
        outcome = certify_top_k(
            {"A": point(3.0), "B": point(2.0), "C": point(1.0)}, k=3)
        assert outcome.certified
        assert [i.key for i in outcome.items] == ["A", "B", "C"]
        assert outcome.threshold == 1.0

    def test_k_beyond_group_count_with_interval(self):
        # Everyone is chosen, so nothing can displace — but MINT's mode
        # still demands point scores for the chosen groups.
        bounds = {"A": point(5.0), "B": Bounds(1.0, 3.0)}
        loose = certify_top_k(bounds, k=4, require_exact_scores=False)
        strict = certify_top_k(bounds, k=4, require_exact_scores=True)
        assert loose.certified
        assert not strict.certified
        assert len(loose.items) == len(strict.items) == 2

    def test_empty_bounds_always_rejected(self):
        for require in (True, False):
            with pytest.raises(ValidationError):
                certify_top_k({}, k=3, require_exact_scores=require)

    def test_require_exact_scores_flips_on_interval_winner(self):
        # The chosen interval cannot be displaced (ub of B below A's
        # lb), so only the exactness requirement separates the modes.
        bounds = {"A": Bounds(80.0, 90.0), "B": point(10.0)}
        assert certify_top_k(bounds, k=1,
                             require_exact_scores=False).certified
        assert not certify_top_k(bounds, k=1,
                                 require_exact_scores=True).certified

    def test_point_winner_certifies_in_both_modes(self):
        bounds = {"A": point(90.0), "B": point(10.0)}
        for require in (True, False):
            assert certify_top_k(
                bounds, k=1, require_exact_scores=require).certified

    def test_interval_within_tolerance_counts_as_exact(self):
        outcome = certify_top_k(
            {"A": Bounds(90.0, 90.0 + 5e-10), "B": point(10.0)}, k=1,
            tolerance=1e-9, require_exact_scores=True)
        assert outcome.certified


class TestOutcomeRoundTrip:
    def test_as_dict_round_trips(self):
        outcome = certify_top_k(
            {"A": Bounds(40.0, 95.0), "B": point(50.0), "C": point(1.0)},
            k=2)
        data = outcome.as_dict()
        assert data["needs_probe"] == outcome.needs_probe
        assert CertificationOutcome.from_dict(data) == outcome

    def test_as_dict_is_json_ready(self):
        import json

        outcome = certify_top_k({"A": point(1.0)}, k=1)
        rebuilt = CertificationOutcome.from_dict(
            json.loads(json.dumps(outcome.as_dict())))
        assert rebuilt == outcome


class TestRankedItem:
    """An answer row is a NamedTuple: its fields, repr and hash read as
    the frozen dataclass it replaced, and it is a tuple besides."""

    ITEM = RankedItem("A", 1.0, 0.5, 1.5)

    def test_fields_in_order(self):
        assert RankedItem._fields == ("key", "score", "lb", "ub")
        assert RankedItem(key="A", score=1.0, lb=0.5, ub=1.5) == self.ITEM

    def test_exact_is_a_point_interval(self):
        assert RankedItem("A", 1.0, 1.0, 1.0).exact
        assert not self.ITEM.exact

    def test_repr_reads_as_the_dataclass_did(self):
        assert (repr(self.ITEM)
                == "RankedItem(key='A', score=1.0, lb=0.5, ub=1.5)")

    def test_hash_is_the_fields_tuple_hash(self):
        assert hash(self.ITEM) == hash(("A", 1.0, 0.5, 1.5))

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.ITEM.score = 2.0

    def test_equals_a_plain_tuple_of_its_fields(self):
        assert self.ITEM == ("A", 1.0, 0.5, 1.5)
        assert self.ITEM != ("A", 1.0, 0.5, 1.25)
        assert tuple(self.ITEM) == ("A", 1.0, 0.5, 1.5)

    def test_survives_pickle_inside_a_result(self):
        """``--jobs`` workers return their results through pickle."""
        outcome = certify_top_k({"A": Bounds(0.5, 1.5), "B": point(0.0)},
                                k=1, require_exact_scores=False)
        result = EpochResult(epoch=3, items=outcome.items, exact=True,
                             algorithm="FILA", certification=outcome)
        rebuilt = pickle.loads(pickle.dumps(result))
        assert rebuilt == result
        assert type(rebuilt.items[0]) is RankedItem
        assert rebuilt.items[0] == self.ITEM

    def test_view_rows_round_trip_through_as_dict(self):
        view = TopKView(2, require_exact_scores=False)
        view.ensure_many([("A", (0.5, 1.5)), (7, (2.0, 2.0)),
                          ("B", (0.0, 0.25))])
        outcome = view.outcome()
        assert outcome.items == (RankedItem(7, 2.0, 2.0, 2.0), self.ITEM)
        assert CertificationOutcome.from_dict(outcome.as_dict()) == outcome


class TestOracle:
    READINGS = {1: 40.0, 2: 74.0, 3: 75.0, 4: 42.0, 5: 75.0,
                6: 75.0, 7: 78.0, 8: 75.0, 9: 39.0}
    ROOMS = {1: "B", 2: "A", 3: "A", 4: "B", 5: "D",
             6: "C", 7: "D", 8: "C", 9: "D"}

    def test_figure1_oracle(self):
        avg = make_aggregate("AVG", 0, 100)
        scores = oracle_scores(self.READINGS, self.ROOMS, avg)
        assert scores == {"A": 74.5, "B": 41.0, "C": 75.0, "D": 64.0}

    def test_oracle_top_k(self):
        avg = make_aggregate("AVG", 0, 100)
        top2 = oracle_top_k(self.READINGS, self.ROOMS, avg, k=2)
        assert [i.key for i in top2] == ["C", "A"]

    def test_missing_group_defaults_to_nodeid(self):
        avg = make_aggregate("AVG", 0, 100)
        top = oracle_top_k({7: 10.0}, {}, avg, k=1)
        assert top[0].key == 7

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            oracle_top_k(self.READINGS, self.ROOMS,
                         make_aggregate("AVG", 0, 100), k=0)


class TestValidityCheck:
    SCORES = {"A": 90.0, "B": 80.0, "C": 80.0, "D": 10.0}

    def items(self, *pairs):
        return [RankedItem(key=k, score=s, lb=s, ub=s) for k, s in pairs]

    def test_exact_answer_valid(self):
        assert is_valid_top_k(self.items(("A", 90.0), ("B", 80.0)),
                              self.SCORES, k=2)

    def test_tie_swap_valid(self):
        assert is_valid_top_k(self.items(("A", 90.0), ("C", 80.0)),
                              self.SCORES, k=2)

    def test_wrong_member_invalid(self):
        assert not is_valid_top_k(self.items(("A", 90.0), ("D", 10.0)),
                                  self.SCORES, k=2)

    def test_fabricated_score_invalid(self):
        assert not is_valid_top_k(self.items(("A", 95.0), ("B", 80.0)),
                                  self.SCORES, k=2)

    def test_wrong_order_invalid(self):
        assert not is_valid_top_k(self.items(("B", 80.0), ("A", 90.0)),
                                  self.SCORES, k=2)

    def test_wrong_length_invalid(self):
        assert not is_valid_top_k(self.items(("A", 90.0)), self.SCORES, k=2)

    def test_k_exceeding_groups(self):
        small = {"A": 1.0}
        assert is_valid_top_k(self.items(("A", 1.0)), small, k=5)

"""The incremental TopKView is byte-identical to the cold certifier.

Two layers of proof:

* **View vs. oracle** — hypothesis drives random delta streams
  (set / ensure / delete / reconcile, group birth and death, varied k,
  tolerance and exactness modes) through a maintained
  :class:`~repro.core.delta.TopKView` and asserts ``outcome()`` equals
  ``certify_top_k`` over the same mapping — dataclass equality, so the
  certified flag, items (scores, lbs, ubs), ambiguous tuple and τ all
  match bit for bit.
* **Engine vs. engine** — full workloads (MINT / FILA / TAG, churn
  included, plus a whole-group extinction-and-birth schedule) run on
  the hot path (per-session views) and the reference path (cold
  certifier per round) and must agree on every observable, including
  the per-epoch certification outcomes now attached to results.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.core.aggregates import Bounds
from repro.core.certify import certify_top_k
from repro.core.delta import BoundsDelta, DeltaEntry, TopKView
from repro.core.results import rank_key
from repro.errors import ValidationError
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.scenarios import grid_rooms_scenario
from helpers import on_both_paths
from test_hotpath_equivalence import (
    QUERY_BY_ENGINE,
    answers_of,
    ledger_signature,
    run_workload,
    stats_signature,
)

# -- strategies ---------------------------------------------------------

groups = st.sampled_from([f"G{i}" for i in range(12)])
values = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    lo = draw(values)
    hi = draw(values)
    if hi < lo:
        lo, hi = hi, lo
    return Bounds(lo, hi)


@st.composite
def operations(draw):
    """One mutation: (kind, group, payload)."""
    kind = draw(st.sampled_from(["set", "ensure", "delete"]))
    group = draw(groups)
    if kind == "delete":
        return (kind, group, None)
    return (kind, group, draw(intervals()))


@st.composite
def mappings(draw, min_size=0, max_size=10):
    keys = draw(st.lists(groups, min_size=min_size, max_size=max_size,
                         unique=True))
    return {key: draw(intervals()) for key in keys}


def oracle_equivalent(view: TopKView):
    """Assert outcome() == certify_top_k over the view's own mapping."""
    if len(view) == 0:
        with pytest.raises(ValidationError):
            view.outcome()
        return
    expected = certify_top_k(dict(view.bounds), view.k,
                             tolerance=view.tolerance,
                             require_exact_scores=view.require_exact_scores)
    assert view.outcome() == expected


# -- view vs. oracle ----------------------------------------------------

class TestViewMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(operations(), min_size=1, max_size=40),
        k=st.integers(1, 5),
        tolerance=st.sampled_from([1e-9, 0.5, 5.0]),
        require_exact=st.booleans(),
    )
    def test_random_delta_streams(self, ops, k, tolerance, require_exact):
        """After every single mutation the maintained outcome equals
        the cold oracle on the identical mapping."""
        view = TopKView(k, tolerance=tolerance,
                        require_exact_scores=require_exact)
        for kind, group, payload in ops:
            if kind == "set":
                view.set(group, payload)
            elif kind == "ensure":
                view.ensure(group, payload.lb, payload.ub)
            else:
                view.delete(group)
            oracle_equivalent(view)

    @settings(max_examples=150, deadline=None)
    @given(
        start=mappings(),
        batches=st.lists(st.lists(st.tuples(groups, intervals()),
                                  max_size=14), min_size=1, max_size=5),
        k=st.integers(1, 5),
    )
    def test_ensure_many_equals_per_group_ensures(self, start, batches, k):
        """One ``ensure_many`` batch — repeats, births, and batches
        moving more or less than a quarter of the view — leaves the
        bounds (insertion order included), both maintained orders and
        the moved count exactly as per-group ``ensure`` calls do, and
        the outcome equal to the cold oracle."""
        batched, single = TopKView(k), TopKView(k)
        batched.reconcile(start)
        single.reconcile(start)
        for batch in batches:
            changes = [(group, b.lb, b.ub) for group, b in batch]
            moved = batched.ensure_many(changes)
            assert moved == sum(single.ensure(*change)
                                for change in changes)
            assert list(batched.bounds.items()) == list(
                single.bounds.items())
            assert batched._by_lb == single._by_lb
            assert batched._by_ub == single._by_ub
            oracle_equivalent(batched)

    @settings(max_examples=100, deadline=None)
    @given(
        snapshots=st.lists(mappings(), min_size=1, max_size=6),
        k=st.integers(1, 5),
        require_exact=st.booleans(),
    )
    def test_reconcile_streams(self, snapshots, k, require_exact):
        """Whole-epoch reconciliation (births and deaths included)
        keeps the view equal to a cold certify of each snapshot."""
        view = TopKView(k, require_exact_scores=require_exact)
        for snapshot in snapshots:
            delta = view.reconcile(snapshot)
            assert dict(view.bounds) == snapshot
            assert delta.births == sum(
                1 for entry in delta if entry.born)
            oracle_equivalent(view)

    @settings(max_examples=100, deadline=None)
    @given(
        snapshots=st.lists(
            st.dictionaries(groups, values, max_size=10),
            min_size=1, max_size=6),
        k=st.integers(1, 5),
    )
    def test_reconcile_scores_equals_point_reconcile(self, snapshots, k):
        """TAG's point-valued reconcile is the same delta stream as a
        Bounds(v, v) reconcile."""
        by_scores = TopKView(k)
        by_points = TopKView(k)
        for snapshot in snapshots:
            delta_a = by_scores.reconcile_scores(snapshot)
            delta_b = by_points.reconcile(
                {g: Bounds(v, v) for g, v in snapshot.items()})
            assert delta_a == delta_b
            assert dict(by_scores.bounds) == dict(by_points.bounds)
            if snapshot:
                assert by_scores.outcome() == by_points.outcome()

    @settings(max_examples=50, deadline=None)
    @given(snapshot=mappings(min_size=1), k=st.integers(1, 4))
    def test_ranking_matches_rank_key_sort(self, snapshot, k):
        view = TopKView(k)
        view.reconcile(snapshot)
        expected = sorted(snapshot.items(),
                          key=lambda pair: rank_key(pair[0], pair[1].lb))
        assert view.ranking() == expected


class TestDeltaSemantics:
    def test_diff_marks_birth_and_death(self):
        old = {"A": Bounds(1.0, 2.0), "B": Bounds(3.0, 4.0)}
        new = {"B": Bounds(3.0, 5.0), "C": Bounds(0.0, 0.0)}
        delta = BoundsDelta.diff(old, new)
        by_group = {entry.group: entry for entry in delta}
        assert set(by_group) == {"A", "B", "C"}
        assert by_group["A"].died and not by_group["A"].born
        assert by_group["C"].born and not by_group["C"].died
        assert not by_group["B"].born and not by_group["B"].died
        assert delta.births == 1 and delta.deaths == 1

    def test_diff_skips_unchanged_groups(self):
        same = {"A": Bounds(1.0, 2.0)}
        assert not BoundsDelta.diff(same, {"A": Bounds(1.0, 2.0)})

    def test_apply_rejects_stale_retraction(self):
        view = TopKView(1)
        view.set("A", Bounds(1.0, 2.0))
        stale = BoundsDelta((
            DeltaEntry("A", Bounds(9.0, 9.0), Bounds(0.0, 0.0)),))
        with pytest.raises(ValidationError, match="stale delta"):
            view.apply(stale)

    def test_apply_rejects_birth_of_existing_group(self):
        view = TopKView(1)
        view.set("A", Bounds(1.0, 2.0))
        with pytest.raises(ValidationError, match="stale delta"):
            view.apply(BoundsDelta((
                DeltaEntry("A", None, Bounds(0.0, 0.0)),)))

    def test_apply_rejects_death_of_absent_group(self):
        view = TopKView(1)
        with pytest.raises(ValidationError, match="stale delta"):
            view.apply(BoundsDelta((
                DeltaEntry("A", Bounds(1.0, 1.0), None),)))

    def test_ensure_reports_change(self):
        view = TopKView(1)
        assert view.ensure("A", 1.0, 2.0)
        assert not view.ensure("A", 1.0, 2.0)
        assert view.ensure("A", 1.0, 3.0)

    def test_delete_reports_presence(self):
        view = TopKView(1)
        view.set("A", Bounds(1.0, 1.0))
        assert view.delete("A")
        assert not view.delete("A")
        assert len(view) == 0 and "A" not in view

    def test_ranking_only_view_refuses_outcome(self):
        view = TopKView(None)
        view.set("A", Bounds(1.0, 1.0))
        assert view.ranking() == [("A", Bounds(1.0, 1.0))]
        with pytest.raises(ValidationError):
            view.outcome()

    def test_bad_k_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            TopKView(0)

    def test_empty_view_refuses_outcome(self):
        with pytest.raises(ValidationError):
            TopKView(1).outcome()

    def test_mixed_key_types_never_compare_raw_groups(self):
        """Heterogeneous group keys (int vs str) rank via str(), just
        like the oracle's rank_key — no TypeError from the orders."""
        view = TopKView(2)
        view.set(1, Bounds(5.0, 5.0))
        view.set("zz", Bounds(5.0, 5.0))
        view.set(2, Bounds(7.0, 7.0))
        oracle_equivalent(view)


# -- engine vs. engine --------------------------------------------------

ENGINE_SETS = st.lists(st.sampled_from(["mint", "tag", "fila"]),
                       min_size=1, max_size=3, unique=True)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    agg=st.sampled_from(["AVG", "MAX", "SUM", "MIN"]),
    engines=ENGINE_SETS,
    epochs=st.integers(3, 7),
    churn_seed=st.one_of(st.none(), st.integers(0, 7)),
)
def test_view_fed_engines_equal_cold_certifier(seed, k, agg, engines,
                                               epochs, churn_seed):
    """The three refactored sinks (MINT update, FILA monitor/probe,
    TAG re-aggregation) produce identical answers, certification
    outcomes, probe schedules, stats and ledgers whether they feed a
    maintained view (hot) or call certify_top_k cold (reference)."""
    hot, reference = on_both_paths(
        run_workload, seed=seed, k=k, agg=agg, engines=engines,
        epochs=epochs, churn_seed=churn_seed)
    assert hot == reference


def run_extinction_workload(*, engine, k=2, agg="AVG", epochs=7):
    """A churn schedule that kills *every* member of one room — the
    whole group dies at the sink — then births a node into a brand-new
    group key. Exercises TopKView group death and birth end-to-end.
    """
    scenario = grid_rooms_scenario(side=4, rooms_per_axis=2, seed=42)
    # The far-corner room: dooming the sink's own children would
    # disconnect (and thus kill) the entire network instead.
    doomed_room = scenario.group_of[scenario.network.tree.sensor_ids[-1]]
    doomed = [node for node, room in scenario.group_of.items()
              if room == doomed_room]
    events = [ChurnEvent(2 + index, ChurnKind.DEATH, victim)
              for index, victim in enumerate(doomed)]
    events.append(ChurnEvent(2 + len(doomed), ChurnKind.BIRTH, 99,
                             position=(5.0, 5.0), group="fresh-room"))
    deployment = Deployment.from_scenario(scenario)
    driver = EpochDriver(deployment, interventions=[
        ChurnIntervention(ChurnSchedule(events),
                          board_for=scenario.board_for)])
    template, algorithm = QUERY_BY_ENGINE[engine]
    handle = deployment.submit(template.format(k=k, agg=agg),
                               algorithm=algorithm)
    driver.run(epochs)
    network = scenario.network
    return (answers_of(handle), stats_signature(network.stats),
            stats_signature(handle.stats), ledger_signature(network))


@pytest.mark.parametrize("engine", ["mint", "tag", "fila"])
def test_group_extinction_and_birth_equivalence(engine):
    """Hot equals reference across a whole-group death plus a birth
    into a never-seen group key."""
    hot, reference = on_both_paths(run_extinction_workload, engine=engine)
    assert hot == reference

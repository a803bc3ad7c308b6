"""The incremental TopKView is byte-identical to the cold certifier.

Two layers of proof:

* **View vs. oracle** — hypothesis drives random mutation streams
  (set / ensure / ensure_many / delete / reconcile, group birth and
  death, k at or above the group count, tied bounds, bounds exactly at
  τ ± tolerance, keys whose string order is not their numeric order or
  that print alike) through a :class:`~repro.core.delta.TopKView` and
  asserts ``outcome()`` equals ``certify_top_k`` over the same mapping
  — dataclass equality and equal reprs, so the certified flag, items
  (scores, lbs, ubs, signed zeros included), ambiguous tuple and τ all
  match bit for bit.
* **Engine vs. engine** — full workloads (MINT / FILA / TAG, churn
  included, plus a whole-group extinction-and-birth schedule and a
  newborn whose label prints like an existing one) run on the hot path
  and the reference path and must agree on every observable, including
  the per-epoch certification outcomes attached to results. FILA feeds
  its view on the hot path only; MINT and TAG rank from scratch on
  both, so for them the proof covers the fused passes that feed the
  sink.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ChurnIntervention, Deployment, EpochDriver
from repro.core.aggregates import Bounds
from repro.core.certify import certify_top_k
from repro.core.delta import BoundsDelta, DeltaEntry, TopKView
from repro.core.mint import MintConfig
from repro.errors import ValidationError
from repro.network.churn import ChurnEvent, ChurnKind, ChurnSchedule
from repro.network.simulator import Network
from repro.network.topology import grid_topology
from repro.query.plan import Algorithm
from repro.scenarios import grid_rooms_scenario
from repro.sensing.board import SensorBoard
from repro.sensing.generators import ConstantField, TableField
from helpers import on_both_paths
from test_hotpath_equivalence import (
    QUERY_BY_ENGINE,
    answers_of,
    ledger_signature,
    run_workload,
    stats_signature,
)

# -- strategies ---------------------------------------------------------

#: The key spaces a view is drawn over: labels; node ids whose string
#: order differs from their numeric order; and mixed keys, some of which
#: print alike (the oracle breaks their ties by insertion order).
KEY_SPACES = (
    [f"G{i}" for i in range(12)],
    [1, 2, 3, 9, 10, 11, 20, 99, 100, 101, 200, 1000],
    [1, "1", 2, "2", 10, "10", 100, "zz"],
)
#: Mostly a handful of values, so lower bounds tie and upper bounds
#: land exactly on τ ± tolerance (signed zeros included); any float
#: otherwise.
HANDFUL = [-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0]
values = st.one_of(*[st.sampled_from(HANDFUL)] * 3,
                   st.floats(0.0, 100.0, allow_nan=False,
                             allow_infinity=False))
tolerances = st.sampled_from([0.0, 1e-9, 0.5, 1.0, 5.0])
#: At or above the number of groups a view can hold, too.
ks = st.integers(1, 14)


@st.composite
def intervals(draw):
    lo = draw(values)
    hi = draw(values)
    if hi < lo:
        lo, hi = hi, lo
    return Bounds(lo, hi)


@st.composite
def operations(draw):
    """A key space and a stream of mutations over it: ``(kind, group,
    payload)``, births and deaths included."""
    groups = st.sampled_from(draw(st.sampled_from(KEY_SPACES)))
    kinds = st.sampled_from(["set", "ensure", "delete"])
    return draw(st.lists(st.tuples(kinds, groups, intervals()),
                         min_size=1, max_size=40))


@st.composite
def batches(draw):
    """A key space, a starting mapping over it and ``ensure_many``
    batches, each followed by the groups that die before the next."""
    space = draw(st.sampled_from(KEY_SPACES))
    groups = st.sampled_from(space)
    start = draw(st.dictionaries(groups, intervals(), max_size=10))
    steps = draw(st.lists(st.tuples(
        st.lists(st.tuples(groups, intervals()), max_size=14),
        st.lists(groups, max_size=3)), min_size=1, max_size=5))
    return start, steps


@st.composite
def mappings(draw, min_size=0, max_size=10):
    groups = st.sampled_from(draw(st.sampled_from(KEY_SPACES)))
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
    outcome = view.outcome()
    assert outcome == expected
    assert repr(outcome) == repr(expected)


# -- view vs. oracle ----------------------------------------------------

class TestViewMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(ops=operations(), k=ks, tolerance=tolerances,
           require_exact=st.booleans())
    def test_random_delta_streams(self, ops, k, tolerance, require_exact):
        """After every single mutation the outcome equals the cold
        oracle on the identical mapping."""
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
    @given(stream=batches(), k=ks, tolerance=tolerances,
           require_exact=st.booleans())
    def test_ensure_many_equals_per_group_ensures(self, stream, k,
                                                  tolerance, require_exact):
        """One ``ensure_many`` batch — repeats and births, with deaths
        between batches — leaves the pairs (insertion order included)
        and the moved count exactly as per-group ``ensure`` calls do,
        and the outcome equal to the cold oracle after every batch and
        every death."""
        start, steps = stream
        batched, single = (TopKView(k, tolerance=tolerance,
                                    require_exact_scores=require_exact)
                           for _ in range(2))
        batched.reconcile(start)
        single.reconcile(start)
        for batch, deaths in steps:
            changes = [(group, (b.lb, b.ub)) for group, b in batch]
            moved = batched.ensure_many(changes)
            assert moved == sum(single.ensure(group, lb, ub)
                                for group, (lb, ub) in changes)
            assert list(batched.pairs.items()) == list(
                single.pairs.items())
            oracle_equivalent(batched)
            for group in deaths:
                assert batched.delete(group) == single.delete(group)
                oracle_equivalent(batched)

    @settings(max_examples=100, deadline=None)
    @given(snapshots=st.lists(mappings(), min_size=1, max_size=6), k=ks,
           require_exact=st.booleans())
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
            st.dictionaries(st.sampled_from(KEY_SPACES[1]), values,
                            max_size=10),
            min_size=1, max_size=6),
        k=ks,
    )
    def test_reconcile_scores_equals_point_reconcile(self, snapshots, k):
        """The point-valued reconcile is the same delta stream as a
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
    """MINT, FILA and TAG produce identical answers, certification
    outcomes, probe schedules, stats and ledgers on the hot path (fused
    passes; FILA's maintained view) and on the reference path (one
    message at a time; certify_top_k cold everywhere)."""
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


def run_colliding_newborn_workload(*, k, agg, epochs=6, slack=None,
                                   position=(5.0, 5.0)):
    """MINT and TAG sessions over clusters ``"1"`` and ``"2"`` when a
    newborn joins at epoch 2 with the int label ``1``, which prints
    like ``"1"``. Every mote reads 50, so all three groups tie."""
    field = ConstantField({}, default=50.0)
    topology = grid_topology(3, spacing=10.0, radio_range=15.0)
    sensors = [node for node in topology.node_ids if node != 0]
    network = Network(
        topology,
        boards={node: SensorBoard({"sound": field}) for node in sensors},
        group_of={node: "1" if node % 2 else "2" for node in sensors})
    deployment = Deployment(network, mint_config=MintConfig(slack=slack))
    birth = ChurnEvent(2, ChurnKind.BIRTH, 100, position=position,
                       group=1)
    driver = EpochDriver(deployment, interventions=[ChurnIntervention(
        ChurnSchedule([birth]),
        board_for=lambda _: SensorBoard({"sound": field}))])
    query = (f"SELECT TOP {k} roomid, {agg}(sound) FROM sensors "
             f"GROUP BY roomid EPOCH DURATION 1 min")
    handles = [deployment.submit(query),
               deployment.submit(query, algorithm=Algorithm.TAG)]
    driver.run(epochs)
    mint = handles[0]._session.engine.algorithm
    assert {1, "1"} <= set(mint.group_totals)
    return [answers_of(handle) for handle in handles]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("agg", ["MAX", "MIN", "AVG"])
def test_newborn_with_colliding_label_equivalence(agg, k):
    """A newborn adopted mid-run whose label prints like an existing
    one ties with it in the same order on both paths."""
    hot, reference = on_both_paths(run_colliding_newborn_workload,
                                   k=k, agg=agg)
    assert hot == reference


@pytest.mark.parametrize("agg", ["MIN", "AVG", "SUM"])
def test_colliding_newborn_tied_at_the_cut_equivalence(agg):
    """With no slack MINT keeps one group per view, so the newborn's
    ``1`` and the cluster ``"1"`` tie at the cut and the order in which
    a view met them decides which one a mote keeps. Born in the far
    corner, the newborn feeds rows that have one child: such a row must
    build its view in the reference path's insertion order, own group
    first."""
    hot, reference = on_both_paths(run_colliding_newborn_workload,
                                   k=1, agg=agg, slack=0,
                                   position=(25.0, 25.0))
    assert hot == reference


def run_two_valued_newborn_workload(*, seed, agg, epochs=12):
    """One slack-free MINT session over clusters ``"1"``, ``"2"`` and
    ``"3"`` drawn per mote, every mote reading 40 or 50 each epoch, and
    a newborn labelled ``1`` at epoch 1. Ties between ``1`` and ``"1"``
    then fall at different rows in different epochs, so the order in
    which each parent caches a kept view decides later prunes. Returns
    the answers, stats, ledgers and every node's ordered cache."""
    rng = random.Random(seed)
    topology = grid_topology(4, spacing=10.0, radio_range=15.0)
    sensors = [node for node in topology.node_ids if node != 0]
    field = TableField([{node: rng.choice((40.0, 50.0))
                         for node in sensors + [100]}
                        for _ in range(epochs + 2)])
    network = Network(
        topology,
        boards={node: SensorBoard({"sound": field}) for node in sensors},
        group_of={node: rng.choice(["1", "2", "3"]) for node in sensors})
    deployment = Deployment(network, mint_config=MintConfig(slack=0))
    birth = ChurnEvent(1, ChurnKind.BIRTH, 100, position=(18.8, 14.7),
                       group=1)
    driver = EpochDriver(deployment, interventions=[ChurnIntervention(
        ChurnSchedule([birth]),
        board_for=lambda _: SensorBoard({"sound": field}))])
    handle = deployment.submit(
        f"SELECT TOP 2 roomid, {agg}(sound) FROM sensors "
        "GROUP BY roomid EPOCH DURATION 1 min")
    driver.run(epochs)
    mint = handle._session.engine.algorithm
    assert {1, "1"} <= set(mint.group_totals)
    caches = {node_id: (tuple(state.reported.items()), state.gamma_reported)
              for node_id, state in sorted(mint.states.items())}
    return (answers_of(handle), stats_signature(network.stats),
            ledger_signature(network), caches)


@pytest.mark.parametrize("seed", [9, 10, 18])
@pytest.mark.parametrize("agg", ["MIN", "SUM", "AVG"])
def test_colliding_newborn_over_two_valued_readings_equivalence(agg, seed):
    """Both paths commit a parent's cache in V'_i's order: the view's
    own order when nothing is pruned, rank order otherwise. A reference
    path that sorted every view and patched the old cache in place
    ordered the caches differently in all nine cases, and at a tie
    between ``1`` and ``"1"`` kept different groups, so answers and
    traffic differed too (MIN at seeds 9 and 18, SUM at 10, AVG at 9
    and 18)."""
    hot, reference = on_both_paths(run_two_valued_newborn_workload,
                                   seed=seed, agg=agg)
    assert hot == reference

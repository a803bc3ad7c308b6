"""TJA: the Threshold Join Algorithm for historic top-k queries (§III-B).

TJA answers queries over *vertically fragmented* historic data — "Find
the K time instances with the highest average temperature during the
last 3 months" — where an object's (time instant's) score needs a
contribution from every sensor, so no node can prune alone. The three
phases, as the paper sketches them:

1. **Lower Bound (LB)**: the sink collects the hierarchical *union* of
   every node's local top-k object ids (``L_sink``, o ≥ K ids).
2. **Hierarchical Joining (HJ)**: ``L_sink`` floods down; each node
   ships its exact partial score for every candidate, merged (joined)
   in-network, together with its local k-th value — the threshold that
   upper-bounds every object it did *not* nominate.
3. **Clean-Up (CL)**: candidates now have exact scores; any non-
   candidate is bounded by the combined thresholds. If that bound
   clears the k-th candidate the answer is certified; otherwise one
   expansion round nominates every local value above the k-th
   candidate score — after which nothing outside the expanded
   candidate set can beat it — and the join repeats.

Object scores combine across nodes with the same partial-aggregate
algebra MINT uses, so TJA here supports AVG / SUM / MIN / MAX ranking.

Switch-and-prove: on a deployment whose ``Network.hot`` is set each
phase runs as one fused pass over ``Network.converge_cast_plan()``
rows that ships every reply's ``wire_size`` in one
``Network.ship_edges`` call and builds no message. The hot passes
read one value *row* per participant: its window's values ordered by
the object ids' ``str`` labels (:func:`aligned_rows` reads them
straight from the windows; ``Tja(...)`` converts dict columns once).
Because positions follow the labels, one stable sort of a row's
positions by value ranks it in :func:`rank_key` order. Nominations
are int bitmasks over those positions: LB and the CL expansion share
one union pass that ORs them and ships each mask's ``bit_count``.
The join pass reads a row, or its candidate positions, as the
partial values themselves, since every aggregate but COUNT lifts a
reading to itself, and holds one ``(values, count, bound)`` row per
subtree, because aligned windows give every partial of a subtree one
count; a child's row folds in with one ``map`` of
``Aggregate.combine``.
A deployment built inside the oracle ``hotpath.reference_path()``
(or over a lossy radio) runs the first-principles phases over the
dict columns, which build every message and ship it through
``Network.send_up``; ``tests/test_hotpath_equivalence.py`` proves the
two byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter, lt
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import ProtocolError, ValidationError
from ..network.messages import (
    CandidateSetMessage,
    ControlMessage,
    JoinReplyMessage,
    LBReplyMessage,
    ObjectScore,
    QueryMessage,
    WireMessage,
)
from ..network.simulator import Network
from .aggregates import Aggregate, Partial
from .results import RankedItem, rank_key


Rows = dict[int, Sequence[float]]


def aligned_rows(windows: Iterable[tuple[int, Sequence[int],
                                         Sequence[float]]],
                 ) -> tuple[tuple[int, ...], Rows]:
    """Labels and value rows from ``(node, epochs, values)`` windows.

    A window is two aligned columns, one entry per epoch, in an order
    every window shares: epoch order, as
    :meth:`~repro.storage.window.SlidingWindow.tail` slices them. Empty
    windows are skipped; every other window must cover the first one's
    epochs, which one compare of the epochs columns checks (so every
    window's epochs must be of one sequence type). The labels are
    those epochs in ``str`` order, and each node's row holds its values
    in label order."""
    epochs: Sequence[int] = ()
    labels: tuple[int, ...] = ()
    pick: Callable[[Sequence[float]], tuple[float, ...]] | None = None
    rows: Rows = {}
    for node_id, node_epochs, values in windows:
        if not node_epochs:
            continue
        if not rows:
            epochs = node_epochs
            order = sorted(range(len(epochs)),
                           key=list(map(str, epochs)).__getitem__)
            labels = tuple(map(epochs.__getitem__, order))
            # A one-entry order is the identity, so itemgetter always
            # gets two or more positions and returns a tuple.
            pick = None if labels == tuple(epochs) else itemgetter(*order)
        elif node_epochs != epochs:
            raise ValidationError("TJA requires aligned history windows "
                                  "(same object ids on every node)")
        rows[node_id] = values if pick is None else pick(values)
    return labels, rows


def _column_window(node: int, column: Mapping[int, float]
                   ) -> tuple[int, list[int], list[float]]:
    """A dict column as an :func:`aligned_rows` window, its object ids
    in ``str`` order."""
    epochs = sorted(column, key=str)
    return node, epochs, [column[epoch] for epoch in epochs]


@dataclass(frozen=True)
class TjaResult:
    """Outcome of one TJA execution.

    Attributes:
        items: The exact top-k (object id = epoch), best first.
        candidates: Size of the final candidate set |L|.
        cleanup_rounds: Expansion rounds the CL phase needed (0 or 1).
        per_phase_bytes: Payload bytes attributed to each phase.
    """

    items: tuple[RankedItem, ...]
    candidates: int
    cleanup_rounds: int
    per_phase_bytes: Mapping[str, int] = field(default_factory=dict)


class Tja:
    """One-shot execution over each node's buffered history window."""

    name = "tja"

    def __init__(self, network: Network, aggregate: Aggregate, k: int,
                 series: Mapping[int, Mapping[int, float]]):
        """Args:
            network: Deployed simulator (routing tree + cost models).
            aggregate: Score combiner across nodes (AVG in the paper's
                example).
            k: Ranking depth.
            series: node id → {object id (epoch) → local value}. Every
                participating node must cover the same object ids (the
                dense sliding window of §III-B).
        """
        self.series = {node: dict(column) for node, column in series.items()}
        self._bind(network, aggregate, k, *aligned_rows(
            _column_window(node, column)
            for node, column in self.series.items()))

    @classmethod
    def over_rows(cls, network: Network, aggregate: Aggregate, k: int,
                  labels: tuple[int, ...], rows: Rows) -> "Tja":
        """An execution over :func:`aligned_rows`' output: ``labels``
        are the object ids in ``str`` order and ``rows`` holds each
        participant's values in that order. No dict column is built
        unless a reference phase reads :attr:`series`."""
        tja = cls.__new__(cls)
        tja._bind(network, aggregate, k, labels, rows)
        return tja

    def _bind(self, network: Network, aggregate: Aggregate, k: int,
              labels: tuple[int, ...], rows: Rows) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        if not rows:
            raise ValidationError("TJA needs at least one non-empty series")
        self.network = network
        self.aggregate = aggregate
        self.k = k
        self.labels = labels
        self.rows = rows
        self._bits = [1 << position for position in range(len(labels))]
        # Every aggregate but COUNT shares Aggregate.from_value, which
        # lifts a reading to Partial(reading, 1), so a row holds its
        # own partial values and only the others lift.
        from_value = aggregate.from_value
        self._lift = (
            None if type(aggregate).from_value is Aggregate.from_value
            else lambda reading: from_value(reading).value)

    @cached_property
    def series(self) -> dict[int, dict[int, float]]:
        """node id → {object id → local value}: the columns the
        reference phases read, rebuilt from the rows for an execution
        built by :meth:`over_rows`."""
        return {node: dict(zip(self.labels, row))
                for node, row in self.rows.items()}

    # ------------------------------------------------------------------
    # Local computations
    # ------------------------------------------------------------------

    def _local_top_k(self, node_id: int) -> list[int]:
        column = self.series.get(node_id, {})
        ranked = sorted(column.items(),
                        key=lambda item: rank_key(item[0], item[1]))
        return [object_id for object_id, _ in ranked[:self.k]]

    def _local_threshold(self, node_id: int) -> float | None:
        """The node's k-th highest local value (bounds non-nominees)."""
        column = self.series.get(node_id, {})
        if not column:
            return None
        ranked = sorted(column.values(), reverse=True)
        return ranked[min(self.k, len(ranked)) - 1]

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _lower_bound_phase(self) -> set[int]:
        """Hierarchical union of local top-k ids."""
        unions: dict[int, set[int]] = {}
        l_sink: set[int] = set()
        with self.network.stats.phase("LB"):
            self.network.flood_down(QueryMessage(query_id=2))
            for node_id in self.network.converge_cast_order():
                nominated = set(self._local_top_k(node_id))
                for child in self.network.tree.children(node_id):
                    nominated |= unions.get(child, set())
                message = LBReplyMessage(object_ids=tuple(sorted(nominated)))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    l_sink |= nominated
                else:
                    unions[node_id] = nominated
        return l_sink

    def _join_phase(self, candidates: set[int], phase_name: str = "HJ",
                    include_threshold: bool = True,
                    ) -> tuple[dict[int, Partial], Partial | None]:
        """Flood the candidate set, join exact partials hierarchically.

        Returns the joined partial per candidate and the combined
        threshold partial (each node's k-th local value folded with the
        aggregate algebra — the upper bound for unseen objects).
        """
        ordered = tuple(sorted(candidates))
        joined: dict[int, Partial] = {}
        threshold: Partial | None = None
        partials: dict[int, dict[int, Partial]] = {}
        thresholds: dict[int, Partial] = {}
        with self.network.stats.phase(phase_name):
            self.network.flood_down(CandidateSetMessage(object_ids=ordered))
            for node_id in self.network.converge_cast_order():
                local: dict[int, Partial] = {}
                column = self.series.get(node_id, {})
                for object_id in ordered:
                    if object_id in column:
                        local[object_id] = self.aggregate.from_value(
                            column[object_id])
                local_threshold = self._local_threshold(node_id)
                combined_threshold = (
                    self.aggregate.from_value(local_threshold)
                    if local_threshold is not None else None)
                for child in self.network.tree.children(node_id):
                    for object_id, partial in partials.get(child, {}).items():
                        existing = local.get(object_id)
                        local[object_id] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                    child_threshold = thresholds.get(child)
                    if child_threshold is not None:
                        combined_threshold = (
                            child_threshold if combined_threshold is None
                            else self.aggregate.merge(combined_threshold,
                                                      child_threshold))
                items = tuple(
                    ObjectScore(object_id, partial.value, partial.count)
                    for object_id, partial in sorted(local.items())
                )
                message = JoinReplyMessage(
                    items=items,
                    threshold_value=(combined_threshold.value
                                     if combined_threshold else 0.0),
                    threshold_count=(combined_threshold.count
                                     if combined_threshold else 0),
                )
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    for object_id, partial in local.items():
                        existing = joined.get(object_id)
                        joined[object_id] = (
                            partial if existing is None
                            else self.aggregate.merge(existing, partial))
                    if combined_threshold is not None:
                        threshold = (
                            combined_threshold if threshold is None
                            else self.aggregate.merge(threshold,
                                                      combined_threshold))
                else:
                    partials[node_id] = local
                    if combined_threshold is not None:
                        thresholds[node_id] = combined_threshold
        if not include_threshold:
            threshold = None
        return joined, threshold

    def _expansion_tau(self, tau: float) -> float:
        """Per-node nomination threshold that certifies the expansion.

        For AVG/MIN/MAX, an object with every local value ≤ τ scores
        ≤ τ. For SUM the per-node threshold must be τ/n (the TPUT
        argument): n values each ≤ τ/n sum to ≤ τ.
        """
        if self.aggregate.func == "SUM":
            return tau / len(self.rows)
        return tau

    def _expansion_phase(self, tau: float, known: set[int]) -> set[int]:
        """CL expansion: nominate every local value above the threshold."""
        tau = self._expansion_tau(tau)
        unions: dict[int, set[int]] = {}
        extra: set[int] = set()
        with self.network.stats.phase("CL"):
            self.network.flood_down(
                ControlMessage(label="cl_threshold", size=8))
            for node_id in self.network.converge_cast_order():
                nominated = {
                    object_id
                    for object_id, value in self.series.get(node_id, {}).items()
                    if value > tau and object_id not in known
                }
                for child in self.network.tree.children(node_id):
                    nominated |= unions.get(child, set())
                message = LBReplyMessage(object_ids=tuple(sorted(nominated)))
                parent = self.network.send_up(node_id, message)
                if parent == self.network.sink_id:
                    extra |= nominated
                else:
                    unions[node_id] = nominated
        return extra

    # ------------------------------------------------------------------
    # Hot path: one fused pass per phase over the converge-cast plan
    # ------------------------------------------------------------------

    # repro: hot
    def _local_rankings(self) -> tuple[dict[int, int], dict[int, float]]:
        """Each mote's local top-k, as a bitmask over label positions,
        and its lifted k-th value, from one sort of its row
        (:meth:`_local_top_k` and :meth:`_local_threshold` sort its
        column twice).

        Positions follow the labels, so a stable sort of them by value,
        descending, gives :func:`rank_key` order."""
        k = self.k
        positions = range(len(self.labels))
        kth = min(k, len(positions)) - 1
        bit = self._bits.__getitem__
        lift = self._lift
        tops: dict[int, int] = {}
        thresholds: dict[int, float] = {}
        for node_id, row in self.rows.items():
            ranked = sorted(positions, key=row.__getitem__, reverse=True)
            tops[node_id] = sum(map(bit, ranked[:k]))
            value = row[ranked[kth]]
            thresholds[node_id] = value if lift is None else lift(value)
        return tops, thresholds

    def _nominations_above(self, tau: float, known: int) -> dict[int, int]:
        """Each mote's CL nominations: the positions of its values above
        the expansion threshold, minus the ``known`` candidates."""
        tau = self._expansion_tau(tau)
        bits = self._bits
        return {
            node_id: sum(compress(bits, map(lt, repeat(tau), row))) & ~known
            for node_id, row in self.rows.items()
        }

    # repro: hot
    def _union_pass(self, phase: str, flood: WireMessage,
                    nominations: dict[int, int]) -> int:
        """The LB phase or the CL expansion: flood, then converge-cast
        the OR of every mote's ``nominations`` and return the sink's
        mask. Every mote ships its subtree's union size as one
        ``lb_reply``, empty ones included, and the pass ships them in
        one :meth:`Network.ship_edges` call (nothing in the loop can
        raise, so no edge is left unshipped)."""
        network = self.network
        size_of = list(map(LBReplyMessage.wire_size,
                           range(len(self.labels) + 1)))
        nominated_by = nominations.get
        unions: dict[int, int] = {}
        l_sink = 0
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        with network.stats.phase(phase):
            network.flood_down(flood)
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                nominated = nominated_by(node_id, 0)
                for child in children:
                    # A live child precedes its (non-sink) parent in
                    # the plan and always ships its union.
                    nominated |= unions[child]
                ship((node_id, parent, size_of[nominated.bit_count()]))
                if to_sink:
                    l_sink |= nominated
                else:
                    unions[node_id] = nominated
            network.ship_edges(LBReplyMessage.kind, edges)
        return l_sink

    # repro: hot
    def _join_pass(self, candidates: int, phase: str,
                   thresholds: Mapping[int, float],
                   ) -> tuple[dict[int, Partial], Partial | None]:
        """The HJ phase or the CL join: flood the ``candidates`` (a
        bitmask over label positions), then converge-cast one
        ``(values, count, bound)`` row per subtree.

        A participant's ``values`` are its row read at the candidate
        positions (the row itself when every label is a candidate),
        lifted only when the aggregate's lift is not the identity, and
        its ``bound`` is its lifted k-th value from ``thresholds``.
        Aligned windows give all of a subtree's partials one count,
        the thresholds' too, so a child's row folds in with one ``map``
        of ``Aggregate.combine`` and one scalar ``combine``: own values
        first, then the children in plan order, as :meth:`_join_phase`
        merges each object and threshold. A subtree without a
        participant has count 0. The sink rebuilds ``{object: Partial}``
        and the threshold partial once. The replies ship in one
        :meth:`Network.ship_edges` call, as in :meth:`_union_pass`."""
        network = self.network
        combine = self.aggregate.combine
        lift = self._lift
        labels = self.labels
        positions = [position for position, bit in enumerate(self._bits)
                     if candidates & bit]
        picked = None if len(positions) == len(labels) else positions
        objects = list(map(labels.__getitem__, positions))
        row_of = self.rows.get
        threshold_of = thresholds.__getitem__
        full = JoinReplyMessage.wire_size(len(positions))
        empty = JoinReplyMessage.wire_size(0)
        subtrees: dict[int, tuple[Sequence[float] | None, int, float]] = {}
        sink_values: Sequence[float] | None = None
        sink_count = 0
        sink_bound = 0.0
        edges: list[tuple[int, int, int]] = []
        ship = edges.append
        with network.stats.phase(phase):
            network.flood_down(
                CandidateSetMessage(object_ids=tuple(sorted(objects))))
            for node_id, parent, children, to_sink in (
                    network.converge_cast_plan()):
                values = row_of(node_id)
                if values is None:
                    count = 0
                    bound = 0.0
                else:
                    if picked is not None:
                        values = list(map(values.__getitem__, picked))
                    if lift is not None:
                        values = list(map(lift, values))
                    count = 1
                    bound = threshold_of(node_id)
                for child in children:
                    child_values, child_count, child_bound = subtrees[child]
                    if not child_count:
                        continue
                    if count:
                        values = list(map(combine, values, child_values))
                        bound = combine(bound, child_bound)
                    else:
                        values, bound = child_values, child_bound
                    count += child_count
                ship((node_id, parent, full if count else empty))
                if not to_sink:
                    subtrees[node_id] = (values, count, bound)
                elif count:
                    if sink_count:
                        sink_values = list(map(combine, sink_values, values))
                        sink_bound = combine(sink_bound, bound)
                    else:
                        sink_values, sink_bound = values, bound
                    sink_count += count
            network.ship_edges(JoinReplyMessage.kind, edges)
        if not sink_count:
            return {}, None
        return (dict(zip(objects, map(Partial, sink_values,
                                      repeat(sink_count)))),
                Partial(sink_bound, sink_count))

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def execute(self) -> TjaResult:
        """Run LB → HJ → CL and return the certified exact top-k."""
        before = dict(self.network.stats.by_phase)
        hot = self.network.hot
        if hot:
            tops, thresholds = self._local_rankings()
            candidates = self._union_pass("LB", QueryMessage(query_id=2),
                                          tops)
        else:
            candidates = self._lower_bound_phase()
        if not candidates:
            raise ProtocolError("LB phase produced no candidates")

        joined, threshold = (self._join_pass(candidates, "HJ", thresholds)
                             if hot else self._join_phase(candidates))
        exact = {
            object_id: self.aggregate.finalize(partial)
            for object_id, partial in joined.items()
        }
        ranked = sorted(exact.items(),
                        key=lambda item: rank_key(item[0], item[1]))
        effective_k = min(self.k, len(self.labels))
        tau = ranked[min(effective_k, len(ranked)) - 1][1]

        unseen_bound = (self.aggregate.finalize(threshold)
                        if threshold is not None else float("-inf"))
        cleanup_rounds = 0
        if len(exact) < len(self.labels) and unseen_bound > tau:
            cleanup_rounds = 1
            if hot:
                extra = self._union_pass(
                    "CL", ControlMessage(label="cl_threshold", size=8),
                    self._nominations_above(tau, candidates))
            else:
                extra = self._expansion_phase(tau, set(exact))
            if extra:
                joined_extra, _ = (
                    self._join_pass(extra, "CL", thresholds) if hot
                    else self._join_phase(extra, phase_name="CL",
                                          include_threshold=False))
                for object_id, partial in joined_extra.items():
                    exact[object_id] = self.aggregate.finalize(partial)
                ranked = sorted(exact.items(),
                                key=lambda item: rank_key(item[0], item[1]))

        items = tuple(
            RankedItem(key=object_id, score=score, lb=score, ub=score)
            for object_id, score in ranked[:effective_k]
        )
        after = self.network.stats.by_phase
        per_phase = {
            phase: after[phase].payload_bytes - (
                before[phase].payload_bytes if phase in before else 0)
            for phase in ("LB", "HJ", "CL") if phase in after
        }
        return TjaResult(
            items=items,
            candidates=len(exact),
            cleanup_rounds=cleanup_rounds,
            per_phase_bytes=per_phase,
        )

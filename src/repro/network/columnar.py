"""Columnar epoch kernel: structure-of-arrays batch sensing and masks.

This module is the data-layout half of the hot path — readings,
filter intervals and liveness live in parallel *columns* (one slot per
node, aligned to the deployment's sorted alive-id tuple), so the
per-epoch inner loops become a handful of whole-column operations plus
sparse scalar work on the rows a mask singles out:

* **batch sensing** — :meth:`repro.network.simulator.Network.read_many`
  samples a whole id tuple through one
  :meth:`~repro.sensing.generators.FieldGenerator.batch_values` call
  per board channel (grouped by an identity-keyed sampling plan cached
  on the alive tuple), vectorizing the clamp + ADC quantization — and,
  for hash-jittered fields, the per-cell uniform draw itself via
  :func:`hash01_column` — over the column; and
* **mask-driven passes** — FILA's monitor / answer / filter-install
  loops (:mod:`repro.core.fila`) ask the column helpers below which
  rows actually need Python-level work this epoch and skip the rest.

**Switch-and-prove discipline.** The kernel has no switch of its own:
it runs whenever :mod:`repro.network.hotpath` is on, and
``hotpath.reference_path()`` is its oracle. It is *semantically
invisible* — every reading, message, byte, joule, counter and RNG draw
is byte-identical to the reference path;
``tests/test_hotpath_equivalence.py`` proves it by driving random
workloads through both paths, under both backends, and comparing
every observable.

**Backends.** Whole-column math runs on numpy when it is importable
and on a pure-python ``array``-module backend when it is not (bare
deployments, the CI job that uninstalls numpy). Both backends produce
bit-identical columns: the vectorized ops used here (elementwise
add / min / max and ``np.rint``-based ADC quantization) are IEEE-754
identical to their scalar equivalents, and anything that is *not*
order-safe (windowed ``sum`` folds, per-cell Mersenne draws) stays
scalar on purpose. :func:`force_python_backend` pins the fallback for
tests even when numpy is installed.

What deliberately stays scalar, and why:

* per-cell *Mersenne* draws — Gaussian readings
  (:class:`~repro.sensing.generators.RoomField`) are pinned to
  ``random.Random(cell_seed)``'s Mersenne Twister output, which cannot
  be vectorized without changing bytes; the batch path only amortizes
  the object allocation by reusing one instance (``seed()`` resets
  ``gauss_next``, so draws match a fresh instance exactly). Uniform
  jitter (:class:`~repro.sensing.generators.ZipfEventField`) escaped
  this trap by moving to the counter-based splitmix64 hash
  (``_cell_hash01``), whose scalar and :func:`hash01_column` forms are
  bit-identical by construction — ``tests/test_generators.py`` pins
  them cell by cell;
* float accumulations (windowed AVG/SUM) — ``sum()`` is a left fold,
  numpy reductions are pairwise; not byte-identical, so not batched;
* message construction and lossy transport — every shipped message
  must keep its exact order (the loss process draws from a shared
  stream), so masked passes visit violator rows in ascending id order,
  and a lossy radio ships hop by hop.

Large lossless relay batches are the exception:
:meth:`~repro.network.simulator.Network.relay_many` charges a batch of
``_SCATTER_MIN_MOTES`` motes or more in one numpy scatter, and still
makes every float add of the per-hop loop, in its order. ``np.add.at``
is unbuffered and applies repeated indices in index order, so each
ledger's ``tx`` and ``rx`` receive their hops' joules one at a time,
in shipping order. Each stats sink's running total folds through
``np.cumsum``, a sequential ``add.accumulate``; the pairwise
``np.sum`` could round differently. On the pure-python backend the
loop runs.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sensing.modalities import Modality

# --------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------

#: numpy module when importable (and not disabled), else None. The
#: REPRO_NO_NUMPY environment variable forces the pure-python backend
#: process-wide — the CI fallback job and the bench's backend ablation
#: both use it.
try:  # pragma: no cover - exercised via both CI environments
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - the no-numpy environment
    _np = None

#: Test override: True pins the pure-python backend even when numpy
#: is importable (see :func:`force_python_backend`).
_force_python = False


def numpy_module():
    """The active numpy module, or None when the pure-python backend
    is in effect (numpy missing, ``REPRO_NO_NUMPY`` set, or a
    :func:`force_python_backend` block)."""
    return None if _force_python else _np


def backend() -> str:
    """``"numpy"`` or ``"python"`` — the active column backend."""
    return "python" if numpy_module() is None else "numpy"


@contextmanager
def force_python_backend() -> Iterator[None]:
    """Run the enclosed block on the pure-python column backend.

    The equivalence suite uses this to prove the fallback produces the
    same bytes as numpy even on hosts where numpy is installed; the
    real numpy-absent environment is additionally exercised by the CI
    job that uninstalls numpy.
    """
    global _force_python
    previous = _force_python
    _force_python = True
    try:
        yield
    finally:
        _force_python = previous


# --------------------------------------------------------------------
# Column constructors (backend-polymorphic: ndarray or list/array)
# --------------------------------------------------------------------

def float_column(values: Sequence[float]):
    """A float64 column from per-row values (ndarray, or ``array('d')``
    on the fallback backend — both index and mutate the same way)."""
    np = numpy_module()
    if np is not None:
        return np.asarray(values, dtype=np.float64)
    return array("d", values)


def bool_column(n: int, fill: bool = False):
    """A boolean column of ``n`` rows (ndarray or list)."""
    np = numpy_module()
    if np is not None:
        return np.full(n, fill, dtype=bool)
    return [fill] * n


def nan() -> float:
    """The column encoding for "no value" (missing filter, unknown
    reading): NaN compares False against everything, exactly like the
    scalar paths' ``None`` guards."""
    return float("nan")


# --------------------------------------------------------------------
# Batch sensing helpers
# --------------------------------------------------------------------

def quantize_column(values: Sequence[float], modality: "Modality"
                    ) -> list[float]:
    """Vectorized :meth:`~repro.sensing.modalities.Modality.quantize`
    over a raw-readings column; bit-identical to the scalar method.

    Scalar ``round()`` and ``np.rint`` both round half-to-even, and
    the clamp / scale arithmetic is elementwise IEEE-754, so every row
    equals ``modality.quantize(row)`` exactly (asserted by
    ``tests/test_generators.py`` and the equivalence suite).
    """
    np = numpy_module()
    if np is None:
        quantize = modality.quantize
        return [quantize(value) for value in values]
    steps = (1 << modality.adc_bits) - 1
    lo, span = modality.lo, modality.span
    column = np.asarray(values, dtype=np.float64)
    clamped = np.minimum(modality.hi, np.maximum(lo, column))
    index = np.rint((clamped - lo) / span * steps)
    return (lo + index * span / steps).tolist()


def clamp_column(values: Sequence[float], modality: "Modality"
                 ) -> list[float]:
    """Vectorized :meth:`~repro.sensing.modalities.Modality.clamp`
    (the ``quantize=False`` board configuration)."""
    np = numpy_module()
    if np is None:
        clamp = modality.clamp
        return [clamp(value) for value in values]
    column = np.asarray(values, dtype=np.float64)
    return np.minimum(modality.hi,
                      np.maximum(modality.lo, column)).tolist()


def clamp_values(values: Sequence[float], lo: float, hi: float
                 ) -> list[float]:
    """Elementwise ``min(hi, max(lo, v))`` — the field generators'
    range clamp, vectorized; IEEE-identical to the scalar form."""
    np = numpy_module()
    if np is None:
        return [min(hi, max(lo, value)) for value in values]
    column = np.asarray(values, dtype=np.float64)
    return np.minimum(hi, np.maximum(lo, column)).tolist()


def hash01_column(seed: int, node_ids: Sequence[int], epoch: int):
    """One splitmix64 uniform in ``[0, 1)`` per (node, epoch) cell.

    The vectorized twin of
    :func:`repro.sensing.generators._cell_hash01` — same linear cell
    seed, same finalizer constants, wrapped mod 2**64 (numpy's uint64
    wraparound equals the scalar path's explicit masking), and the
    ``(h >> 11) * 2**-53`` float conversion is exact in both (the
    mantissa fits 53 bits). ``tests/test_generators.py`` pins the two
    together cell-by-cell.

    Returns a numpy float64 array, or a plain list on the pure-python
    backend (one scalar hash per cell — still ~300x cheaper than
    per-cell Mersenne seeding).
    """
    np = numpy_module()
    if np is None:
        from ..sensing.generators import _cell_hash01
        return [_cell_hash01(seed, node_id, epoch) for node_id in node_ids]
    mask64 = (1 << 64) - 1
    ids = np.asarray(node_ids, dtype=np.uint64)
    h = ((np.uint64((seed * 1_000_003) & mask64) + ids)
         * np.uint64(1_000_033) + np.uint64(epoch & mask64))
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


# --------------------------------------------------------------------
# Mask helpers for FILA's fused passes
# --------------------------------------------------------------------
#
# Columns use NaN filter bounds for "no filter installed" and NaN known
# for "never reported": every comparison against NaN is False, which
# routes exactly the rows the scalar loops would special-case into the
# sparse scalar visit list. All helpers return ascending row indices —
# message order (and therefore the shared loss-RNG stream) must match
# the scalar iteration order byte for byte.

def pending_monitor_rows(values, flt_lo, flt_hi, synced) -> list[int]:
    """Rows the monitor pass must visit in Python.

    A row may be skipped iff its reading sits inside its installed
    filter AND the session's view bound is already that filter
    interval (``synced``): the scalar pass would call
    ``view.ensure(node, lo, hi)`` which is a proven no-op there
    (two float compares, no state change — see TopKView.ensure).
    """
    np = numpy_module()
    if np is not None and type(values) is np.ndarray:
        inside = (flt_lo <= values) & (values <= flt_hi)
        return np.nonzero(~(inside & synced))[0].tolist()
    return [row for row in range(len(values))
            if not (synced[row]
                    and flt_lo[row] <= values[row] <= flt_hi[row])]


def pending_answer_rows(values, known, flt_lo, synced) -> list[int]:
    """Rows the answer-time convergence pass must visit in Python.

    Skippable rows are non-exact (``known != value``), have a filter
    installed (``flt_lo`` not NaN) and are ``synced`` — the scalar
    pass would re-``ensure`` the filter interval, a no-op. Exact rows,
    filterless rows and unsynced rows keep their scalar handling.
    """
    np = numpy_module()
    if np is not None and type(values) is np.ndarray:
        need = (values == known) | ~synced | np.isnan(flt_lo)
        return np.nonzero(need)[0].tolist()
    return [row for row in range(len(values))
            if values[row] == known[row] or not synced[row]
            or flt_lo[row] != flt_lo[row]]  # NaN != NaN: no filter


def acceptable_filters(flt_lo, flt_hi, chosen, boundary: float,
                       agg_lo: float, agg_hi: float):
    """The repartition acceptability column.

    Mirrors ``Fila._install_filters``: a chosen row keeps its filter
    when it already sits at/above the cut with the full upper range; a
    non-chosen row when at/below the cut with the full lower range.
    NaN bounds (no filter) are never acceptable. The caller still
    applies the sparse exact-value containment fix-up before acting.
    """
    np = numpy_module()
    if np is not None and type(chosen) is np.ndarray:
        keep_chosen = (flt_lo >= boundary) & (flt_hi == agg_hi)
        keep_other = (flt_hi <= boundary) & (flt_lo == agg_lo)
        return np.where(chosen, keep_chosen, keep_other)
    return [((flt_lo[row] >= boundary and flt_hi[row] == agg_hi)
             if chosen[row]
             else (flt_hi[row] <= boundary and flt_lo[row] == agg_lo))
            for row in range(len(chosen))]


def pending_install_rows(flt_lo, flt_hi, chosen, acceptable,
                         boundary: float, agg_lo: float, agg_hi: float
                         ) -> list[int]:
    """Rows whose filter must actually be reinstalled, ascending.

    A row needs work when it has a filter, is not acceptable, and its
    current interval differs from the target interval for its side of
    the cut (the scalar pass's ``current == new_filter`` skip).
    """
    np = numpy_module()
    if np is not None and type(chosen) is np.ndarray:
        has_filter = ~np.isnan(flt_lo)
        already = np.where(chosen,
                           (flt_lo == boundary) & (flt_hi == agg_hi),
                           (flt_lo == agg_lo) & (flt_hi == boundary))
        need = has_filter & ~acceptable & ~already
        return np.nonzero(need)[0].tolist()
    rows = []
    for row in range(len(chosen)):
        lo, hi = flt_lo[row], flt_hi[row]
        if lo != lo or acceptable[row]:  # NaN lo: no filter installed
            continue
        if chosen[row]:
            if lo == boundary and hi == agg_hi:
                continue
        elif lo == agg_lo and hi == boundary:
            continue
        rows.append(row)
    return rows


def exact_rows(flt_lo, flt_hi, synced) -> list[int]:
    """Rows whose certification bound is exact (``lb == ub``).

    Post-monitor every unsynced row's bound is a point (its freshly
    reported or probed value); a synced row is exact only when its
    filter interval is degenerate. These are the rows the repartition's
    exact-value containment fix-up inspects.
    """
    np = numpy_module()
    if np is not None and type(synced) is np.ndarray:
        return np.nonzero(~synced | (flt_lo == flt_hi))[0].tolist()
    return [row for row in range(len(synced))
            if not synced[row] or flt_lo[row] == flt_hi[row]]


def masked_ceiling(values, flt_hi, synced, chosen_rows: Sequence[int]
                   ) -> float | None:
    """``max`` upper bound over every row not in ``chosen_rows``.

    Post-monitor each row's view bound is either its filter interval
    (``synced``) or exactly its reading, so the upper bound column is
    ``where(synced, flt_hi, value)``. Float ``max`` is reduction-order
    safe, so the column maximum equals the scalar ``max()`` over the
    view's bounds mapping byte for byte. None when every row is
    chosen (the scalar ``others`` list is empty).
    """
    n = len(values)
    if len(chosen_rows) >= n:
        chosen = set(chosen_rows)
        if all(row in chosen for row in range(n)):
            return None
    np = numpy_module()
    if np is not None and type(values) is np.ndarray:
        upper = np.where(synced, flt_hi, values)
        keep = np.ones(n, dtype=bool)
        for row in chosen_rows:
            keep[row] = False
        if not keep.any():
            return None
        return float(upper[keep].max())
    chosen = set(chosen_rows)
    best = None
    for row in range(n):
        if row in chosen:
            continue
        upper = flt_hi[row] if synced[row] else values[row]
        if best is None or upper > best:
            best = upper
    return best


# --------------------------------------------------------------------
# Per-deployment columnar state
# --------------------------------------------------------------------

class ColumnarState:
    """Structure-of-arrays caches one :class:`Network` owns.

    Holds the per-attribute *readings row* of the current epoch — the
    value dict (in ascending-id order, shared by every session that
    asks for the same id tuple) plus its aligned column — so N
    concurrent sessions pay for one batch acquisition instead of N
    scans of the per-node sample caches. Rows are keyed by the
    identity of the requesting id tuple (the network's cached alive
    tuple, or an engine's cached participant tuple) and epoch-stamped,
    so staleness is impossible by construction: a new epoch or a
    topology change (which rebuilds the id tuple) simply never
    matches.
    """

    __slots__ = ("_rows", "_plans", "_epochs")

    def __init__(self) -> None:
        #: attribute -> {id(ids_tuple): (epoch, ids_tuple, readings,
        #:                               column-or-None)}
        self._rows: dict[str, dict[int, list]] = {}
        #: attribute -> (ids_tuple, plan) — the memoized sampling plan
        #: (see :meth:`plan`).
        self._plans: dict[str, tuple] = {}
        #: attribute -> epoch of the newest stored row (any id tuple).
        self._epochs: dict[str, int] = {}

    def cached(self, attribute: str, epoch: int, ids: tuple[int, ...]):
        """The readings dict previously built for this exact id tuple
        at this epoch, or None."""
        entry = self._rows.get(attribute, {}).get(id(ids))
        if entry is not None and entry[0] == epoch and entry[1] is ids:
            return entry[2]
        return None

    def has_row(self, attribute: str, epoch: int) -> bool:
        """Whether *any* readings row (whatever its id tuple) has been
        stored for this attribute at this epoch.

        False means no batch read has run yet this epoch, so no session
        can have warmed the per-node sample caches through the planned
        path — the epoch's first batch may skip the per-row freshness
        probe (:meth:`~repro.network.node.SensorNode.book_sample` still
        re-checks per node, covering stragglers sampled by a scalar
        ``read``)."""
        return self._epochs.get(attribute) == epoch

    def store(self, attribute: str, epoch: int, ids: tuple[int, ...],
              readings: dict[int, float]) -> None:
        """Remember one epoch's readings row for an id tuple."""
        self._epochs[attribute] = epoch
        per_attribute = self._rows.setdefault(attribute, {})
        if len(per_attribute) > 16:
            # A session churning through fresh participant tuples must
            # not grow the row table without bound.
            per_attribute.clear()
        per_attribute[id(ids)] = [epoch, ids, readings, None]

    def plan(self, attribute: str, ids: tuple[int, ...]):
        """The memoized sampling plan for this exact id tuple, or None.

        A plan is the id tuple's partition into board channels —
        ``((field, modality, quantize, ids_list, (row, node) pairs),
        ...)`` — everything about the grouping walk of
        :meth:`~repro.network.simulator.Network.read_many` that is a
        pure function of the id tuple and the nodes' boards. It is
        keyed by the tuple's *identity*: any topology change rebuilds
        the network's alive tuple (and engines rebuild their
        participant tuples), so a stale plan simply never matches.
        Per-epoch freshness (the same-epoch sample cache) is *not*
        baked in — :meth:`~repro.network.node.SensorNode.book_sample`
        re-checks it per node each epoch."""
        entry = self._plans.get(attribute)
        if entry is not None and entry[0] is ids:
            return entry[1]
        return None

    def store_plan(self, attribute: str, ids: tuple[int, ...],
                   plan) -> None:
        """Remember the sampling plan for an id tuple (one per
        attribute — sessions share the alive tuple, and an engine
        cycling through fresh subset tuples overwrites harmlessly)."""
        self._plans[attribute] = (ids, plan)

    def column(self, attribute: str, epoch: int, ids: tuple[int, ...]):
        """The readings row as a backend column aligned to ``ids``
        (built lazily, cached beside the dict); None when the row is
        not cached."""
        entry = self._rows.get(attribute, {}).get(id(ids))
        if entry is None or entry[0] != epoch or entry[1] is not ids:
            return None
        if entry[3] is None:
            entry[3] = float_column(list(entry[2].values()))
        return entry[3]

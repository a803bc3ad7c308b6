"""Columnar epoch kernel: structure-of-arrays batch sensing.

This module is the data-layout half of the hot path — one epoch's
readings are acquired as a *column* (one slot per node, aligned to the
deployment's sorted alive-id tuple), so sensing becomes a handful of
whole-column operations per board channel:

* **batch sensing** — :meth:`repro.network.simulator.Network.read_many`
  samples a whole id tuple through one
  :meth:`~repro.sensing.generators.FieldGenerator.batch_values` call
  per board channel (grouped by a sampling plan cached per id tuple
  until the topology changes), vectorizing the ADC quantization — and
  the per-cell uniform draws themselves via :func:`hash01_column` —
  over the column. A clamp-only board (``quantize=False``) clamps
  value by value, as the reference path does, so an int reading stays
  an int.

**Switch-and-prove discipline.** The kernel has no switch of its own:
it runs on every deployment whose ``Network.hot`` is set (see
:mod:`repro.network.hotpath`), and a deployment built inside
``hotpath.reference_path()`` is its oracle. It is *semantically
invisible* — every reading, message, byte, joule, counter and RNG draw
is byte-identical to the reference path;
``tests/test_hotpath_equivalence.py`` proves it by driving random
workloads through both paths, under both backends, and comparing
every observable.

**Backends.** Whole-column math runs on numpy when it is importable
and on pure-python lists when it is not (bare deployments, the CI job
that uninstalls numpy). Both backends produce bit-identical columns:
the vectorized ops used here (elementwise add / min / max and
``np.rint``-based ADC quantization) are IEEE-754 identical to their
scalar equivalents, and anything that is not (windowed ``sum``
folds, the ``log``/``cos`` of a Gaussian draw) stays scalar on purpose.
:func:`force_python_backend` pins the fallback for tests even when
numpy is installed. Unlike the execution path, the backend stays
process-wide: since the two cannot produce different bytes, flipping
it cannot change an answer.

What deliberately stays scalar, and why:

* the Gaussian transform — every cell draw is a counter-based
  splitmix64 hash (``_cell_hash01``), whose scalar and
  :func:`hash01_column` forms are bit-identical by construction
  (``tests/test_generators.py`` pins them cell by cell), so the
  uniform columns are hashed whole. But numpy's ``log`` and ``cos``
  are not promised to be bit-equal to libm's, so
  :class:`~repro.sensing.generators.RoomField` turns its two uniform
  columns into Gaussian noise row by row with scalar ``math``;
* float accumulations (windowed AVG/SUM) — ``sum()`` is a left fold,
  numpy reductions are pairwise; not byte-identical, so not batched;
* message construction — every shipped message keeps its exact
  order, so FILA's passes visit violator rows in ascending id order.
  (A lossy radio, whose loss process draws from a shared stream, runs
  the reference path and ships hop by hop.)

Large relay batches are the exception:
:meth:`~repro.network.simulator.Network.relay_many` charges a batch of
``_SCATTER_MIN_MOTES`` motes or more in one numpy scatter, and still
makes every float add of the per-hop loop, in its order. ``np.add.at``
is unbuffered and applies repeated indices in index order, so each
ledger's ``tx`` and ``rx`` receive their hops' joules one at a time,
in shipping order. The deployment ledger's running total folds through
``np.cumsum``, a sequential ``add.accumulate``; the pairwise
``np.sum`` could round differently. On the pure-python backend the
loop runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sensing.modalities import Modality

# --------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------

#: numpy module when importable, else None (the CI job that
#: uninstalls numpy runs the pure-python backend this way).
try:  # pragma: no cover - exercised via both CI environments
    import numpy as _np
except ImportError:  # pragma: no cover - the no-numpy environment
    _np = None

#: Test override: True pins the pure-python backend even when numpy
#: is importable (see :func:`force_python_backend`).
_force_python = False


def numpy_module():
    """The active numpy module, or None when the pure-python backend
    is in effect (numpy missing, or a :func:`force_python_backend`
    block)."""
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
    """:meth:`~repro.sensing.modalities.Modality.clamp` per value (the
    ``quantize=False`` board configuration), on either backend, as the
    reference path clamps: a float64 column would book an int reading
    that lies inside the range as a float."""
    clamp = modality.clamp
    return [clamp(value) for value in values]


def clamp_values(values: Sequence[float], lo: float, hi: float
                 ) -> list[float]:
    """Elementwise ``min(hi, max(lo, v))`` — the field generators'
    range clamp, vectorized; IEEE-identical to the scalar form."""
    np = numpy_module()
    if np is None:
        return [min(hi, max(lo, value)) for value in values]
    column = np.asarray(values, dtype=np.float64)
    return np.minimum(hi, np.maximum(lo, column)).tolist()


def hash01_column(seed: int, node_ids: Sequence[int], epoch: int,
                  draw: int = 0):
    """Uniform draw ``draw`` of each (node, epoch) cell, in ``[0, 1)``.

    The vectorized twin of
    :func:`repro.sensing.generators._cell_hash01` — same linear cell
    seed and draw stride, same splitmix64 finalizer constants, wrapped
    mod 2**64 (numpy's uint64 wraparound equals the scalar path's
    explicit masking), and the ``(h >> 11) * 2**-53`` float conversion
    is exact in both (the mantissa fits 53 bits).
    ``tests/test_generators.py`` pins the two together cell by cell.

    Returns a numpy float64 array, or a plain list on the pure-python
    backend (one scalar hash per cell).
    """
    np = numpy_module()
    if np is None:
        from ..sensing.generators import _cell_hash01
        return [_cell_hash01(seed, node_id, epoch, draw)
                for node_id in node_ids]
    mask64 = (1 << 64) - 1
    ids = np.asarray(node_ids, dtype=np.uint64)
    h = ((np.uint64((seed * 1_000_003) & mask64) + ids)
         * np.uint64(1_000_033)
         + np.uint64((epoch + draw * 0x9E3779B97F4A7C15) & mask64))
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


# --------------------------------------------------------------------
# Per-deployment columnar state
# --------------------------------------------------------------------

class ColumnarState:
    """Structure-of-arrays caches one :class:`Network` owns.

    Holds the per-attribute *readings rows* of the current epoch —
    each the value dict of one id tuple, in ascending-id order — so N
    concurrent sessions that ask for equal id tuples pay for one batch
    acquisition instead of N scans of the motes' windows, and
    the *sampling plans* that batch reuses. Both are keyed by the id
    tuple itself, so sessions whose membership selects the same motes
    share them whether or not they hold one tuple object. A row lives
    for its epoch: the first store of a newer epoch drops the older
    rows. The network drops every row and plan when its topology
    changes (:meth:`drop_rows_and_plans`), so neither can outlive the
    motes it was built over; either table also starts over past
    :data:`_MAX_TUPLES` tuples of one attribute.
    """

    __slots__ = ("_rows", "_plans", "_channels")

    def __init__(self) -> None:
        #: attribute -> (epoch, {ids_tuple: readings}) — the rows of
        #: the newest epoch read.
        self._rows: dict[str, tuple[int, dict[tuple[int, ...], dict]]] = {}
        #: attribute -> {ids_tuple: plan} — the memoized sampling plans
        #: (see :meth:`plan`).
        self._plans: dict[str, dict[tuple[int, ...], tuple]] = {}
        #: attribute -> {node id: (board, group key, channel)} — see
        #: :meth:`channels`.
        self._channels: dict[str, dict[int, tuple]] = {}

    def cached(self, attribute: str, epoch: int, ids: tuple[int, ...]):
        """The readings dict previously built for an equal id tuple at
        this epoch, or None."""
        entry = self._rows.get(attribute)
        if entry is not None and entry[0] == epoch:
            return entry[1].get(ids)
        return None

    def has_row(self, attribute: str, epoch: int) -> bool:
        """Whether *any* readings row (whatever its id tuple) has been
        stored for this attribute at this epoch.

        False means no batch read has run yet this epoch, so no session
        can have booked this epoch into the windows through the planned
        path — the epoch's first batch may skip the per-row freshness
        probe (it still sends a mote whose window holds this epoch, a
        straggler sampled by a scalar ``read``, through
        :meth:`~repro.network.node.SensorNode.book_sample`)."""
        entry = self._rows.get(attribute)
        return entry is not None and entry[0] == epoch

    def store(self, attribute: str, epoch: int, ids: tuple[int, ...],
              readings: dict[int, float]) -> None:
        """Remember one epoch's readings row for an id tuple."""
        entry = self._rows.get(attribute)
        if entry is None or entry[0] != epoch:
            entry = self._rows[attribute] = (epoch, {})
        _remember(entry[1], ids, readings)

    def plan(self, attribute: str, ids: tuple[int, ...]):
        """The memoized sampling plan for an equal id tuple, or None.

        A plan is the id tuple's partition into board channels —
        ``((field, modality, quantize, ids_list, (row, node, window)
        triples), ...)`` — everything about the grouping walk of
        :meth:`~repro.network.simulator.Network.read_many` that is a
        pure function of the id tuple and the nodes' boards, plus each
        node's window for the attribute. It holds until the topology
        changes, when the network drops it. Per-epoch freshness (a
        window whose newest entry is this epoch's) is *not* baked in —
        ``read_many`` checks each window every epoch."""
        return self._plans.get(attribute, {}).get(ids)

    def store_plan(self, attribute: str, ids: tuple[int, ...],
                   plan) -> None:
        """Remember the sampling plan for an id tuple. Sessions over
        every alive sensor share the alive tuple; one reading a subset
        (a historic query, which adopts no newborn) keeps its own plan
        beside it instead of evicting it."""
        _remember(self._plans.setdefault(attribute, {}), ids, plan)

    def drop_rows_and_plans(self) -> None:
        """Forget every readings row and sampling plan: after a
        topology change an equal id tuple may name a mote that died
        or a newborn that took a dead mote's id."""
        self._rows.clear()
        self._plans.clear()

    def channels(self, attribute: str) -> dict[int, tuple]:
        """Node id → ``(board, group key, (field, modality, quantize))``
        for every live node a plan over ``attribute`` grouped: a new
        plan regroups such a node without asking its board again while
        ``node.board`` is still that board object. The network updates
        it while building a plan and drops a node on its death
        (:meth:`forget`)."""
        return self._channels.setdefault(attribute, {})

    def forget(self, node_id: int) -> None:
        """Drop a dead node from every attribute's channel memo."""
        for known in self._channels.values():
            known.pop(node_id, None)


#: Id tuples whose readings rows (and, separately, sampling plans) an
#: attribute keeps before the table starts over: a session churning
#: through fresh participant tuples must not grow it without bound.
_MAX_TUPLES = 16


def _remember(table: dict[tuple[int, ...], object], ids: tuple[int, ...],
              entry: object) -> None:
    """Store ``entry`` under ``ids``, clearing a full table first."""
    if len(table) > _MAX_TUPLES:
        table.clear()
    table[ids] = entry

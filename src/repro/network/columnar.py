"""Columnar epoch kernel: structure-of-arrays batch sensing.

This module is the data-layout half of the hot path — one epoch's
readings are acquired as a *column* (one slot per node, aligned to the
deployment's sorted alive-id tuple), so sensing becomes a handful of
whole-column operations per board channel:

* **batch sensing** — :meth:`repro.network.simulator.Network.read_many`
  samples a whole id tuple through one
  :meth:`~repro.sensing.generators.FieldGenerator.batch_values` call
  per board channel (grouped by an identity-keyed sampling plan cached
  on the alive tuple), vectorizing the clamp + ADC quantization — and,
  for hash-jittered fields, the per-cell uniform draw itself via
  :func:`hash01_column` — over the column.

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
scalar equivalents, and anything that is *not* order-safe (windowed
``sum`` folds, per-cell Mersenne draws) stays scalar on purpose.
:func:`force_python_backend` pins the fallback for tests even when
numpy is installed. Unlike the execution path, the backend stays
process-wide: since the two cannot produce different bytes, flipping
it cannot change an answer.

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
in shipping order. Each stats sink's running total folds through
``np.cumsum``, a sequential ``add.accumulate``; the pairwise
``np.sum`` could round differently. On the pure-python backend the
loop runs.
"""

from __future__ import annotations

import os
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
# Per-deployment columnar state
# --------------------------------------------------------------------

class ColumnarState:
    """Structure-of-arrays caches one :class:`Network` owns.

    Holds the per-attribute *readings row* of the current epoch — the
    value dict, in ascending-id order, shared by every session that
    asks for the same id tuple — so N concurrent sessions pay for one
    batch acquisition instead of N scans of the per-node sample
    caches. Rows are keyed by the identity of the requesting id tuple
    (the network's cached alive tuple, or an engine's cached
    participant tuple) and epoch-stamped, so staleness is impossible
    by construction: a new epoch or a topology change (which rebuilds
    the id tuple) simply never matches.
    """

    __slots__ = ("_rows", "_plans", "_epochs")

    def __init__(self) -> None:
        #: attribute -> {id(ids_tuple): (epoch, ids_tuple, readings)}
        self._rows: dict[str, dict[int, tuple]] = {}
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
        per_attribute[id(ids)] = (epoch, ids, readings)

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

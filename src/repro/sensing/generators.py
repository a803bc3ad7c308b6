"""Deterministic synthetic field generators.

The paper's demo senses a live conference sound field. That field is not
available offline, so experiments run on synthetic fields whose skew and
spatial correlation are controllable — the properties that drive top-k
pruning efficacy. All generators are seeded and therefore reproducible.

A *field generator* answers one question: what does node ``node_id``
read at epoch ``epoch``? Generators are composable (see
:class:`RoomField`, which layers per-room baselines, room random walks
and per-node noise, reproducing the "rooms with active discussions"
scenario of the paper's Figure 1).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from .modalities import Modality


_MASK64 = (1 << 64) - 1
#: splitmix64's golden-ratio stride: draw ``d`` of a cell is ``d`` strides on.
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _cell_hash01(seed: int, node_id: int, epoch: int, draw: int = 0
                 ) -> float:
    """Uniform float ``draw`` of one cell in ``[0, 1)``: a splitmix64
    finalizer over the linear cell seed plus ``draw`` golden strides.

    Counter-based: the cell coordinates *are* the state, so a reading
    is a pure function of ``(seed, node_id, epoch)``, independent of
    evaluation order, and the whole column can be hashed at once
    (:func:`repro.network.columnar.hash01_column` is the vectorized
    twin; ``tests/test_generators.py`` pins the two together). Every
    per-reading draw of the sensing layer comes from this one family:
    :class:`ZipfEventField` jitter and :class:`UniformRandomField`
    readings use draw 0, and :func:`_cell_gauss` uses draws 0 and 1.
    """
    h = ((seed * 1_000_003 + node_id) * 1_000_033 + epoch
         + draw * _GOLDEN) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return (h >> 11) * 2.0 ** -53


def _gauss01(u0: float, u1: float) -> float:
    """A standard normal from two uniforms in ``[0, 1)``.

    CPython's own ``random.gauss`` transform, in its order: angle from
    ``u0``, radius from ``u1`` (``1 - u1`` is never 0). Scalar ``math``
    on purpose: numpy's ``log``/``cos`` are not promised to be bit-equal
    to libm's, and a batch path must equal the scalar one.
    """
    return math.cos(_TWO_PI * u0) * math.sqrt(-2.0 * math.log(1.0 - u1))


def _cell_gauss(seed: int, node_id: int, epoch: int) -> float:
    """One cell's standard normal, from its draws 0 and 1."""
    return _gauss01(_cell_hash01(seed, node_id, epoch),
                    _cell_hash01(seed, node_id, epoch, 1))


class FieldGenerator(ABC):
    """Produces the physical value sensed by a node at an epoch."""

    @abstractmethod
    def value(self, node_id: int, epoch: int) -> float:
        """The raw (unquantized) reading of ``node_id`` at ``epoch``."""

    def batch_values(self, node_ids: Sequence[int], epoch: int
                     ) -> list[float]:
        """One epoch's readings for a whole id column, in order.

        Byte-identical to ``[self.value(n, epoch) for n in node_ids]``
        — that *is* the default implementation. Fields whose per-cell
        work vectorizes (:class:`RoomField`, :class:`ZipfEventField`)
        override it for the columnar kernel
        (:mod:`repro.network.columnar`); the equivalence suite holds
        every override to the scalar loop.
        """
        return [self.value(node_id, epoch) for node_id in node_ids]

    def bounded(self, modality: Modality, node_id: int, epoch: int) -> float:
        """The reading clamped and quantized to a modality's ADC."""
        return modality.quantize(self.value(node_id, epoch))


class ClusterField(FieldGenerator):
    """A field whose nodes belong to named clusters (rooms, groups).

    Owns the one enrollment code path churn newborns take: PR 2 wired
    :class:`RoomField` and :class:`ZipfEventField` enrollment
    separately, and the duplicated guards drifted — this base class is
    the fix. Subclasses declare their cluster universe via
    :meth:`_known_clusters`; :meth:`enroll` validates against it and
    records the membership, so a newborn's very first sample draws
    from its inherited cluster under either field
    (``tests/test_generators.py`` holds both fields to that).
    """

    #: node id -> cluster key; subclasses populate at construction.
    _cluster_of: dict
    #: Bumped on every enrollment — batch paths key their per-id-tuple
    #: memos on it so a newborn invalidates them.
    _membership_version = 0

    def _known_clusters(self):
        """The clusters nodes may enroll into (membership container)."""
        raise NotImplementedError

    def cluster_of(self, node_id: int):
        """The cluster ``node_id`` senses within (None when unknown)."""
        return self._cluster_of.get(node_id)

    def enroll(self, node_id: int, cluster) -> None:
        """Admit a newborn node into an existing cluster (churn
        births): it senses that cluster's activity like any mote
        deployed there from the start. Unknown clusters are a
        configuration error (the cluster universe is fixed at
        construction)."""
        if cluster not in self._known_clusters():
            raise ConfigurationError(f"unknown cluster {cluster!r}")
        self._cluster_of[node_id] = cluster
        self._membership_version += 1


class ConstantField(FieldGenerator):
    """Every node reads a fixed per-node constant.

    Used for pinned scenarios such as the paper's Figure 1, where the
    nine sensors read exactly {40, 74, 75, 42, 75, 75, 78, 75, 39}.
    """

    def __init__(self, values: Mapping[int, float], default: float = 0.0):
        self._values = dict(values)
        self._default = default

    def value(self, node_id: int, epoch: int) -> float:
        return self._values.get(node_id, self._default)


class UniformRandomField(FieldGenerator):
    """Independent uniform readings in ``[lo, hi]``."""

    def __init__(self, lo: float, hi: float, seed: int = 0):
        if lo > hi:
            raise ConfigurationError("UniformRandomField: lo must be <= hi")
        self._lo = lo
        self._hi = hi
        self._seed = seed

    def value(self, node_id: int, epoch: int) -> float:
        return self._lo + (self._hi - self._lo) * _cell_hash01(
            self._seed, node_id, epoch)


class GaussianNoiseField(FieldGenerator):
    """A base field plus independent Gaussian noise per reading."""

    def __init__(self, base: FieldGenerator, sigma: float, seed: int = 0):
        if sigma < 0:
            raise ConfigurationError("sigma must be non-negative")
        self._base = base
        self._sigma = sigma
        self._seed = seed

    def value(self, node_id: int, epoch: int) -> float:
        noise = self._sigma * _cell_gauss(self._seed ^ 0x5EED, node_id, epoch)
        return self._base.value(node_id, epoch) + noise


class RandomWalkField(FieldGenerator):
    """Per-node bounded random walk — temporally correlated readings.

    Temporal correlation is what makes MINT's cached views pay off: a
    view whose tuples barely move needs few update messages.

    Each step is a uniform draw from a Mersenne Twister seeded per
    (walk, epoch) cell, not a :func:`_cell_hash01` draw: a walk makes
    one memoized draw per epoch, so a hash cell would buy no speed, and
    moving it would shift every :class:`RoomField` scenario's room
    trajectories.

    A walk keeps its newest ``_WINDOW`` values and the epoch of the
    first one it holds, so a long run holds bounded memory. An older
    epoch is recomputed stepwise from the start and not cached; since
    each step is seeded per cell, a value is the same whatever order
    the epochs are read in.
    """

    #: The newest values a walk keeps.
    _WINDOW = 1024

    def __init__(self, start: float, step: float, lo: float, hi: float,
                 seed: int = 0):
        if lo > hi:
            raise ConfigurationError("RandomWalkField: lo must be <= hi")
        self._start = min(hi, max(lo, start))
        self._step = step
        self._lo = lo
        self._hi = hi
        self._seed = seed
        #: walk → [epoch of the first value held, the newest values].
        self._cache: dict[int, list] = {}

    def _next(self, node_id: int, t: int, previous: float) -> float:
        """The walk's value at epoch ``t`` from its value at ``t - 1``."""
        rng = random.Random(((self._seed ^ 0xA1C) * 1_000_003 + node_id)
                            * 1_000_033 + t)
        nxt = previous + rng.uniform(-self._step, self._step)
        return min(self._hi, max(self._lo, nxt))

    def value(self, node_id: int, epoch: int) -> float:
        held = self._cache.get(node_id)
        if held is None:
            held = self._cache[node_id] = [
                0, deque((self._start,), maxlen=self._WINDOW)]
        first, walk = held
        if epoch < first:
            value = self._start
            for t in range(1, epoch + 1):
                value = self._next(node_id, t, value)
            return value
        end = first + len(walk)
        if epoch < end:
            return walk[epoch - first]
        value = walk[-1]
        for t in range(end, epoch + 1):
            value = self._next(node_id, t, value)
            walk.append(value)
        held[0] = epoch + 1 - len(walk)
        return value


class DiurnalField(FieldGenerator):
    """Sinusoidal day/night pattern plus per-node phase offset.

    Models temperature-style signals: ``mean + amplitude *
    sin(2π (epoch/period + phase(node)))``.
    """

    def __init__(self, mean: float, amplitude: float, period_epochs: int,
                 seed: int = 0, common_phase: bool = False):
        """``common_phase=True`` drives every node with the *same*
        oscillation (one shared weather signal) — the workload where a
        time instant hot at one node is hot at all of them, which is
        what historic-vertical queries rank."""
        if period_epochs <= 0:
            raise ConfigurationError("period_epochs must be positive")
        self._mean = mean
        self._amplitude = amplitude
        self._period = period_epochs
        self._seed = seed
        self._common_phase = common_phase

    def value(self, node_id: int, epoch: int) -> float:
        phase_key = 0 if self._common_phase else node_id
        phase = random.Random(self._seed * 7919 + phase_key).random()
        angle = 2.0 * math.pi * (epoch / self._period + phase)
        return self._mean + self._amplitude * math.sin(angle)


class ZipfEventField(ClusterField):
    """Zipf-skewed event magnitudes over groups of nodes.

    With skew ``s = 0`` every group is equally loud on average; as ``s``
    grows a few groups dominate, which is the regime where top-k pruning
    saves the most traffic. Group ``r`` (by popularity rank) has expected
    magnitude proportional to ``1 / (r+1)^s``; per-epoch jitter is
    uniform within ±``jitter``, drawn from the counter-based per-cell
    hash (:func:`_cell_hash01`) so the batch path vectorizes it exactly.
    """

    #: The per-cell jitter RNG stream offset (distinct per field kind).
    _STREAM = 0x21F

    def __init__(self, group_of: Mapping[int, int], lo: float, hi: float,
                 skew: float, jitter: float = 5.0, seed: int = 0,
                 margin: float = 0.0):
        """``margin`` insets the group levels from the field's clamp
        range: levels span ``[lo + margin, hi - margin]`` instead of
        ``[lo, hi]``. With ``margin >= jitter`` no reading ever
        saturates — without it the top group's level sits exactly at
        ``hi`` (and, under skew, the quietest groups within jitter of
        ``lo``), so a large fraction of readings clamp to the exact
        rail values, which collapses the value distribution at the
        rails. Default 0 keeps the historical saturating behavior.
        """
        if lo > hi:
            raise ConfigurationError("ZipfEventField: lo must be <= hi")
        if skew < 0:
            raise ConfigurationError("skew must be non-negative")
        if margin < 0 or 2 * margin > hi - lo:
            raise ConfigurationError(
                "margin must satisfy 0 <= 2 * margin <= hi - lo")
        self._cluster_of = dict(group_of)
        self._lo = lo
        self._hi = hi
        self._skew = skew
        self._jitter = jitter
        self._seed = seed
        groups = sorted(set(self._cluster_of.values()))
        ranks = list(range(len(groups)))
        random.Random(seed).shuffle(ranks)
        weights = [1.0 / (r + 1) ** skew for r in ranks]
        top = max(weights) if weights else 1.0
        span = (hi - lo) - 2 * margin
        self._level = {
            g: lo + margin + span * w / top for g, w in zip(groups, weights)
        }
        #: (ids_tuple, membership_version, base column, unknown rows)
        self._base_cache: tuple | None = None

    def _known_clusters(self):
        return self._level

    def value(self, node_id: int, epoch: int) -> float:
        group = self._cluster_of.get(node_id)
        if group is None:
            return self._lo
        base = self._level[group]
        jitter = self._jitter
        jit = _cell_hash01(self._seed ^ self._STREAM, node_id, epoch) \
            * (jitter + jitter) - jitter
        return min(self._hi, max(self._lo, base + jit))

    def batch_values(self, node_ids: Sequence[int], epoch: int
                     ) -> list[float]:
        """Batch :meth:`value`: the jitter hash, clamp and level offset
        run as whole-column ops (byte-identical; see base class —
        elementwise ``*``/``-``/``+`` and ``minimum``/``maximum`` are
        IEEE-identical to the scalar expressions in :meth:`value`)."""
        # repro: allow[layer-dag] -- the column backend (numpy/array pair) lives in network/columnar; lazy import so sensing stays importable below network
        from ..network import columnar

        np_ = columnar.numpy_module()
        if np_ is None:
            # Pure-python backend: the scalar loop *is* the batch.
            return [self.value(node_id, epoch) for node_id in node_ids]
        lo, hi, jitter = self._lo, self._hi, self._jitter
        cached = self._base_cache
        if (cached is not None and cached[0] is node_ids
                and cached[1] == self._membership_version):
            base, unknown = cached[2], cached[3]
        else:
            cluster_of = self._cluster_of
            level = self._level
            base_list: list[float] = []
            unknown_rows: list[int] = []
            for row, node_id in enumerate(node_ids):
                group = cluster_of.get(node_id)
                if group is None:
                    # Scalar semantics: an unenrolled node reads the
                    # floor, exactly (no jitter). Overwritten after
                    # the clamp.
                    unknown_rows.append(row)
                    base_list.append(lo)
                else:
                    base_list.append(level[group])
            base = np_.asarray(base_list)
            unknown = tuple(unknown_rows)
            # Memoized per id-tuple identity + enrollment version: the
            # level column is a pure function of membership, and the
            # alive tuple is rebuilt on any churn.
            self._base_cache = (node_ids, self._membership_version,
                                base, unknown)
        u = columnar.hash01_column(self._seed ^ self._STREAM,
                                   node_ids, epoch)
        values = np_.minimum(hi, np_.maximum(
            lo, base + (u * (jitter + jitter) - jitter)
        )).tolist()
        for row in unknown:
            values[row] = lo
        return values


class RoomField(ClusterField):
    """The conference-room sound model.

    Each room has a slowly-wandering activity level (a random walk —
    discussions heat up and cool down); every sensor in the room reads
    the room level plus small per-sensor Gaussian noise. This is the
    synthetic stand-in for the paper's "rooms with the most active
    discussions" demo scenario. The noise is the cell's
    :func:`_cell_gauss` draw scaled by ``sensor_sigma``.
    """

    #: The per-cell noise RNG stream offset (distinct per field kind).
    _STREAM = 0xB00

    def __init__(self, room_of: Mapping[int, str | int], lo: float = 0.0,
                 hi: float = 100.0, room_step: float = 4.0,
                 sensor_sigma: float = 1.5, seed: int = 0):
        self._cluster_of = dict(room_of)
        self._sigma = sensor_sigma
        self._lo = lo
        self._hi = hi
        self._seed = seed
        rooms = sorted(set(self._cluster_of.values()), key=str)
        rng = random.Random(seed)
        self._room_walks = {
            room: RandomWalkField(
                start=rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)),
                step=room_step, lo=lo, hi=hi,
                seed=seed * 131 + index,
            )
            for index, room in enumerate(rooms)
        }

    def _known_clusters(self):
        return self._room_walks

    def room_level(self, room: str | int, epoch: int) -> float:
        """Ground-truth activity level of a room at an epoch."""
        return self._room_walks[room].value(0, epoch)

    def value(self, node_id: int, epoch: int) -> float:
        room = self._cluster_of.get(node_id)
        if room is None:
            return self._lo
        level = self.room_level(room, epoch)
        noise = self._sigma * _cell_gauss(self._seed ^ self._STREAM,
                                          node_id, epoch)
        return min(self._hi, max(self._lo, level + noise))

    def batch_values(self, node_ids: Sequence[int], epoch: int
                     ) -> list[float]:
        """Batch :meth:`value`: both uniform columns hashed whole, room
        levels resolved once per room, the Gaussian transform applied
        row by row with scalar ``math`` (see :func:`_gauss01`), and the
        clamp vectorized over the column (byte-identical; see base
        class)."""
        # repro: allow[layer-dag] -- column backend lives in network/columnar, same contract as ZipfEventField.batch_values
        from ..network import columnar

        cluster_of = self._cluster_of
        seed = self._seed ^ self._STREAM
        sigma = self._sigma
        levels: dict = {}
        u0 = columnar.hash01_column(seed, node_ids, epoch)
        u1 = columnar.hash01_column(seed, node_ids, epoch, 1)
        if not isinstance(u0, list):  # numpy: the transform runs on floats
            u0, u1 = u0.tolist(), u1.tolist()
        raw: list[float] = []
        for node_id, a, b in zip(node_ids, u0, u1):
            room = cluster_of.get(node_id)
            if room is None:
                raw.append(self._lo)
                continue
            level = levels.get(room)
            if level is None:
                level = levels[room] = self.room_level(room, epoch)
            raw.append(level + sigma * _gauss01(a, b))
        return columnar.clamp_values(raw, self._lo, self._hi)


class TableField(FieldGenerator):
    """Readings replayed from an explicit (epoch → node → value) table.

    The workhorse for historic-query experiments that need a fixed
    dense matrix of history.
    """

    def __init__(self, table: Sequence[Mapping[int, float]],
                 default: float = 0.0, cycle: bool = False):
        if not table:
            raise ConfigurationError("TableField requires at least one epoch row")
        self._table = [dict(row) for row in table]
        self._default = default
        self._cycle = cycle

    def __len__(self) -> int:
        return len(self._table)

    def value(self, node_id: int, epoch: int) -> float:
        if epoch >= len(self._table):
            if not self._cycle:
                raise ConfigurationError(
                    f"TableField holds {len(self._table)} epochs; "
                    f"epoch {epoch} requested (pass cycle=True to wrap)"
                )
            epoch %= len(self._table)
        return self._table[epoch].get(node_id, self._default)

"""Hot-path switchboard: optimized epoch loop vs. reference semantics.

The simulator's epoch loop carries several caches that exist purely for
speed — the per-network memo of :func:`~repro.network.packets.fragment`
costs, the per-topology converge-cast and flood plans, the batch
relay and flood kernels (one call per relayed list of motes or per
flood instead of one per hop or forwarder; a large relay batch
charges its hops in one numpy scatter), the engines' fused passes
over the plan (MINT's creation, prune+update and probe converge-casts,
TAG's aggregation, FILA's set-up, monitor, probe and install passes,
TJA's union and join passes) and the batched sensing of
:mod:`repro.network.columnar` — all of which
are *semantically invisible*: with the caches on or off, every
message, byte, joule and per-phase snapshot is identical. Every epoch
engine samples through one
:meth:`~repro.network.simulator.Network.read_many` call per epoch
(:class:`~repro.core.participants.Participants`), so that call is the
one place sensing asks which path it runs.

The path also selects FILA's certification strategy: on the hot path
its sink keeps a :class:`~repro.core.delta.TopKView` (one ``(lb, ub)``
float pair per node, ranked in one C sort per changed outcome); on the
reference path it holds a ``Bounds`` per node and every certification
calls the stateless :func:`~repro.core.certify.certify_top_k` oracle
cold.
``tests/test_delta_equivalence.py`` proves the two byte-identical
across engines and churn. MINT's sink certifies with the oracle and
TAG's ranks with one ``rank_key`` sort on either path.

An epoch runs exactly one of two ways:

* **hot path** (the default) — caches enabled; this is what every
  benchmark and production run uses; and
* **reference path** — caches bypassed, every cost re-derived from
  first principles exactly as the pre-optimization code did.

The path is a property of the deployment, fixed when it is built:
:class:`~repro.network.simulator.Network` reads this module's default
once, in its constructor, into ``Network.hot``, and every branch asks
that attribute. The default is that attribute's only input, so a
network built inside :func:`reference_path` and one built outside it
always run different paths, and a comparison between them always pits
the two against each other. Deployments built at
different moments may therefore run side by side on different paths,
and nothing can flip a running deployment's path between two epochs.

The reference path exists so the equivalence can be *proved* rather
than asserted: ``tests/test_hotpath_equivalence.py`` drives random
scenarios through both paths and compares answers and
:class:`~repro.network.stats.NetworkStats` byte-for-byte, and the
hot-versus-reference gates of ``repro perf`` price the speedup.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: The default a :class:`~repro.network.simulator.Network` reads when
#: it is built; only :func:`reference_path` changes it.
_enabled = True


@contextmanager
def reference_path() -> Iterator[None]:
    """Deployments built inside the block run the unoptimized
    reference path, for their whole life; deployments built before
    it keep their path inside it."""
    with _default(False):
        yield


@contextmanager
def _default(hot: bool) -> Iterator[None]:
    """Set the default of the networks built inside the block. A
    ``repro.parallel`` worker takes its parent's with it: a forked
    worker keeps whatever default it was forked with."""
    global _enabled
    previous = _enabled
    _enabled = hot
    try:
        yield
    finally:
        _enabled = previous

"""Hot-path switchboard: optimized epoch loop vs. reference semantics.

The simulator's epoch loop carries several caches that exist purely for
speed — the memoized :func:`~repro.network.packets.fragment` cost
model, the per-topology converge-cast and flood plans, per-epoch
traffic batching, the batch relay and flood kernels (one call per
relayed list of motes or per flood instead of one per hop or
forwarder; a large lossless relay batch charges its hops in one numpy
scatter), the engines' fused passes over the plan (MINT's
prune+update and probe converge-casts, TAG's aggregation, FILA's
monitor, probe and install passes, TJA's union and join passes) and
the batched sensing of :mod:`repro.network.columnar` — all of which
are *semantically invisible*: with the caches on or off, every
message, byte, joule and per-phase snapshot is identical.

The switch also selects the sinks' certification strategy: on the hot
path each session maintains an incremental
:class:`~repro.core.delta.TopKView` (threshold, rank order and
ambiguous set updated per delta); on the reference path every epoch
calls the stateless :func:`~repro.core.certify.certify_top_k` oracle
cold. ``tests/test_delta_equivalence.py`` proves the two byte-identical
across engines and churn.

This module owns the single switch that selects between the two modes:

* **hot path** (the default) — caches enabled; this is what every
  benchmark and production run uses; and
* **reference path** — caches bypassed, every cost re-derived from
  first principles exactly as the pre-optimization code did.

The reference path exists so the equivalence can be *proved* rather
than asserted: ``tests/test_hotpath_equivalence.py`` drives random
scenarios through both modes and compares answers and
:class:`~repro.network.stats.NetworkStats` byte-for-byte, and the
hot-versus-reference gates of ``repro perf`` price the speedup.

There is no second switch: "hot path on" means the columnar kernel,
so an epoch runs exactly one of two ways, and a ``repro.parallel``
worker inherits its whole execution mode from this flag.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: The switch itself. Call :func:`enabled` in normal code; call sites
#: executed hundreds of thousands of times per epoch may read this
#: module attribute directly to skip the function call.
_enabled = True


def enabled() -> bool:
    """True when the optimized hot path is active (the default)."""
    return _enabled


def set_enabled(value: bool) -> None:
    """Globally select the hot (True) or reference (False) path.

    Takes effect on the next shipped message / epoch; existing cached
    state is simply bypassed, never trusted, while disabled.
    """
    global _enabled
    _enabled = bool(value)


@contextmanager
def reference_path() -> Iterator[None]:
    """Run the enclosed block on the unoptimized reference path."""
    previous = _enabled
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)

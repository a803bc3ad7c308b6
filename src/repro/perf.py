"""``repro perf`` — the three speed ratios CI gates.

Every gate is one :func:`measure_ratio` call: two sides that do the
same work, one of them the optimized path (``on``) and one the path it
must stay equal to (``off``), timed chunk by chunk on the same host.
Absolute speed is never reported; a ratio of two interleaved sides
cancels host speed, so ``benchmarks/check_perf_regression.py`` can
compare it with the committed trajectory on any runner.

:data:`GATES` holds the three gates CI reads:

* ``hot_vs_reference_n100`` and ``hot_vs_reference_n400`` — the e11
  query mix (four MINT monitoring queries plus one historic TJA
  session) on a 100- and a 400-mote fleet, hot path against
  ``hotpath.reference_path()``; the answers of every session and
  ``NetworkStats.summary()`` must be equal;
* ``certifier_n400`` — the certification calls FILA's sink makes over
  30 epochs on the 400-mote fleet, replayed cold through
  ``certify_top_k`` and incrementally through one persistent
  :class:`~repro.core.delta.TopKView`; the outcomes must be equal.
"""

from __future__ import annotations

import gc
import os
import platform
import time
from contextlib import nullcontext
from typing import Callable

from . import __version__
from .errors import ConfigurationError
from .network import hotpath
from .parallel import QUERY_MIXES
from .scenarios import fleet_scenario

#: Version tag written into every BENCH_perf.json (bump on any
#: backwards-incompatible change to the payload layout). /8: the
#: fleet ladder, its flags and sections are gone; the report holds
#: the three CI gates and nothing else.
SCHEMA = "kspot-perf/8"

#: Field seed of every gate's fleet.
SEED = 11
#: Untimed epochs before a hot-versus-reference side is timed
#: (session creation, cache priming).
WARMUP_EPOCHS = 2
#: Epochs per timed chunk of a hot-versus-reference gate.
CHUNK_EPOCHS = 4
#: Certification calls per timed chunk of the certifier gate.
CHUNK_CALLS = 8
#: Fresh builds of both sides per gate.
REPEATS = 4
#: The certifier gate's top-k.
K = 5

#: A side of a ratio: builds its state untimed and returns
#: ``(step, output)``; each ``step()`` runs the next chunk, and
#: ``output()`` is what the two sides must agree on.
Side = Callable[[], tuple]


def measure_ratio(on: Side, off: Side, *, chunks: int, repeats: int,
                  name: str) -> dict:
    """Time ``off`` over ``on``, chunk by chunk, with equal outputs.

    Each repeat builds both sides fresh, then runs chunk ``c`` of
    each back to back, ``on`` first when ``(repeat + c)`` is even. A
    side's time is the sum over chunks of its fastest run of that
    chunk, so a stall counts only if it hits that chunk in every
    repeat. Raises ``RuntimeError`` naming ``name`` when the outputs
    differ in any repeat.
    """
    if repeats < 1:
        raise ConfigurationError(
            f"repeats must be at least 1, got {repeats}")
    best = ([float("inf")] * chunks, [float("inf")] * chunks)
    for repeat in range(repeats):
        sides = (on(), off())
        gc.collect()
        for chunk in range(chunks):
            first = (repeat + chunk) % 2
            for index in (first, 1 - first):
                step = sides[index][0]
                started = time.perf_counter()
                step()
                elapsed = time.perf_counter() - started
                best[index][chunk] = min(best[index][chunk], elapsed)
        if sides[0][1]() != sides[1][1]():
            raise RuntimeError(
                f"{name}: the two sides disagree in repeat {repeat}")
    on_s, off_s = sum(best[0]), sum(best[1])
    return {"on_s": on_s, "off_s": off_s, "ratio": off_s / on_s}


def _e11_side(n: int, reference: bool) -> Side:
    """One side of a hot-versus-reference gate: the e11 mix on ``n``
    motes, warmed up, ``CHUNK_EPOCHS`` epochs per step. The reference
    side is built inside ``reference_path()``, so it runs that path."""
    from .api import Deployment, EpochDriver

    path = hotpath.reference_path if reference else nullcontext

    def build():
        with path():
            scenario = fleet_scenario(n, seed=SEED)
        deployment = Deployment.from_scenario(scenario)
        driver = EpochDriver(deployment)
        handles = [deployment.submit(query)
                   for _, query in QUERY_MIXES["e11"]]
        driver.run(WARMUP_EPOCHS)

        def step():
            driver.run(CHUNK_EPOCHS)

        def output():
            return ([(handle.results, handle.historic_result)
                     for handle in handles],
                    scenario.network.stats.summary())

        return step, output

    return build


def hot_vs_reference(name: str, n: int, epochs: int) -> dict:
    """The e11 mix on ``n`` motes, ``epochs`` timed epochs, hot path
    (``on``) against the reference path (``off``)."""
    return measure_ratio(_e11_side(n, reference=False),
                         _e11_side(n, reference=True),
                         chunks=epochs // CHUNK_EPOCHS, repeats=REPEATS,
                         name=name)


def certifier_streams(n: int, epochs: int) -> list[dict]:
    """The bounds snapshot of every cold ``certify_top_k`` call FILA's
    sink makes over ``epochs`` reference-path rounds on the ``n``-mote
    fleet (monitor pass, probe loop and answer pass), in call order."""
    from .core import fila as fila_module
    from .core.aggregates import make_aggregate

    calls: list[dict] = []
    real = fila_module.certify_top_k

    def recorder(bounds, k, tolerance=1e-9, require_exact_scores=True):
        if k != K or require_exact_scores:
            raise RuntimeError("certifier stream mixes certification modes")
        calls.append(dict(bounds))
        return real(bounds, k, tolerance=tolerance,
                    require_exact_scores=require_exact_scores)

    fila_module.certify_top_k = recorder
    try:
        with hotpath.reference_path():
            scenario = fleet_scenario(n, seed=SEED)
            engine = fila_module.Fila(
                scenario.network, make_aggregate("AVG", 0.0, 100.0), K,
                attribute=scenario.attribute)
            engine.run(epochs)
    finally:
        fila_module.certify_top_k = real
    return calls


def certifier(name: str, n: int, epochs: int) -> dict:
    """The recorded FILA stream, ``CHUNK_CALLS`` calls per step: one
    persistent :class:`~repro.core.delta.TopKView` applying each
    call's :class:`~repro.core.delta.BoundsDelta` (``on``) against a
    cold ``certify_top_k`` per snapshot (``off``)."""
    from .core.certify import certify_top_k
    from .core.delta import BoundsDelta, TopKView

    snapshots = certifier_streams(n, epochs)
    deltas = [BoundsDelta.diff(old, new)
              for old, new in zip([{}] + snapshots, snapshots)]
    chunks = -(-len(snapshots) // CHUNK_CALLS)

    def batches(calls):
        return iter([calls[start:start + CHUNK_CALLS]
                     for start in range(0, len(calls), CHUNK_CALLS)])

    def incremental():
        view = TopKView(K, require_exact_scores=False)
        pending, outcomes = batches(deltas), []

        def step():
            for delta in next(pending):
                view.apply(delta)
                outcomes.append(view.outcome())

        return step, lambda: outcomes

    def cold():
        pending, outcomes = batches(snapshots), []

        def step():
            outcomes.extend(
                certify_top_k(bounds, K, require_exact_scores=False)
                for bounds in next(pending))

        return step, lambda: outcomes

    return measure_ratio(incremental, cold, chunks=chunks,
                         repeats=REPEATS, name=name)


#: The gates CI reads: ``(name, measure, motes, timed epochs)``.
GATES = (
    ("hot_vs_reference_n100", hot_vs_reference, 100, 40),
    ("hot_vs_reference_n400", hot_vs_reference, 400, 16),
    ("certifier_n400", certifier, 400, 30),
)


def run_perf() -> dict:
    """Measure every gate in :data:`GATES`; returns the
    ``BENCH_perf.json`` payload."""
    return {
        "schema": SCHEMA,
        "version": __version__,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
        },
        "gates": {name: measure(name, motes, epochs)
                  for name, measure, motes, epochs in GATES},
    }

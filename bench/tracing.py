"""Span tracing around the program's layer entry points.

The tracer wraps public entry points of each layer from outside the
program: it replaces the attribute on its class or module with a
wrapper that records a span (target, start, end, parent span, epoch)
and restores the original afterwards. Nothing in ``src/`` changes.

Spans are kept in memory while the traced run lasts and written out
as JSON lines at the end. A layer's *self time* is its spans' duration
minus the part covered by their child spans, so the self times of all
spans under the benchmark's per-epoch root span add up to the root's
duration.

Shipping from MINT's and TAG's fused passes goes through the private
``Network._ship_unicast``, which is not wrapped: from outside it lands
in ``core.mint`` / ``core.tag`` self time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from collections import Counter

#: (module, class or None for a module function, attribute, layer).
#: ``compile_query`` is wrapped where the deployment looks it up.
TARGETS = (
    ("repro.api.driver", "EpochDriver", "step", "api.step"),
    ("repro.api.deployment", "Deployment", "submit", "api.submit"),
    ("repro.api.deployment", None, "compile_query", "query.compile"),
    ("repro.server.session", "QuerySession", "step", "session.step"),
    ("repro.core.mint", "Mint", "run_epoch", "core.mint"),
    ("repro.core.fila", "Fila", "run_epoch", "core.fila"),
    ("repro.core.tag", "Tag", "run_epoch", "core.tag"),
    ("repro.core.engine", "KSpotEngine", "execute_historic",
     "core.historic"),
    ("repro.core.engine", "KSpotEngine", "sample_participants",
     "core.historic"),
    ("repro.core.engine", "KSpotEngine", "handle_topology_event",
     "core.recovery"),
    ("repro.core.delta", "TopKView", "outcome", "certify"),
    ("repro.core.delta", "TopKView", "apply", "certify"),
    ("repro.core.delta", "TopKView", "reconcile", "certify"),
    ("repro.core.delta", "TopKView", "reconcile_scores", "certify"),
    ("repro.network.simulator", "Network", "send_up", "network.ship"),
    ("repro.network.simulator", "Network", "flood_down", "network.ship"),
    ("repro.network.simulator", "Network", "broadcast_down",
     "network.ship"),
    ("repro.network.simulator", "Network", "unicast_to_sink",
     "network.ship"),
    ("repro.network.simulator", "Network", "unicast_from_sink",
     "network.ship"),
    ("repro.network.simulator", "Network", "advance_epoch",
     "network.advance"),
    ("repro.network.simulator", "Network", "read_many",
     "sensing.read_many"),
    ("repro.network.simulator", "Network", "kill_node", "repair.kill"),
    ("repro.network.simulator", "Network", "join_node", "repair.join"),
)

#: Pseudo-targets: the benchmark's per-epoch root and the collector.
ROOT = len(TARGETS)
GC = ROOT + 1
LABELS = tuple(f"{module.rsplit('.', 1)[-1]}."
               f"{owner + '.' if owner else ''}{attribute}"
               for module, owner, attribute, _ in TARGETS) + ("bench.step",
                                                              "py.gc")
LAYERS = tuple(target[3] for target in TARGETS) + ("bench.step", "py.gc")


def holder(module: str, owner: str | None):
    """The class (or, for None, the module) an entry point lives on."""
    found = importlib.import_module(module)
    return found if owner is None else getattr(found, owner)


class Tracer:
    """Records spans while :attr:`active`; use as a context manager to
    install the wrappers and restore the originals."""

    def __init__(self):
        #: (target, start ns, end ns, parent span index or -1, epoch)
        self.spans: list = []
        self.active = False
        #: Index of the benchmark epoch the spans belong to.
        self.epoch = -1
        #: Rows requested through ``read_many``.
        self.rows = 0
        #: Node states re-primed by ``handle_topology_event``.
        self.reprimed = 0
        #: Calls that raised, per target.
        self.errors: Counter = Counter()
        #: Generation-2 collections seen while active.
        self.gen2 = 0
        #: Topology events seen while active, and the tree edges they
        #: re-wired (see :meth:`on_topology_event`).
        self.events = 0
        self.edges = 0
        self._stack: list[int] = []
        self._saved: list = []
        self._gc_start = 0

    # ------------------------------------------------------------------
    # Installing and restoring
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for index, (module, owner, attribute, _) in enumerate(TARGETS):
            found = holder(module, owner)
            original = vars(found)[attribute]
            self._saved.append((found, attribute, original))
            setattr(found, attribute, self._wrap(index, original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        gc.callbacks.remove(self._on_gc)
        for found, attribute, original in reversed(self._saved):
            setattr(found, attribute, original)
        self._saved.clear()

    def _open(self) -> tuple[int, int]:
        slot = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(slot)
        return slot, parent

    def _wrap(self, index: int, fn):
        tracer = self
        spans = self.spans
        clock = time.perf_counter_ns
        is_read = TARGETS[index][2] == "read_many"
        is_recovery = TARGETS[index][3] == "core.recovery"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            slot, parent = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[index] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                spans[slot] = (index, start, end, parent, tracer.epoch)
            if is_read:
                tracer.rows += len(args[1])
            elif is_recovery:
                tracer.reprimed += result
            return result

        return traced

    def rooted(self, step):
        """``step`` wrapped in the per-epoch root span."""
        clock = time.perf_counter_ns

        def traced_step():
            self.epoch += 1
            slot, parent = self._open()
            start = clock()
            try:
                step()
            finally:
                end = clock()
                self._stack.pop()
                self.spans[slot] = (ROOT, start, end, parent, self.epoch)

        return traced_step

    def on_topology_event(self, event) -> None:
        """A ``Network.subscribe`` listener counting repair events."""
        if self.active:
            self.events += 1
            self.edges += len(event.reattached)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._open()
            self._gc_start = time.perf_counter_ns()
            return
        end = time.perf_counter_ns()
        slot = self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[slot] = (GC, self._gc_start, end, parent, self.epoch)
        if info["generation"] == 2:
            self.gen2 += 1

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter, int, int]:
        """Per-layer self ns, per-target span counts, the root spans'
        total ns and the sum of every span's self ns."""
        spans = self.spans
        covered = [0] * len(spans)
        for index, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
        by_layer: dict = Counter()
        calls: Counter = Counter()
        root_ns = self_sum = 0
        for index, (target, start, end, _, _) in enumerate(spans):
            own = end - start - covered[index]
            by_layer[LAYERS[target]] += own
            calls[target] += 1
            self_sum += own
            if target == ROOT:
                root_ns += end - start
        return by_layer, calls, root_ns, self_sum

    def write(self, path) -> None:
        """Every span as one JSON line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            for target, start, end, parent, epoch in self.spans:
                out.write(json.dumps({
                    "name": LABELS[target], "layer": LAYERS[target],
                    "start_ns": start - origin, "end_ns": end - origin,
                    "parent": parent, "epoch": epoch}) + "\n")

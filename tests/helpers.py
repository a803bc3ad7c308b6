"""Plain-function helpers shared across test modules.

Test modules import them absolutely (``from helpers import ...``):
``tests/`` is not a package, and pytest's default import mode puts
each test module's directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import math
import random

from repro.network import hotpath
from repro.network.simulator import Network


def make_series(nodes, epochs, seed=0, lo=0.0, hi=100.0, correlated=False):
    """A dense node → {epoch → value} matrix for historic tests."""
    r = random.Random(seed)
    base = [
        (lo + hi) / 2 + (hi - lo) / 3 * math.sin(2 * math.pi * t / max(8, epochs // 3))
        if correlated else 0.0
        for t in range(epochs)
    ]
    series = {}
    for node in nodes:
        column = {}
        for t in range(epochs):
            if correlated:
                value = base[t] + r.gauss(0, (hi - lo) * 0.05)
            else:
                value = r.uniform(lo, hi)
            column[t] = min(hi, max(lo, value))
        series[node] = column
    return series


def vertical_oracle(series, aggregate, k):
    """Ground truth for historic-vertical rankings."""
    from repro.core.results import rank_key

    nodes = sorted(series)
    epochs = sorted(series[nodes[0]])
    scores = {}
    for t in epochs:
        partial = None
        for node in nodes:
            lifted = aggregate.from_value(series[node][t])
            partial = lifted if partial is None else aggregate.merge(partial, lifted)
        scores[t] = aggregate.finalize(partial)
    ranked = sorted(scores.items(), key=lambda kv: rank_key(kv[0], kv[1]))
    return scores, ranked[:k]


def fill_windows(engine):
    """Fill a historic plan's windows the way its session's acquiring
    steps do: ``WITH HISTORY`` epochs, each one radio-silent
    acquisition and one tick of the clock."""
    for _ in range(engine.plan.window_epochs):
        engine.sample_participants()
        engine.network.advance_epoch()


@contextlib.contextmanager
def built_networks():
    """Record every :class:`Network` built inside the block."""
    built = []
    init = Network.__init__

    def recording(network, *args, **kwargs):
        init(network, *args, **kwargs)
        built.append(network)

    Network.__init__ = recording
    try:
        yield built
    finally:
        Network.__init__ = init


def on_both_paths(run, *args, **kwargs):
    """``(hot, reference)``: ``run(*args, **kwargs)`` once under the hot
    default and once inside ``hotpath.reference_path()``.

    Every network the reference leg builds must run the reference path,
    and every one the hot leg builds the hot path unless its radio is
    lossy, so a comparison can never pit one path against itself.
    """
    with built_networks() as networks, hotpath.reference_path():
        reference = run(*args, **kwargs)
    assert networks and not any(network.hot for network in networks)
    with built_networks() as networks:
        hot = run(*args, **kwargs)
    assert networks
    for network in networks:
        assert network.hot is (network.radio.loss_probability == 0.0)
    return hot, reference


def reference_repair(tree, dead, topology, energy_of=None,
                     detach_unreachable=False):
    """The survivor-wide repair ``RoutingTree.repaired`` replaced: after
    every re-attachment it re-derives the attached set and every depth
    by a BFS over all survivors. Returns ``(RoutingTree(root, parents),
    RepairReport)``, the oracle for the repair that follows only the
    damage."""
    from collections import deque

    from repro.errors import TopologyError
    from repro.network.tree import RepairReport, RoutingTree

    root = tree.root
    dead_set = {d for d in dead if d in tree.node_ids}
    if root in dead_set:
        raise TopologyError("the sink cannot die")
    spent = energy_of or (lambda _node: 0.0)
    parents = {child: tree.parent(child) for child in tree.sensor_ids
               if child not in dead_set}
    survivors = set(parents) | {root}

    def attached_and_depths():
        children = {i: [] for i in survivors}
        for child, parent in parents.items():
            if parent in survivors:
                children[parent].append(child)
        depths = {root: 0}
        frontier = deque([root])
        while frontier:
            current = frontier.popleft()
            for child in children[current]:
                if child not in depths:
                    depths[child] = depths[current] + 1
                    frontier.append(child)
        return set(depths), depths

    attached, depths = attached_and_depths()
    orphaned = survivors - attached
    orphaned_initially = tuple(sorted(orphaned))
    reattached = []
    detached = []
    while orphaned:
        best = None
        for node in sorted(orphaned):
            for neighbor in topology.neighbors(node):
                if neighbor not in attached:
                    continue
                key = (spent(neighbor), depths[neighbor], neighbor, node)
                if best is None or key < best[0]:
                    best = (key, node, neighbor)
        if best is None:
            if not detach_unreachable:
                raise TopologyError(
                    f"nodes unreachable from the sink after failures: "
                    f"{sorted(orphaned)}")
            detached.extend(sorted(orphaned))
            for node in orphaned:
                parents.pop(node, None)
            break
        _, node, new_parent = best
        chain = [node]
        while (chain[-1] in parents and parents[chain[-1]] in orphaned
               and parents[chain[-1]] not in chain):
            chain.append(parents[chain[-1]])
        for upper, lower in zip(chain[1:], chain):
            parents[upper] = lower
            reattached.append((upper, lower))
        parents[node] = new_parent
        reattached.append((node, new_parent))
        attached, depths = attached_and_depths()
        orphaned = survivors - attached
    report = RepairReport(dead=tuple(sorted(dead_set)),
                          orphaned=orphaned_initially,
                          reattached=tuple(reattached),
                          detached=tuple(detached))
    return RoutingTree(root, parents), report

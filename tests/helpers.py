"""Plain-function helpers shared across test modules.

Kept outside ``conftest.py`` so test modules can import them absolutely
(``from helpers import ...``): ``tests/`` is not a package, so relative
imports of the conftest module do not resolve under pytest's default
rootdir import mode.
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

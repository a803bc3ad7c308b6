"""Negative fixture: the proof obligation is documented.

The fused branch below is byte-identical to the reference branch a
deployment built inside the oracle ``hotpath.reference_path()`` runs;
``tests/test_hotpath_equivalence.py`` proves it.
"""


def run_epoch(network, state: dict) -> int:
    if network.hot:
        return state.get("fast", 0)
    return state.get("slow", 0)

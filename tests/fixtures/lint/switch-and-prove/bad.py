"""Positive fixture: branches on the deployment's execution path, but
this docstring names neither the proof suite nor the unoptimized twin."""


def run_epoch(network, state: dict) -> int:
    if network.hot:
        return state.get("fast", 0)
    return state.get("slow", 0)

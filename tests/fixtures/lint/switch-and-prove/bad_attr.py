"""Positive fixture: reads the bare hotpath flag, the way per-call hot
sites skip the function call, but this docstring names neither the
proof suite nor the unoptimized twin."""

from repro.network import hotpath


def read(cache: dict, key: str) -> int:
    if key in cache and hotpath._enabled:
        return cache[key]
    return 0

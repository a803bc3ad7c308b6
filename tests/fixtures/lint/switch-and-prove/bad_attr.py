"""Positive fixture: reads the bare hotpath default, the way a network
fixes its path when it is built, but this docstring names neither the
proof suite nor the unoptimized twin."""

from repro.network import hotpath


def build() -> bool:
    return hotpath._enabled

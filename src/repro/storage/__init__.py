"""Local storage substrate: the per-mote history window.

Historic top-k queries (§III-B) require each sensor to "buffer sensor
readings locally in a sliding window fashion (either in main memory or
on flash)". :class:`~repro.storage.window.SlidingWindow` is the
main-memory path (IMote2-class SRAM), held as an epochs column and a
values column; no reproduced figure keeps its history on flash, so
this package models none.
"""

from .window import SlidingWindow

__all__ = [
    "SlidingWindow",
]

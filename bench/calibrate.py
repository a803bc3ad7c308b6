"""The calibration kernel: a fixed pure-Python workload that prices the
host's current speed.

On a shared host the whole process slows down in load waves, so raw
wall times move 10-30% between identical runs. The benchmark divides
every timed step by the kernel time measured next to it, which gives
the unit ``cal`` (one kernel run). A load wave slows the kernel and
the step alike, so the ratio holds still.

The kernel builds a 20k-entry dict of tuples, sorts its keys by value
and folds the sorted values in a loop: dict allocation, sorting and
interpreted arithmetic, like the simulator's epoch loop. ``gc`` is
disabled while it runs, so the size of the benchmarked program's heap
does not leak into the kernel's time.

Run it alone to see the host's kernel time and its spread::

    python3 bench/calibrate.py
"""

from __future__ import annotations

import gc
import statistics
import time

#: Entries in the kernel's dict (≈12 ms on a 2020s x86 core).
KERNEL_SIZE = 20_000

#: A within-run kernel spread (interquartile range ÷ median) above this
#: marks the host as noisy; the benchmark warns but does not fail.
NOISY_SPREAD = 0.10


def kernel() -> int:
    """One unit of calibration work; returns a checksum so the work
    cannot be skipped."""
    table = {i: ((i * 2654435761) % 1000003, i) for i in range(KERNEL_SIZE)}
    order = sorted(table, key=table.__getitem__)
    acc = 0
    for key in order:
        value, index = table[key]
        acc = (acc + value * index) % 1000000007
    return acc


def kernel_ns(repeats: int = 2) -> int:
    """The fastest of ``repeats`` kernel runs, in nanoseconds, with the
    garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(repeats):
            start = time.perf_counter_ns()
            kernel()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if was_enabled:
            gc.enable()


def spread(values) -> float:
    """Interquartile range ÷ median (0 for fewer than two values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median


if __name__ == "__main__":
    samples = [kernel_ns() for _ in range(20)]
    print(f"kernel: median {statistics.median(samples) / 1e6:.3f} ms, "
          f"spread {spread(samples):.3f} over {len(samples)} samples")

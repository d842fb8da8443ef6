"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

On a shared machine the same code runs a third faster or slower from one
minute to the next.  The benchmark times this kernel between ops and scales
the ops' times by REFERENCE_S over the kernel's median time, so a timing
reads what it would on a machine where the kernel takes REFERENCE_S, and a
slow phase of the machine does not read as a slower program.  The kernel
uses no listfn code, so a change to the library cannot move it.
"""
from __future__ import annotations

import statistics
import time

REFERENCE_S = 4e-4


def kernel_s() -> float:
    """Seconds the kernel takes: calls, small tuples, dict lookups, isinstance."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(1000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + 1
        acc += len(key) if isinstance(key, tuple) else 0
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """Machine speed relative to the reference, from kernel times: above 1 is faster."""
    return REFERENCE_S / statistics.median(samples)

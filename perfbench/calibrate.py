"""Machine-speed calibration for timings taken on a shared, noisy host.

On a virtual machine whose cores are shared with other tenants, the speed
of the same code drifts by tens of percent over tens of seconds.  The
benchmark therefore times a fixed reference loop (Python arithmetic,
dict and str work and small numpy calls, the mix privagg itself runs)
right before and right after every timed interval, and scales the
interval by REFERENCE_S / (mean of the two loop times).  A scaled time is
the time the interval would have taken on a machine where the loop takes
REFERENCE_S, so program changes move it and host drift largely does not.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Typical duration of reference_loop() on a 2-vCPU x86_64 VM with
# Python 3.11; only sets the scale of the reported numbers.
REFERENCE_S = 0.15

_ARRAY = np.arange(16, dtype=float)


def reference_loop() -> float:
    acc = 0.0
    table = {}
    for i in range(300_000):
        x = math.exp(-(i % 50) / 7.0) * (2.0 + i)
        table[i & 255] = (x, str(i))
        acc += x
        if i % 32 == 0:
            acc += float(np.argmax(_ARRAY + x))
    return acc


def measure() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))

"""Host speed, read from a fixed reference kernel.

A shared virtual machine can run the same code at 1.2 to 1.9 times its
fastest time, in phases that last from seconds to minutes, and its CPU
time drifts with its wall time.  So every timing the benchmark reports
is taken next to runs of this kernel, which uses no metricprobe code,
and divided by the slowdown: the median kernel time over REFERENCE_S.
A timing then reads as it would on a host where the kernel takes
REFERENCE_S.  The kernel mixes numpy array work with a pure-Python loop,
as an op does.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time, in seconds, that timings are scaled to: about the kernel's
#: time on the reference host (Intel Xeon 2.0 GHz) in a fast phase.
REFERENCE_S = 3.0e-3

_X = np.random.default_rng(0).random(20000)


def probe() -> float:
    """Wall time of one run of the kernel, about 3 ms."""
    t0 = time.perf_counter()
    for _ in range(5):
        np.sort(np.sin(_X) * 3.0)
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


def slowdown(samples: list) -> float:
    """How much slower than the reference the host ran while the samples
    were taken."""
    return statistics.median(samples) / REFERENCE_S

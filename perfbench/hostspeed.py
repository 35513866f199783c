"""Timing in reference seconds, which cancels the host's changing speed.

On a shared machine other tenants slow a process down by up to 1.9x, for
stretches that can outlast a whole run, and process CPU time slows with wall
time. No statistic over one run's samples removes a slowdown that covers the
run. So every measured operation is bracketed by a fixed reference kernel,
and its wall time is divided by how much slower than on a quiet host the
kernel ran just before and just after it:

    reference seconds = wall seconds * REFERENCE_S / mean(kernel before, kernel after)

On a quiet host reference seconds equal wall seconds. The kernel is an
interpreted integer loop that stays in the L1 cache, so what the program
did just before does not change its speed. Kernels that also streamed
arrays larger than L2 ran slower inside the program's process than alone,
by an amount that depends on the program's cache footprint, and tracked the
host no better. The kernel calls nothing of cyclegnn, so a change to the
program moves the operation's time and not the kernel's.
"""

from __future__ import annotations

import time

KERNEL_ROUNDS = 100
# The kernel's time on a quiet host, about its fastest run on a 2-vCPU Intel
# Xeon VM with Python 3.11. Only a scale factor.
REFERENCE_S = 0.015

# A kernel run that ended less than this long before an operation starts is
# reused as that operation's "before" sample.
REUSE_S = 0.5


class HostClock:
    """Times operations in reference seconds and keeps every host factor."""

    def __init__(self):
        self._last: tuple[float, float] | None = None  # (end, seconds) of the last kernel run
        self.factors: list[float] = []  # host slowdown per timed operation

    def kernel(self) -> float:
        """Run the reference kernel once; returns its wall seconds. It creates
        only ints, which the garbage collector does not track, so its time does
        not depend on how many objects the program keeps alive."""
        start = time.perf_counter()
        for _ in range(KERNEL_ROUNDS):
            acc = 0
            for i in range(2000):
                acc += i * i
        end = time.perf_counter()
        self._last = (end, end - start)
        return end - start

    def time(self, fn):
        """Run ``fn()``; returns (result, wall seconds, reference seconds).
        An exception from ``fn`` propagates."""
        last = self._last
        before = last[1] if last is not None and time.perf_counter() - last[0] < REUSE_S else self.kernel()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = self.kernel()
        factor = (before + after) / (2.0 * REFERENCE_S)
        self.factors.append(factor)
        return result, wall, wall / factor

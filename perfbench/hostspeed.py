"""Host speed, sampled while a workload runs, to put CPU times on one scale.

On a shared virtual machine the same work takes a different amount of CPU
time from one minute to the next: identical runs of one workload spread by
±15%, so a 10% change would not show.  While a pass runs, a ``SIGALRM``
timer runs a fixed pure-Python kernel every ``INTERVAL_S`` seconds.  The
mean CPU time of the kernel over the pass says how fast the host ran during
it, and times are reported as

    CPU seconds × REFERENCE_S / mean kernel CPU seconds,

the CPU seconds the work would have taken on a host where the kernel takes
``REFERENCE_S``.  On repeated identical passes this cut the spread of the
total from ±14% to ±4%.  A single step is scaled by the samples taken
within ``MARGIN_S`` of it, since the speed also drifts within a pass.  The
kernel's own CPU time is left out of every interval measured with
:meth:`SpeedMeter.clock`.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: The kernel's CPU seconds on the host that defined the benchmark.
REFERENCE_S = 0.030
INTERVAL_S = 0.5
MARGIN_S = 1.0


def kernel() -> None:
    """A fixed mix of what the simulator's hot loops do in pure Python:
    32-bit word arithmetic, attribute and dict updates, and modular
    exponentiation of 256-bit integers."""
    a, b, c, d = 0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A
    for i in range(40_000):
        t = (a + ((b >> 6 | b << 26) & 0xFFFFFFFF) + (c ^ (d & (b ^ c))) + i) & 0xFFFFFFFF
        a, b, c, d = d, a, b, t
    nodes = {f"n{i}": _Node() for i in range(100)}
    for i in range(40_000):
        node = nodes[f"n{i % 100}"]
        node.bits += i
        node.inbox.append(i)
        if len(node.inbox) > 8:
            node.inbox.clear()
    p = (1 << 255) - 19
    x = 7
    for i in range(60):
        x = pow(x, 0x10001 + i, p)


class _Node:
    __slots__ = ("bits", "inbox")

    def __init__(self) -> None:
        self.bits = 0
        self.inbox: List[int] = []


def timed_kernel() -> float:
    started = time.process_time()
    kernel()
    return time.process_time() - started


class SpeedMeter:
    """Samples the kernel while active (a context manager)."""

    def __init__(self) -> None:
        #: the kernel's CPU seconds, and ``clock()`` when each was taken
        self.samples: List[float] = []
        self.stamps: List[float] = []
        self._spent = 0.0

    def clock(self) -> float:
        """Process CPU seconds, less the time spent in the kernel."""
        return time.process_time() - self._spent

    def _sample(self, signum=None, frame=None) -> None:
        took = timed_kernel()
        self.samples.append(took)
        self._spent += took
        self.stamps.append(self.clock())

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        """Factor from this host's CPU seconds to reference seconds."""
        return REFERENCE_S / statistics.mean(self.samples)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the step between two ``clock()`` readings."""
        near = [
            took
            for took, at in zip(self.samples, self.stamps)
            if start - MARGIN_S <= at <= end + MARGIN_S
        ]
        scale = REFERENCE_S / statistics.mean(near) if near else self.scale
        return (end - start) * scale

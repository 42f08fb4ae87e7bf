"""Host-speed sampling for the timed figures.

On a shared host the same code runs up to twice as slow for seconds at a
time, in CPU time as well as in wall time, as other tenants come and go.
How much of a run falls in such spells decides its figures more than
any change worth catching.  :class:`HostSpeed` therefore runs a thread
that times a tiny fixed kernel, which runs none of the simulator's code,
every :data:`PERIOD_S` seconds; the sweep workloads pin it to the core
of the measured thread.  A phase's time, times

    REFERENCE_S / (mean kernel time during the phase)

reads as on the reference host.  A change to the program moves the
phase's time but not the kernel, so it shows in full.  Over repeated
1M-access sweeps on a 2-core host the scaled CPU times spread about a
third as much as the unscaled ones (log-sd 0.015 against 0.033), and
the kernel's mean time tracks the sweep's CPU time with correlation
0.96.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Tuple

__all__ = ["HostSpeed", "REFERENCE_S"]

#: Typical kernel time on the reference host, a 2-core Intel Xeon KVM
#: guest at 2.1 GHz with Python 3.11.7.
REFERENCE_S = 0.001

#: Seconds between kernel samples; each takes about 1 ms.
PERIOD_S = 0.03

_ACCESSES = 4_000
_EXPECTED_HITS = 1_626


def _kernel() -> int:
    """A 16-set, 4-way LRU cache over a fixed pseudo-random block stream,
    in plain Python: the list and integer work of the simulator's inner
    loops."""
    sets: List[List[int]] = [[] for _ in range(16)]
    x = 12345
    hits = 0
    for _ in range(_ACCESSES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        block = (x >> 8) % 160
        stack = sets[block & 15]
        if block in stack:
            stack.remove(block)
            hits += 1
        elif len(stack) == 4:
            stack.pop()
        stack.insert(0, block)
    return hits


class HostSpeed:
    """Samples the host's speed while it is entered.

    Entering starts the sampling thread and, with ``pin``, first pins the
    calling thread to one core and the sampler to the same core; leaving
    stops and joins the sampler.  Time phases of the calling thread with
    :func:`time.thread_time`, which leaves out the sampler's own CPU time.
    Do not pin a thread that starts processes: they inherit the pin.
    """

    def __init__(self, pin: bool = True) -> None:
        #: (perf_counter at the end of the sample, kernel CPU seconds)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="hostspeed", daemon=True
        )
        self._cores = {max(os.sched_getaffinity(0))} if pin else None
        self._failure = ""

    def __enter__(self) -> "HostSpeed":
        if self._cores:
            os.sched_setaffinity(0, self._cores)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        if self._failure and exc[0] is None:
            raise RuntimeError(self._failure)

    def _sample(self) -> None:
        if self._cores:
            os.sched_setaffinity(0, self._cores)
        while not self._stop.wait(PERIOD_S):
            started = time.thread_time()
            hits = _kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - started))
            if hits != _EXPECTED_HITS:
                self._failure = f"host-speed kernel gave {hits} hits"
                return

    def factor(self, start: float, end: float) -> float:
        """Multiply a CPU time taken between ``perf_counter`` readings
        ``start`` and ``end`` by this to get reference-host time.  A phase
        too short to hold a sample uses every sample so far."""
        inside = [s for t, s in self.samples if start <= t <= end]
        kernel = inside or [s for _, s in self.samples]
        if not kernel:
            return 1.0
        return REFERENCE_S / statistics.fmean(kernel)

    def overall(self) -> float:
        """The factor over every sample so far."""
        return self.factor(float("-inf"), float("inf"))

"""Host-speed normalisation of the benchmark's times.

The benchmark runs on shared machines whose speed drifts: on the 2-core
machine it was written on, a fixed pure-Python loop ran anywhere between
1.05x and 1.86x its fastest time within two minutes, with nothing else
running in the container.  Raw wall times of one workload spread by
20-35% between runs, wider than any bound a benchmark may set.

:class:`HostClock` measures that drift while the workload runs.  Every
:data:`INTERVAL_S` a ``SIGALRM`` handler runs a fixed kernel (a small
generator event loop and a pointer chase over a few megabytes of
objects, both independent of ``repro``, so no change to the program can
speed it up) and records how long it took: ``REFERENCE_KERNEL_S`` over
that time is the host's speed at that moment.  :meth:`HostClock.seconds`
turns a wall-clock interval into *reference seconds*: each stretch
between two kernel runs is scaled by the mean speed they measured, and
the kernel runs themselves are left out.  On a host at the
reference speed a reference second is a second; a slower host slows the
kernel too and cancels out, while a slower program makes every stretch
longer and shows in full.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import random
import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple

#: Seconds between kernel runs.
INTERVAL_S = 0.1

#: The unit of a reference second: the kernel's time on the 2-core
#: machine the benchmark was written on, when that machine ran at its
#: fastest, with the kernel run as it is here -- between stretches of
#: simulation that have pushed its objects out of the caches (it takes
#: about 2.5 ms when run back to back).
REFERENCE_KERNEL_S = 0.004

CHASE_OBJECTS = 100_000
CHASE_STEPS = 2_500
LOOP_EVENTS = 2_500


class _Node:
    __slots__ = ("value", "acc", "next")

    def __init__(self, value: int):
        self.value = value
        self.acc = 0
        self.next: Optional[_Node] = None


class HostClock:
    """Samples host speed while running; converts intervals to seconds.

    Use :meth:`start`/:meth:`stop` around a region (main thread only) and
    :meth:`seconds` for any interval inside it, in ``time.perf_counter``
    coordinates.  ``on_kernel`` is called with each kernel run's duration
    (the traced run uses it to keep that time out of layer self times).
    """

    def __init__(self) -> None:
        rng = random.Random(20130520)
        nodes = [_Node(i) for i in range(CHASE_OBJECTS)]
        order = list(range(CHASE_OBJECTS))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._starts = [nodes[i] for i in order[::CHASE_STEPS]]
        self._runs = 0
        self._running = False
        #: (start, end) of every kernel run, and of every quiet block.
        self.samples: List[Tuple[float, float]] = []
        self.quiet_spans: List[Tuple[float, float]] = []
        self.on_kernel: Optional[Callable[[float], None]] = None

    def kernel(self) -> None:
        """The fixed workload whose duration measures the host's speed."""
        node = self._starts[self._runs % len(self._starts)]
        self._runs += 1
        for _ in range(CHASE_STEPS):
            node.acc = (node.acc + node.value) & 0xFFFF
            node = node.next

        def proc(k):
            seen = {}
            for i in range(20):
                seen[i & 3] = seen.get(i & 3, 0) + k
                yield (k * 7 + i) % 13 + 1

        heap = [(0, k, proc(k)) for k in range(LOOP_EVENTS // 20)]
        seq = len(heap)
        while heap:
            now, _, gen = heapq.heappop(heap)
            for delay in gen:
                heapq.heappush(heap, (now + delay, seq, gen))
                seq += 1
                break

    def sample(self, _signum=None, _frame=None) -> None:
        """Time one kernel run (the signal handler).

        The collector stays off while the kernel runs, so that its garbage
        does not move the program's collections (and with them its peak
        memory).
        """
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
        finally:
            if gc_was_on:
                gc.enable()
        self.samples.append((start, end))
        if self.on_kernel is not None:
            self.on_kernel(end - start)

    def start(self) -> None:
        """Sample now and then every :data:`INTERVAL_S` until :meth:`stop`."""
        self.sample()
        self._running = True
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def quiet(self):
        """No samples inside the block; :meth:`seconds` scales it by the
        median speed of all the runs.

        For regions where the suite's fork pool keeps every core busy: a
        kernel run there would measure that contention, not the host, and
        the runs on either side of the block follow it less well than
        the run's median speed does.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.quiet_spans.append((start, time.perf_counter()))
            if self._running:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def speeds(self) -> List[float]:
        """Host speed at every kernel run, relative to the reference."""
        return [REFERENCE_KERNEL_S / (end - start)
                for start, end in self.samples]

    def raw_seconds(self, a: float, b: float) -> float:
        """Wall seconds of ``[a, b]`` outside the kernel runs."""
        inside = sum(max(0.0, min(b, end) - max(a, start))
                     for start, end in self.samples)
        return (b - a) - inside

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of ``[a, b]``.

        Each stretch of ``[a, b]`` between two kernel runs is scaled by
        the mean of the speeds those two runs measured (by the nearest
        run's speed before the first run and after the last), so the
        speed can drift within the interval; quiet blocks are scaled by
        the median speed instead (see :meth:`quiet`).
        """
        speeds = self.speeds()
        bounds = ([(float("-inf"), self.samples[0][0], speeds[0])]
                  + [(self.samples[i - 1][1], self.samples[i][0],
                      (speeds[i - 1] + speeds[i]) / 2)
                     for i in range(1, len(speeds))]
                  + [(self.samples[-1][1], float("inf"), speeds[-1])])
        total = sum((min(b, high) - max(a, low)) * speed
                    for low, high, speed in bounds
                    if min(b, high) > max(a, low))
        median = statistics.median(speeds)
        for start, end in self.quiet_spans:
            low, high = max(a, start), min(b, end)
            if high > low:  # a quiet block lies inside one stretch
                stretch = next(v for lo, hi, v in bounds if lo <= low < hi)
                total += (high - low) * (median - stretch)
        return total

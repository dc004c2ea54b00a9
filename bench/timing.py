"""Reference-speed timing and in-memory spans.

The host's speed is not constant: on the 2-core box it was measured to
swing by up to 2x within a minute (a fixed pure-Python loop ran 190 to 360
times per half second), and every wall time swings with it.  So while the
benchmark runs, a timer signal times a small fixed kernel 50 times a
second, and each op is reported in reference-speed time: wall time x
REF_KERNEL_NS / (the kernel's wall time while the op ran, or just before
it for an op shorter than the sampling period).  The kernel is
benchmark code, so a change to the library moves the op time and not the
kernel; a change of host speed moves both and cancels.  Wall times are
kept too and printed beside the reported figures.

Sampling uses SIGALRM in the one benchmark process: no thread is started.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter_ns

# About the kernel's wall time on the 2-core box when the host runs fast;
# reported times are close to wall times then.
REF_KERNEL_NS = 50_000
SAMPLE_PERIOD_S = 0.02


def _kernel() -> int:
    # Allocates, like the library does, so it slows down with the host's
    # memory system as well as its processor, but its working set is a few
    # KB: the library's own cache footprint hardly changes its time.
    acc = 0
    table: dict[int, tuple[int, int, int]] = {}
    for i in range(200):
        row = (i, i * 7, i ^ 5)
        table[i & 63] = row
        acc += row[1] % 13 + len(table)
    return acc


def _time_kernel() -> int:
    # A collection started by the kernel's allocations would scan the op's
    # whole heap and charge it to the kernel; with collection off, it starts
    # at the op's next allocation instead, as it would have anyway.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        _kernel()
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Kernel wall times sampled on a timer signal while the clock is entered."""

    def __init__(self) -> None:
        self.refresh()
        self.speed_total = 0.0
        self.count = 0

    def refresh(self) -> None:
        """Re-time the kernel now, for short ops after a stretch that skewed the samples."""
        self.recent = [_time_kernel() for _ in range(3)]

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        k = _time_kernel()
        self.recent = [*self.recent[1:], k]
        self.speed_total += 1 / k
        self.count += 1

    # Kernel times are averaged harmonically: an op that ran half its time
    # at twice the slowness did 3/4 of the work of one at full speed, not 2/3.

    @property
    def kernel_ns(self) -> float:
        """Harmonic mean of the last three samples: the host's speed just now."""
        return 3 / sum(1 / k for k in self.recent)

    def mark(self) -> tuple[float, int]:
        return self.speed_total, self.count

    def since(self, mark: tuple[float, int]) -> float:
        """Harmonic mean kernel time of the samples since mark, or kernel_ns if there were none."""
        n = self.count - mark[1]
        return n / (self.speed_total - mark[0]) if n else self.kernel_ns


def reference_ns(wall_ns: float, kernel_ns: float) -> float:
    return wall_ns * REF_KERNEL_NS / kernel_ns


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, op, kernel_ns].

    parent is the index of the enclosing span, -1 for a root; kernel_ns is
    the clock's kernel time for the span, so durations can be reported at
    reference speed like every other time.
    """

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.spans: list[list] = []

    def open(self, name: str, op: int, parent: int = -1) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent, op, self.clock.kernel_ns])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()

    def call(self, name: str, op: int, parent: int, fn, *args):
        index = self.open(name, op, parent)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def durations_ns(self, name: str) -> list[float]:
        """Reference-speed durations of every span with this name."""
        return [reference_ns(s[2] - s[1], s[5]) for s in self.spans if s[0] == name]


def long_call(clock: SpeedClock, tracer: Tracer | None, name: str, op: int, fn, *args):
    """Run one op that may span many samples; (result, wall ns, kernel ns during it)."""
    mark = clock.mark()
    t0 = perf_counter_ns()
    span = tracer.open(name, op) if tracer else -1
    try:
        result = fn(*args)
    finally:
        if tracer:
            tracer.close(span)
        t1 = perf_counter_ns()
        kernel = clock.since(mark)
        if tracer:
            tracer.spans[span][5] = kernel
    return result, t1 - t0, kernel

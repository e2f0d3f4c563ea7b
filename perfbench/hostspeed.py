"""Host speed, sampled while the program runs, to correct measured times.

The benchmark runs on shared hosts whose speed changes by up to about 1.8x
from one moment to the next, for a fraction of a second or for minutes,
while the process keeps its CPU (CPU time tracks wall time, steal stays
near 0).  Timed with a plain clock, the same work then reads 1.8x slower.

:class:`HostSpeed` measures the host as the program runs: a real-time timer
interrupts the process every ``PERIOD_S`` seconds and, between two Python
bytecodes of the program, times a fixed unit of interpreter work (the
*probe*: a loop of Python function calls, which tracked the program's own
slowdown better than arithmetic loops or walks over large lists).
:meth:`HostSpeed.program_seconds` turns a span of the clock into the
seconds the program itself spent in it at the reference speed: the probes
inside the span are taken out, and each stretch between probes is scaled
by ``REFERENCE_PROBE_S`` over the probe cost measured around it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

#: Seconds between probes, and probes per smoothing window (the median of
#: a window is the probe cost at its middle).
PERIOD_S = 0.015
WINDOW = 5
#: Function calls of one probe, and its cost at the reference speed: the
#: faster of the two speeds a 2.0 GHz Xeon vCPU of a shared host showed
#: under CPython 3.11.
PROBE_CALLS = 3000
REFERENCE_PROBE_S = 0.00026


def _step(total: int, step: int) -> int:
    return total + step


def _probe(calls: int = PROBE_CALLS) -> int:
    step = _step
    total = 0
    for i in range(calls):
        total = step(total, i & 7)
    return total


class HostSpeed:
    """Probe costs over time, and spans of the clock corrected by them."""

    def __init__(self) -> None:
        #: Start of each probe on the ``perf_counter`` clock, and its cost.
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._previous = None
        self._probing = False
        self._smoothed: list[float] | None = None

    def reset(self) -> None:
        self.starts, self.costs, self._smoothed = [], [], None

    # -- sampling ----------------------------------------------------------------------

    def _tick(self, signum, frame) -> None:
        # A tick that lands inside a stalled probe is dropped, which keeps
        # the probes in time order.
        if self._probing:
            return
        self._probing = True
        started = perf_counter()
        _probe()
        self.costs.append(perf_counter() - started)
        self.starts.append(started)
        self._probing = False

    def start(self) -> None:
        self._smoothed = None
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # System calls interrupted by the timer restart instead of failing.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    # -- correction --------------------------------------------------------------------

    def _costs(self) -> list[float]:
        if self._smoothed is None or len(self._smoothed) != len(self.costs):
            half = WINDOW // 2
            self._smoothed = [
                statistics.median(self.costs[max(0, i - half): i + half + 1])
                for i in range(len(self.costs))
            ]
        return self._smoothed

    def slowdown(self) -> float:
        """Median probe cost over the reference cost, over all probes."""
        return statistics.median(self.costs) / REFERENCE_PROBE_S if self.costs else 1.0

    def probing_seconds(self, begin: float, end: float) -> float:
        """Seconds of ``[begin, end]`` the probes took."""
        low = bisect.bisect_left(self.starts, begin)
        high = bisect.bisect_left(self.starts, end)
        return sum(self.costs[low:high])

    def program_seconds(self, begin: float, end: float) -> float:
        """Seconds of ``[begin, end]`` not spent probing, at the reference speed.

        Each stretch between two probes is scaled by the mean of their
        smoothed costs; a stretch before the first or after the last probe
        by the nearest one.  Without probes the span is returned as it is.
        """
        if not self.costs:
            return end - begin
        starts, costs, smoothed = self.starts, self.costs, self._costs()
        last = len(starts) - 1
        total = 0.0
        # Stretch k runs from the end of probe k-1 to the start of probe k.
        for k in range(bisect.bisect_right(starts, begin), bisect.bisect_left(starts, end) + 1):
            low = max(begin, starts[k - 1] + costs[k - 1]) if k > 0 else begin
            high = min(end, starts[k]) if k <= last else end
            if high > low:
                cost = (smoothed[max(k - 1, 0)] + smoothed[min(k, last)]) / 2
                total += (high - low) * REFERENCE_PROBE_S / cost
        return total

"""Timing at a fixed reference speed on a machine whose speed drifts.

On a shared host other tenants slow the benchmark's core, by up to about
1.8 times, for stretches of a few seconds at a time, and CPU time slows as
much as wall time.  A per-op minimum over passes cannot remove a slowdown
that lasts longer than the op, and the longest ops here take seconds.

So while untraced passes run, a ``SIGALRM`` timer runs a fixed integer
loop, the *probe*, every ``TICK_S`` seconds, and :meth:`Pacer.start` runs
it once more right before each op, outside the clock.  An op's time, less
the probes that ran inside it, is scaled by ``REFERENCE_S`` over the mean
probe time seen from its start to its end: it is the op's time at the speed
at which the probe takes ``REFERENCE_S``.  The probe's slowdown tracks the
library's, which is pure Python too: on a 2-vCPU Intel Xeon host the
spread of repeated 1.5 s enumeration calls fell from 12 % to 4 % of their
mean, and that of 0.25 s index calls at n = 1000 from 15 % to 6 %.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.005
PROBE_LOOPS = 300
# About the probe's fastest time on the 2-vCPU Intel Xeon host the
# benchmark was tuned on, so that scaled times read close to that host's
# unloaded seconds.  Any fixed value gives comparable figures.
REFERENCE_S = 15e-6


def probe() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


class Pacer:
    """Probe times of one run; used as a context manager around the passes
    it scales."""

    def __init__(self):
        self.probes: list[float] = []

    def __enter__(self) -> Pacer:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        self.probes.append(probe())

    def start(self) -> int:
        """Probe once, outside the clock, before an op; returns the mark
        that :meth:`scale` takes."""
        self.probes.append(probe())
        return len(self.probes) - 1

    def scale(self, raw: float, mark: int, end: int) -> float:
        """``raw`` seconds of an op that started after probe ``mark`` and
        ended before probe ``end``, at the reference speed."""
        seen = self.probes[mark:end]
        return (raw - sum(seen[1:])) * REFERENCE_S / statistics.fmean(seen)

"""Machine-speed probe that the end-to-end timings are scaled by.

The benchmark runs on shared hosts whose speed drifts from one second to the
next: on a 2-vCPU Intel Xeon guest a fixed pure-Python loop takes anywhere
from 7.3 to 11 ms, switching every few seconds, and a 30 s run's median
latency of one command moves by 20-40% (IQR over median) between runs of
the same code.  That is wider than any bound a regression check could use.
So every timed command is bracketed by a probe, a timer signal runs a
shorter probe every ``TICK_S`` while the command runs, and the command's
latency is scaled by

    REFERENCE_S / (mean of its probe times),

the latency it would have had on a machine where the probe takes
``REFERENCE_S``.  The probes run no nclab code, so a change to nclab scales
the reported latency by the same factor as the measured one; the report
prints the raw medians beside the scaled ones.

Of the probes tried (a pure-Python loop, small dense solves, a loop building
small block products), the pure-Python loop tracked nclab's commands best.
Over five 30 s runs each of ``mixed-grid`` and ``pendulum-analysis`` the
spread of the per-command medians fell from 0.18-0.40 raw to 0.02-0.13
scaled (mean 0.28 -> 0.09 and 0.26 -> 0.06); the probes during a command
matter for the long ones (``allocate``, ``maxdiff``, ``sweep``), whose ends
alone say little about the speed in between.  Fitting log latency against
log probe time gave slopes of 0.8-1.4 across commands, so the plain ratio
is used.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 20000
REPEATS = 3
TICK_LOOPS = 2500           # the short probe run by the timer during a command
TICK_S = 0.02
# the probe's typical median on the 2-vCPU Xeon guest the benchmark was
# written on (1.6-1.9 ms); it only sets the scale of the reported numbers
REFERENCE_S = 1.7e-3


def _loop(loops: int = LOOPS) -> int:
    s = 0
    for i in range(loops):
        s += i * i % 7
    return s


def probe() -> float:
    """Median seconds of ``REPEATS`` runs of the probe loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, scaled to the reference
    machine speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def timed(fn):
    """Call ``fn()`` between two probes, with a short probe every ``TICK_S``
    while it runs, so that a long command is scaled by the speed over its
    whole run and not only at its ends.  Returns ``(result, raw_seconds,
    scaled_seconds)``; the short probes' own time is taken out of both."""
    global _ticks
    if signal.getsignal(signal.SIGALRM) is not _tick:
        # installed once and left in place: a tick already pending when the
        # timer stops then still finds this handler
        signal.signal(signal.SIGALRM, _tick)
    before = probe()
    _ticks = ticks = []
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _ticks = None
    raw -= sum(ticks)
    speeds = [before, probe()] + [t * LOOPS / TICK_LOOPS for t in ticks]
    return result, raw, raw * REFERENCE_S / statistics.fmean(speeds)


_ticks: list[float] | None = None


def _tick(signum, frame) -> None:
    if _ticks is not None:
        t0 = time.perf_counter()
        _loop(TICK_LOOPS)
        _ticks.append(time.perf_counter() - t0)

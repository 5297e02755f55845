"""Reference clock: wall time corrected for the speed of a shared host.

On a shared virtual machine the same Python code runs up to 40% slower for
seconds to minutes at a time, while other guests load the host, so raw wall
times of identical work spread further between runs than any useful bound.
The reference clock measures that speed while the work runs: an interval
timer interrupts the process every PERIOD_S of wall time and runs a fixed
pure-Python loop of integer and Fraction arithmetic; how long the loop
takes is how fast the host runs Python at that moment. A span of work is then reported in reference seconds: its
wall time, less the samples taken inside it, times REF_S over the mean
sample duration around it. On a host that runs the loop in REF_S, reference
seconds are wall seconds.

The loop runs no ``qslice`` code, so a change to the program moves
reference seconds exactly as it moves wall seconds; only the host's speed
cancels. The raw wall figures are printed beside the corrected ones.

A child process runs ``RefClock.start()`` itself and prints ``summary()`` as
the last line of its stderr; ``child_ref_seconds`` turns the child's wall
time into reference seconds with it.

While the clock runs, write nothing large to a pipe: a timer signal that
interrupts a write to a full pipe can lose the rest of that write.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.025  # one sample per 25 ms of wall time, about 1% of it
WINDOW_S = 0.25  # samples this far either side of a span also count for it
REF_S = 0.0002  # duration of one reference loop on the host the figures are scaled to
SUMMARY_TAG = "#refclock "


def _reference():
    """Integer arithmetic, then Fraction arithmetic and a dict, as qslice's
    exact arithmetic does; the mix follows the host's speed for qslice code
    more closely than either part alone. The collector is held off so that a
    collection of the benchmark's own objects does not land in a sample."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    s = 0
    for i in range(1500):
        s += i * i % 7
    acc, seen = Fraction(1, 3), {}
    for i in range(1, 13):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        seen[(i, acc.denominator & 15)] = acc
    if gc_was_enabled:
        gc.enable()
    return s, acc


class RefClock:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _reference()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work between perf_counter() readings t0
        and t1 of this process."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        around = self.durations[lo:hi]
        if not around:
            raise RuntimeError("no reference samples around the span; is the clock started?")
        inside = self.durations[bisect.bisect_left(self.starts, t0):
                                bisect.bisect_right(self.starts, t1)]
        return (t1 - t0 - sum(inside)) * REF_S * len(around) / sum(around)

    def speed(self) -> float:
        """REF_S over the mean sample duration: above 1 the host runs faster
        than the one the figures are scaled to."""
        return REF_S * len(self.durations) / sum(self.durations)

    def summary(self) -> str:
        return SUMMARY_TAG + json.dumps(
            {"samples": len(self.durations), "busy_s": sum(self.durations)})


def child_ref_seconds(wall: float, stderr: bytes) -> float:
    """Reference seconds of a child that printed ``summary()`` last on
    stderr, from its wall time as the parent measured it."""
    last = stderr.rstrip().rsplit(b"\n", 1)[-1].decode()
    if not last.startswith(SUMMARY_TAG):
        raise RuntimeError(f"child printed no reference-clock summary: {last[-200:]!r}")
    s = json.loads(last[len(SUMMARY_TAG):])
    if not s["samples"]:
        raise RuntimeError("child took no reference samples")
    return (wall - s["busy_s"]) * REF_S * s["samples"] / s["busy_s"]

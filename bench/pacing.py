"""Pacing: how fast this core runs Python just now, next to the program.

The reference machine (a 2-vCPU Intel Xeon VM) shares its cores with
other tenants.  The same computation takes 1.0x to 1.8x as long from one
second to the next there, and wall-clock rates of ten runs spread by 15-40%.  The
pacer takes that factor out:

* the process is pinned to one CPU;
* a daemon thread runs ``probe`` (fixed pure-Python work that calls no
  program code) for about ``PROBE_DUTY`` of the time, sleeping in between,
  which hands the interpreter lock back to the program, and times each
  probe in its own thread CPU time;
* the program's work is timed in the main thread's CPU time, and
  ``pace(start, end)`` is the mean time of the probes run during that
  span over ``PROBE_REF_S``.

Probe and program share one core and take turns on it every few
milliseconds, so they meet the same slowdown; CPU time over pace is the
work's time in reference-machine seconds.  On the reference machine this
cuts the coefficient of variation of a two-second item's time from 15%
to about 1%.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

#: Terms summed by ``probe``; its mean thread CPU time on the reference
#: machine (2-vCPU Intel Xeon VM, Python 3.11.7); the share of the core
#: the probe thread takes; the fewest probes a pace is taken over.
PROBE_TERMS = 200
PROBE_REF_S = 0.0012
PROBE_DUTY = 0.1
PACE_MIN_PROBES = 8


def probe() -> Fraction:
    """Fixed pure-Python work (rationals, a dict) that calls no program code."""
    acc, seen = Fraction(0), {}
    for i in range(1, PROBE_TERMS):
        acc += Fraction(i, 2 * i + 1) * Fraction(3, i + 2)
        seen[i & 31, i & 7] = acc
    return acc


def pin_to_one_cpu() -> int:
    """Pin this process (threads started later too) to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Pacer:
    """A probe thread sharing the core with the program; see the module."""

    def __init__(self):
        self.marks = array("d")  # perf_counter at the end of each probe
        self.times = array("d")  # thread CPU seconds of each probe
        self._stop = False
        self._thread = threading.Thread(target=self._loop, name="pacer", daemon=True)

    def start(self) -> "Pacer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop = True
        self._thread.join()

    def _loop(self) -> None:
        thread_time, perf_counter, sleep = time.thread_time, time.perf_counter, time.sleep
        rest = (1 - PROBE_DUTY) / PROBE_DUTY
        while not self._stop:
            start = thread_time()
            probe()
            spent = thread_time() - start
            self.marks.append(perf_counter())
            self.times.append(spent)
            sleep(spent * rest)

    def pace(self, start: float, end: float) -> float:
        """Mean time of the probes that ended within a span, widened to the
        nearest ``PACE_MIN_PROBES`` probes for a short span, over the
        reference time."""
        lo = bisect_left(self.marks, start)
        hi = bisect_right(self.marks, end)
        count = len(self.times)
        while hi - lo < min(PACE_MIN_PROBES, count):
            if hi < count and (lo == 0 or self.marks[hi] - end < start - self.marks[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return sum(self.times[lo:hi]) / (hi - lo) / PROBE_REF_S

    def mean_pace(self) -> float:
        return sum(self.times) / len(self.times) / PROBE_REF_S

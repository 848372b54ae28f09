"""The host-speed probe and the reference clock the end-to-end timings use.

The benchmark runs on a few vCPUs of a shared host.  A vCPU's speed
changes by up to 40 % within seconds (another tenant busy on the same
physical core) and its mix drifts over minutes, so the same exploration
reads 13 s in one minute and 18 s in the next, and two sets of ten runs
disagree by more than any useful bound.  Longer runs do not help against
a drift of minutes.

So a run samples the speed of the vCPU it is running on, in flight: a
``SIGALRM`` every :data:`PERIOD_S` host seconds runs a fixed probe in the
measured process (a pure-Python loop and an in-cache numpy gather, about
0.8 ms together) and records when it ran and its *slowness*, the probe's
time over its reference time.  :class:`ReferenceClock` turns the samples
into a clock that runs at one over the slowness, and every host stamp of
the run is read on it.  An end-to-end timing is therefore the seconds
the run would have taken on a host where the probe takes its reference
time.  The raw host-second metrics and the mean slowness are kept in the
result file beside the reference-second ones.

Why these two parts, measured on the 2-vCPU x86-64 host the benchmark was
defined on (21 sdss explorations and 41 paper-first-k rounds over about
five minutes each, host time against the probe's mean over the same
interval): the loop alone tracks the interpreter but under-corrects the
sdss exploration (host time grew as slowness^1.4), a gather alone
over-corrects (^0.7); their mean grows as ^0.97 and cut the spread of the
exploration's time (coefficient of variation) from 0.090 to 0.021, and of
the paper round's from 0.110 to 0.051.

The probe's cost does not depend on the program, so a change that slows
the program still shows in full.  It takes about 0.8 % of the run and is
the same on every commit.  Traced runs do not probe: the handler would run
inside whatever span is open.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from array import array

import numpy as np

#: Host seconds between probes.
PERIOD_S = 0.1
#: Iterations of the probe's pure-Python loop.
LOOPS = 10_000
#: Timed passes of the probe's gather: 16 Ki random reads of a 256 KiB
#: array, which fits a core's L2 (after one untimed pass), so its time
#: follows the host and not how much cache the program left it.
GATHERS = 8
_ARRAY = np.random.default_rng(0).random(1 << 15)
_INDEX = np.random.default_rng(1).integers(0, len(_ARRAY), 1 << 14)
#: Each part's time that defines one reference second: about its mean
#: on the host the benchmark was defined on.
REFERENCE_LOOP_S = 0.6e-3
REFERENCE_GATHER_S = 0.18e-3


def probe_once() -> tuple[float, float]:
    """``(midpoint stamp, slowness)`` of one probe.

    Slowness is host seconds per reference second: the mean of the loop's
    and the gather's time over their reference times.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i * i
    t1 = time.perf_counter()
    _ARRAY.take(_INDEX).sum()
    t2 = time.perf_counter()
    for _ in range(GATHERS):
        _ARRAY.take(_INDEX).sum()
    t3 = time.perf_counter()
    slowness = ((t1 - t0) / REFERENCE_LOOP_S + (t3 - t2) / REFERENCE_GATHER_S) / 2
    return (t0 + t3) / 2, slowness


class HostProbe:
    """Samples :func:`probe_once` on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.stamps = array("d")
        self.slowness = array("d")

    def _sample(self, *_signal) -> None:
        stamp, slowness = probe_once()
        self.stamps.append(stamp)
        self.slowness.append(slowness)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.stamps, self.slowness))


class ReferenceClock:
    """Host ``perf_counter`` stamps -> reference seconds, from probe samples.

    Each sample's slowness is first replaced by the median of the five
    samples around it: a probe that was itself preempted says nothing of
    the speed the program saw, while a slow vCPU stays slow for seconds.
    Between two consecutive samples the clock then runs at one over their
    mean slowness; before the first and after the last, at that sample's
    rate.  ``perf_counter`` is the system-wide monotonic clock, so samples
    taken in the server process time the client's stamps.
    """

    def __init__(self, pairs) -> None:
        pairs = sorted(pairs)
        if len(pairs) < 2:
            raise ValueError("a reference clock needs at least two probe samples")
        self.stamps = [t for t, _ in pairs]
        slowness = [statistics.median(x for _, x in pairs[max(0, i - 2):i + 3])
                    for i in range(len(pairs))]
        self.rates = [2 / (a + b) for a, b in itertools.pairwise(slowness)]
        self.head = 1 / slowness[0]
        self.tail = 1 / slowness[-1]
        self.marks = [0.0, *itertools.accumulate(
            (b - a) * r for (a, b), r in zip(itertools.pairwise(self.stamps), self.rates))]
        self.mean_slowness = statistics.fmean(x for _, x in pairs)

    def __call__(self, stamp: float) -> float:
        first, last = self.stamps[0], self.stamps[-1]
        if stamp <= first:
            return (stamp - first) * self.head
        if stamp >= last:
            return self.marks[-1] + (stamp - last) * self.tail
        i = bisect.bisect_right(self.stamps, stamp) - 1
        return self.marks[i] + (stamp - self.stamps[i]) * self.rates[i]

"""Correction of the benchmark's timings for contention on a shared host.

The benchmark runs on a few virtual cores of a shared host.  There the
same instructions take from 1.0 to 2.1 times as long from one stretch of
seconds to the next, because other tenants compete for the physical core
and its caches; CPU time slows down as much as wall time, so it is no
cure.  Stretches of slowdown last from seconds to about a minute, longer
than one repetition of a workload, so medians over repetitions do not
remove them either, and even the host's fastest speed drifts by about
10% from one run to the next.

`Sampler` measures the host's speed while the workload runs.  Every
PERIOD_S seconds a SIGALRM handler interrupts the workload, between two
bytecodes, and times a fixed reference kernel of exact arithmetic, much
like the program's own.  `adjusted_units` divides each slice of a region
between two samples by the kernel's time around it: the region's length
in kernel runs, which does not change when the host slows everything
down.  Times in reference seconds are these units times REFERENCE_S, the
kernel's time on an uncontended core of the host the benchmark was tuned
on.  The time spent in the handler (about 1.5% of the region) is left
out of the sampler's clocks, so it counts neither in the region nor in
trace spans.

Set-up cannot be sampled from inside, since the interpreter is still
starting; `adjusted_setup` corrects it with the kernel timed by the
parent around the spawn.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02  # one reference sample every 20 ms
SMOOTH = 2  # a slice's kernel time is the median of 2 * SMOOTH + 1 samples
# the kernel's time on an uncontended core of a 2-vCPU Intel Xeon at
# 2.1 GHz under Python 3.11.7 (fastest 1% of the samples in a run)
REFERENCE_S = 2.0e-4
SETUP_EXPONENT = 0.5  # set-up slows as this power of the kernel's slowdown


def reference_kernel():
    """Fixed exact arithmetic: sums and products of small fractions in a dict."""
    acc = {}
    s = Fraction(0)
    for k in range(1, 41):
        f = Fraction(k % 7 + 1, k % 5 + 2)
        s = s + f * f
        acc[k % 17] = acc.get(k % 17, 0) + f
    return s, acc


def reference_time():
    """Median time of nine back-to-back runs of the reference kernel."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the reference kernel every PERIOD_S seconds of a region."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.spent = 0.0  # wall time inside the handler
        self.spent_cpu = 0.0  # CPU time inside the handler
        self.wall = []  # clock() at each sample
        self.cpu = []  # cpu_clock() at each sample
        self.refs = []  # the kernel's time at each sample
        self._previous = None

    def clock(self) -> float:
        """Wall clock that leaves out the time spent sampling."""
        return time.perf_counter() - self.spent

    def cpu_clock(self) -> float:
        """Process CPU clock that leaves out the time spent sampling."""
        return time.process_time() - self.spent_cpu

    def _sample(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.wall.append(w0 - self.spent)
        self.cpu.append(c0 - self.spent_cpu)
        reference_kernel()
        self.refs.append(time.perf_counter() - w0)
        self.spent_cpu += time.process_time() - c0
        self.spent += time.perf_counter() - w0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def smoothed(refs):
    """Running median of the kernel times, over 2 * SMOOTH + 1 samples."""
    return [statistics.median(refs[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(refs))]


def adjusted_units(start, end, stamps, refs):
    """Time from start to end, each slice divided by the kernel time around it.

    stamps[i] is the clock when sample i was taken and refs[i] the
    kernel's time then.  The slice that ends at a sample is charged at
    that sample's smoothed kernel time; the tail after the last sample,
    at the last one's.  The result is in units of the kernel's time.
    """
    if not refs:
        raise ValueError("no contention samples in the region")
    speed = smoothed(refs)
    total = 0.0
    last = start
    i = 0
    while i < len(stamps) and stamps[i] <= start:
        i += 1
    while i < len(stamps) and stamps[i] < end:
        total += (stamps[i] - last) / speed[i]
        last = stamps[i]
        i += 1
    return total + (end - last) / speed[min(i, len(speed) - 1)]


def adjusted_setup(raw, reference):
    """Set-up time in reference seconds, from the kernel timed around it.

    Start-up is part exec, file reads and page faults, which contention
    slows less than it slows the reference kernel.  Over 140 set-up-only
    children on a 2-vCPU host, set-up slowed about as the square root of
    the kernel's slowdown; that exponent kept medians of six set-ups
    steadiest (spread 0.17, against 0.39 uncorrected and 0.23 at
    exponent 1).
    """
    return raw * (REFERENCE_S / reference) ** SETUP_EXPONENT

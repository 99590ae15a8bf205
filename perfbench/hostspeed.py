"""The shared host's speed, and CPU time corrected to the quiet host.

The benchmark host is a shared VM whose speed changes every second or so.
When another tenant keeps the neighbouring CPU busy, the library's code
takes 1.75 to 2.4 times as long, and how much longer depends on how hard
the neighbour works.  The share of slowed time in a run went from a third
to nearly all within one hour, so raw times of one commit spread by a
third and more between runs.

``SpeedProbe`` measures the slowdown as the code runs.  Every
PROBE_EVERY_S of CPU a profiling-timer signal runs a small fixed loop and
records its duration.  The loop takes about FAST_PROBE_NS when the host is
quiet.  It is slowed less than the library, whose larger working set
suffers more from the shared core: a probe slowed by the factor ``p``
stands for the library slowed by ``1 + LIBRARY_PER_PROBE * (p - 1)``.
Each probe speaks for the 10 ms of CPU around it, so a piece of work that
took ``t`` seconds, with probes ``d_1 .. d_n`` inside it, would have taken
``t * mean(1 / slowdown(d_i))`` on the quiet host.
"""

from __future__ import annotations

import signal
import time

PROBE_EVERY_S = 0.01  # CPU seconds between probes
PROBE_LOOPS = 3000
# The probe's duration on the quiet host, and how much more the library is
# slowed than the probe.  Both were measured at the seed commit on the VM
# the benchmark was made on (2 vCPUs, Intel Xeon Sapphire Rapids, CPython
# 3.11): LIBRARY_PER_PROBE is the value that made ten runs of each workload
# agree best, as a constant for all three.
FAST_PROBE_NS = 225_000
LIBRARY_PER_PROBE = 1.8
# The CPU clock of this thread, which is all the process runs.  While a
# profiling timer is armed, Linux serves the process-wide CPU clock
# (time.process_time) from a cache updated at each tick, in 4 ms steps.
cpu_ns = time.thread_time_ns


def _loop(n: int) -> int:
    x = 1
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return x


def fast_share(duration_ns: int) -> float:
    """The share of a slice of CPU time, probed at duration_ns, that the
    same work would have taken on the quiet host."""
    return 1 / max(1.0, 1 + LIBRARY_PER_PROBE * (duration_ns / FAST_PROBE_NS - 1))


class SpeedProbe:
    """Samples the host's speed while the process runs, from a SIGPROF
    handler; samples are (cpu_ns at the probe, probe duration in ns)."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        at = cpu_ns()
        start = time.perf_counter_ns()
        _loop(PROBE_LOOPS)
        self.samples.append((at, time.perf_counter_ns() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def window(self, start_ns: int, end_ns: int) -> tuple:
        """(probes, sum of their fast shares, probe seconds) between two
        readings of ``cpu_ns``."""
        durations = [d for at, d in self.samples if start_ns <= at < end_ns]
        return len(durations), sum(map(fast_share, durations)), sum(durations) / 1e9

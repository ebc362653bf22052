"""Host-speed calibration of the benchmark's timings.

The host the benchmark runs on is shared, and its speed drifts: other
tenants slow a process by up to about 1.75x, in stretches that last from
a fraction of a second to minutes.  A median over a run cannot remove a
slow stretch that covers most of the run.  So every timed stretch is
bracketed by probes of a fixed kernel, and its time is rescaled to a
host on which one kernel run takes REFERENCE_NS:

    scaled = measured * REFERENCE_NS / (median kernel time around it)

The kernel is `gen.trimmed`, the benchmark's own mirror of trim, on a
fixed random automaton: graph search over lists, sets and dicts of small
integers, the same kind of work the program does, and none of the code
under test.  It runs with the garbage collector off, so the size of the
program's heap in the same process does not change its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import gen

KERNEL_STATES = 1500
KERNEL_RUNS = 3  # kernel runs per probe
REFERENCE_NS = 2_000_000


class Kernel:
    """The fixed calibration kernel; the same work in every run."""

    def __init__(self):
        rng = random.Random(2010)
        n = KERNEL_STATES
        self.delta = [[rng.randrange(n), rng.randrange(n)] for _ in range(n)]
        self.finals = [q for q in range(n) if rng.random() < 1 / 3]

    def probe(self) -> list[int]:
        """Nanoseconds of each of KERNEL_RUNS runs of the kernel."""
        samples = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(KERNEL_RUNS):
                t0 = time.perf_counter_ns()
                gen.trimmed(self.delta, 0, self.finals)
                samples.append(time.perf_counter_ns() - t0)
        finally:
            if was_enabled:
                gc.enable()
        return samples


def scale(times, probes):
    """Rescale times[i] by the probes taken just before and just after it.

    `probes` is a list of (i, samples), sorted by i, where the probe ran
    before operation i; the first has i == 0 and the last i == len(times).
    Operations between two probes share the median of both probes'
    samples.
    """
    if probes[0][0] != 0 or probes[-1][0] != len(times):
        raise ValueError("probes must bracket every operation")
    out = []
    for (start, before), (end, after) in zip(probes, probes[1:]):
        factor = REFERENCE_NS / statistics.median(before + after)
        out.extend(t * factor for t in times[start:end])
    return out


class Stopwatch:
    """Times one stretch of work in segments, with a probe before the
    first and after each; `lap` ends a segment.  Probe time is not
    counted.  For work too long to lie between two probes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.segments = []
        self.probes = []
        self._t0 = 0

    def start(self):
        self.segments = []
        self.probes = [(0, self.kernel.probe())]
        self._t0 = time.perf_counter_ns()

    def lap(self):
        self.segments.append(time.perf_counter_ns() - self._t0)
        self.probes.append((len(self.segments), self.kernel.probe()))
        self._t0 = time.perf_counter_ns()

    def stop(self) -> tuple[float, float]:
        """(seconds rescaled, seconds as measured)."""
        self.lap()
        return sum(scale(self.segments, self.probes)) / 1e9, sum(self.segments) / 1e9

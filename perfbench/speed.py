"""Correction for the machine's speed state.

The 2-core x86-64 host the bounds were set on runs the same Python
code at one of two speeds about 1.8x apart and switches between them
every few seconds, for causes outside the benchmark (neighbours on the
shared cores).  A 25 s run can sit wholly in either state, so medians
over the run do not remove it: wall times of identical work spread by
20-50% between runs.

`SpeedProbe` times a fixed reference loop that does not touch qdtau (a
few milliseconds of small numpy array operations and Python float
arithmetic, the same mix the package runs) after an item whenever
REF_EVERY_S has passed since the last probe, and at the end of each
pass.  An item's wall time is scaled by REF_NOMINAL_S / (mean of the
reference times of the probes before and after it): the item's time
at the speed where the reference takes REF_NOMINAL_S, the fast state
of that host.  A change to qdtau moves the item times and not the
reference, so it shows in full.

A set-up sample is scaled by the reference time its fresh process
takes right after set-up.  Set-up (process start, imports) slows less
than the reference in the slow state, so scaled set-up samples read
about 20% lower there than in the fast state; pass and item times,
compute-bound like the reference, agree between the states to a few
percent.
"""
from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 1.7e-3   # the reference loop's time in the host's fast state
REF_REPEATS = 3          # a probe is the fastest of this many loops
REF_EVERY_S = 0.25       # the longest stretch of items between probes


def reference_loop():
    """Fixed work, independent of qdtau; about REF_NOMINAL_S long."""
    z = np.linspace(-1.0, 1.0, 64) + 0.5j
    acc = 0.0
    for i in range(200):
        acc += float(np.abs(np.sqrt(z * z - 0.25 * i)).sum())
        for k in range(40):
            acc += (k * 0.5) ** 0.5
    return acc


def reference_time():
    """The fastest of REF_REPEATS reference loops, in seconds."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Scales wall times measured between two reference probes."""

    def __init__(self):
        self.samples = []
        self._probe()

    def _probe(self):
        self.ref = reference_time()
        self.at = time.perf_counter()
        self.samples.append(self.ref)

    def due(self):
        return time.perf_counter() - self.at >= REF_EVERY_S

    def scale(self):
        """Probe again; return the factor for everything timed since
        the previous probe."""
        before = self.ref
        self._probe()
        return REF_NOMINAL_S / (0.5 * (before + self.ref))

"""Calibrated timing for a shared, noisy host.

On a host shared with other jobs the same solve can take 30% longer from
one moment to the next: single runs of the probe below flip between about
11 and 23 ms within seconds.  Wall and CPU time move together, so the
slowdown is lost throughput (shared cores, caches, memory), not waiting.

A probe times a fixed kernel that does the kind of work the solver does
(Python loops over short numpy slices, norms, scatter-adds and a small
dense solve).  An operation is timed in segments with a probe between
consecutive segments: before the first, after the last, and at the safe
points the operation offers (``split``, called from the follower's
per-iterate hook at most every SEGMENT_S seconds).  Each segment's wall
time is scaled by REFERENCE_S over the mean of the probes on either side,
and the operation's calibrated time is the sum: "seconds on this host when
the probe takes REFERENCE_S".  Probe time is never part of a segment.
Long solves need the inner probes: two probes 2 s apart say little about
the host's speed in between.

The kernel uses no ddsolve code, so a change to the solver moves the
calibrated times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# probe time that calibrated seconds are expressed against; a fixed
# constant (about the probe's time on an idle 2-CPU x86 container), never
# tuned, so calibrated values stay comparable across commits
REFERENCE_S = 0.015
SEGMENT_S = 0.25


class SpeedProbe:
    """Fixed probe kernel over fixed data (built once, seeded)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        gram = rng.normal(size=(40, 40))
        self._matrix = gram @ gram.T + 40.0 * np.eye(40)
        self._z = rng.normal(size=60)
        self._blocks = [np.arange(i, i + 8) % 60 for i in range(60)]

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(40):
            out = np.zeros(60)
            for idx in self._blocks:
                w = self._z[idx]
                head, tail = w[0], float(np.linalg.norm(w[1:]))
                out[idx] += w * (head - tail) / (1.0 + tail)
                acc += float(head - tail)
            acc += float(np.linalg.solve(self._matrix, out[:40])[0])
        return acc

    def measure(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0


class CalibratedClock:
    """Times operations one after another; keeps every probe time."""

    def __init__(self, timer=time.perf_counter):
        self.timer = timer
        self.probe = SpeedProbe()
        self.probes = [self.probe.measure()]
        self._raw = self._calibrated = self._t0 = 0.0

    def _close_segment(self) -> None:
        elapsed = self.timer() - self._t0
        self.probes.append(self.probe.measure())
        self._raw += elapsed
        self._calibrated += elapsed * REFERENCE_S / (0.5 * (self.probes[-2] + self.probes[-1]))

    def split(self) -> None:
        """Safe point inside the running operation: probe if the current
        segment has lasted SEGMENT_S."""
        if self.timer() - self._t0 >= SEGMENT_S:
            self._close_segment()
            self._t0 = self.timer()

    def time(self, fn, item):
        """Run ``fn(item, split)``; returns (result, raw s, calibrated s)."""
        self._raw = self._calibrated = 0.0
        self._t0 = self.timer()
        out = fn(item, self.split)
        self._close_segment()
        return out, self._raw, self._calibrated


def timed_calls(clock: CalibratedClock, fn, items):
    """``clock.time(fn, item)`` for each item, as three lists: results,
    raw wall times and calibrated times."""
    rows = [clock.time(fn, item) for item in items]
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]

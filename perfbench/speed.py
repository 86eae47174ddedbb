"""Host-speed normalisation of the benchmark's times.

On a shared host a vCPU's speed can change by a factor of nearly two for
seconds or minutes at a time, and each vCPU changes on its own; steal time
stays near zero and CPU time moves with wall time, so no clock of the
process hides it.  The benchmark therefore times a fixed reference
computation, `reference_s`, on the CPU doing the measured work, at the
boundaries between stretches of that work (or, for work in child processes,
every few tenths of a second on each of their CPUs), and scales each
stretch by the host's mean speed while it ran, as estimated from those
reference runs:

    REFERENCE_NOMINAL_S * mean(1 / reference time).

A normalised time is the time the work would have taken with the host at
the speed where the reference takes REFERENCE_NOMINAL_S.  The reference is
frozen pure Python (exact rational row reduction, tuple hashing) that
imports nothing from fanbranch, so a change to the program never changes
it, and the constant cancels when two commits are compared.
"""

from __future__ import annotations

import os
import random
import threading
import time
from fractions import Fraction
from statistics import fmean

# Median reference time over 90 seconds on a 2-vCPU Intel Xeon VM
# (Python 3.11.7); at that speed normalised and measured times agree.
REFERENCE_NOMINAL_S = 0.0032

_MATRICES = 4
_ROWS = 6
_COLS = 8


def _reference_inputs():
    rng = random.Random(20261017)
    return [[[rng.randint(-5, 5) for _ in range(_COLS)] for _ in range(_ROWS)]
            for _ in range(_MATRICES)]


_INPUTS = _reference_inputs()


def _reference_work() -> int:
    """Reduce each fixed matrix to reduced row echelon form over Q and
    hash its rows; returns a checksum so the work cannot be skipped."""
    total = 0
    for rows in _INPUTS:
        m = [[Fraction(x) for x in row] for row in rows]
        r = 0
        for c in range(_COLS):
            piv = next((i for i in range(r, _ROWS) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(_ROWS):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == _ROWS:
                break
        seen = {}
        for row in m:
            seen[tuple(row)] = len(seen)
        total += len(seen) + r
    return total


_CHECKSUM = _reference_work()


def reference_s() -> float:
    """Wall time of one run of the reference computation on this CPU."""
    t0 = time.perf_counter()
    got = _reference_work()
    elapsed = time.perf_counter() - t0
    if got != _CHECKSUM:
        raise RuntimeError("reference computation gave a different result")
    return elapsed


def reference_on(cpu: int) -> float:
    """`reference_s` run on `cpu` by the calling thread; its CPU set is
    restored afterwards."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return reference_s()
    finally:
        os.sched_setaffinity(0, allowed)


def bench_cpu() -> int:
    """The CPU that in-process work and its reference runs are pinned to."""
    return min(os.sched_getaffinity(0))


def factor(refs) -> float:
    """Scale for work timed while the reference took `refs` seconds, the
    runs spread evenly over it.  Work done is the integral of speed over
    time, so speeds (1 / time), not times, are averaged; a run slowed by a
    disturbance of its own thus moves the scale by at most its share."""
    return REFERENCE_NOMINAL_S * fmean(1.0 / r for r in refs)


def stretch_factors(refs) -> list[float]:
    """Scales of the len(refs) - 1 stretches of work between consecutive
    reference runs, each from the runs just before and after it."""
    return [factor(refs[i:i + 2]) for i in range(len(refs) - 1)]


class Sampler:
    """Reference runs every `every_s` seconds, taking turns over `cpus`, in a
    background thread: the speed of CPUs busy with child processes.  Each
    run takes a few milliseconds of one CPU."""

    def __init__(self, cpus, every_s: float):
        self.cpus = list(cpus)
        self.every_s = every_s
        self.refs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        k = 0
        while not self._stop.wait(self.every_s):
            self.refs.append(reference_on(self.cpus[k % len(self.cpus)]))
            k += 1

    def __enter__(self):
        self.refs += [reference_on(cpu) for cpu in self.cpus]
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.refs += [reference_on(cpu) for cpu in self.cpus]
        return False

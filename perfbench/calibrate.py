"""Machine-speed calibration of the timed regions.

The benchmark runs on a shared machine whose single-thread speed moves by
up to a factor of two within seconds to minutes, as other tenants come and
go.  A fixed kernel of ``Fraction``, tuple and dict work (the closed-form
normal ordering of ``reference.py``, which is the kind of work opalg does
and is independent of it) runs between the operations of a timed loop
about every ``INTERVAL_S`` seconds.  Each operation's time is scaled by
``NOMINAL_S`` over the mean kernel time of the samples around it, so every
reported time reads as it would on a machine where the kernel takes
``NOMINAL_S``.  A change to opalg leaves the kernel as it is, so the
change shows in full; a slow or fast spell of the machine slows or speeds
the kernel with it and cancels out.

The kernel runs outside every timed operation; it is not opalg's work.

Set-up time is calibrated the same way with work of its own kind: each
spawn of a child that imports opalg follows a spawn of an interpreter that
imports only the standard modules opalg imports, and set-up time is the
ratio of the two times times ``NOMINAL_STARTUP_S``.  A change that moves
work into opalg's import lengthens the first spawn alone and shows.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from bisect import bisect_right
from itertools import accumulate
from time import monotonic, perf_counter

import reference

# Words whose closed-form normal ordering makes one kernel sample, about
# 6 ms on the 2-vCPU box the benchmark was defined on.
_WORDS = ("pqpqpqpqqp", "qppqpqpqpp", "ppqqpqpqqp")
NOMINAL_S = 0.006
INTERVAL_S = 0.1
# Samples on each side of an operation that set its scale.
HALF_WINDOW = 5
# What the reference start-up below takes on that box.
NOMINAL_STARTUP_S = 0.07
_STARTUP_CODE = (
    "import argparse, dataclasses, enum, fractions, functools, itertools, json, math, random, sys, time, typing; "
    "print(json.dumps({'ready': time.monotonic()}))"
)


def kernel_seconds() -> float:
    """One timed run of the calibration kernel.

    The cyclic garbage collector is off while it runs: a collection there
    would scan the caller's heap, which grows with opalg's memo caches,
    and charge it to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for word in _WORDS:
            reference.normal_word(word)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel samples taken between the operations of one timed loop.

    ``tick(done)`` is called after each operation, with the number of
    operations done; it samples the kernel when ``INTERVAL_S`` has passed
    since the last sample.  ``finish(done)`` takes the last sample.
    """

    def __init__(self) -> None:
        kernel_seconds()  # warm-up, discarded
        self.marks: list[int] = []
        self.samples: list[float] = []
        self.take(0)

    def take(self, done: int) -> None:
        self.marks.append(done)
        self.samples.append(kernel_seconds())
        self.last = perf_counter()

    def tick(self, done: int) -> None:
        if perf_counter() - self.last >= INTERVAL_S:
            self.take(done)

    def finish(self, done: int) -> dict:
        self.take(done)
        return {"marks": self.marks, "samples": self.samples}


def scales(count: int, marks: list[int], samples: list[float]) -> list[float]:
    """The factor that brings each of ``count`` operations to nominal speed.

    Operation ``i`` ran after the samples whose mark is at most ``i`` and
    before the others; its factor is ``NOMINAL_S`` over the mean of the
    ``HALF_WINDOW`` samples on each side of it.
    """
    sums = [0.0, *accumulate(samples)]
    out = []
    for i in range(count):
        after = bisect_right(marks, i)
        lo, hi = max(0, after - HALF_WINDOW), min(len(samples), after + HALF_WINDOW)
        out.append(NOMINAL_S * (hi - lo) / (sums[hi] - sums[lo]))
    return out


def normalised(latencies: list[float], calibration: dict) -> list[float]:
    """Operation times brought to nominal machine speed."""
    factors = scales(len(latencies), calibration["marks"], calibration["samples"])
    return [t * f for t, f in zip(latencies, factors)]


def startup_seconds() -> float:
    """Time from spawning an interpreter that imports the standard modules
    opalg imports, and nothing of opalg, to its ready signal."""
    spawned = monotonic()
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_CODE], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return json.loads(out)["ready"] - spawned

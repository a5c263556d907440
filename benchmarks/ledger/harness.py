"""Timing and statistics shared by the ledger workloads.

Everything here measures *from outside*: it knows nothing about pmcast.
The one idea worth a module is :class:`RefClock` — every timed unit is
bracketed by a fixed reference kernel and reported as ``unit *
REF_NOMINAL_S / bracket``, so a host that runs 40 % slower for a minute
(it does: see README "Drift") slows the kernel and the unit alike and
the quotient stays put.  It is a measured remedy, not a principle: it
helps the interpreter-bound workloads and does not track udp_live at
all, so that workload turns it off (README "Drift" has the numbers).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: What one spin is taken to cost: normalised times read as seconds on a
#: box where it does.  Changing it rescales every normalised timing
#: metric, so re-run --calibrate with it.
REF_NOMINAL_S = 0.030
_SPIN_ITERATIONS = 400_000
_SPINS_PER_SAMPLE = 3


def pin_to_one_core() -> Tuple[int, ...]:
    """Pin this process to one allowed CPU; returns the CPUs it had.

    The last allowed CPU: CPU 0 is where a small VM's interrupts land.
    """
    allowed = tuple(sorted(os.sched_getaffinity(0)))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed


def ref_spin() -> float:
    """The reference kernel: integer arithmetic, no allocation."""
    started = time.perf_counter()
    acc = 0
    for i in range(_SPIN_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - started


@dataclass(frozen=True)
class Unit:
    """One timed unit: as measured, and the factor that scales it (or any
    span taken inside it) to the reference box."""

    raw_s: float
    scale: float

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.scale


class RefClock:
    """Times units between reference-kernel samples.

    A sample is the median of three spins.  Consecutive units share the
    sample between them (after of one = before of the next), so a unit
    costs one sample, ~0.1 s, outside its timed region.  With
    ``normalise=False`` the samples are still taken (they are the
    ``host.*`` diagnostics) but every unit's scale is 1.
    """

    def __init__(self, normalise: bool = True) -> None:
        self._normalise = normalise
        self.samples: List[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        value = statistics.median(ref_spin() for _ in range(_SPINS_PER_SAMPLE))
        self.samples.append(value)
        self._last = value
        return value

    def timed(self, fn: Callable[[], T]) -> Tuple[T, Unit]:
        """Run ``fn`` with GC off, bracketed by reference samples."""
        before = self._last
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - started
        finally:
            gc.enable()
        bracket = (before + self.sample()) / 2.0
        return result, Unit(raw, REF_NOMINAL_S / bracket if self._normalise else 1.0)

    def spread(self) -> float:
        """(max - min) / median of every reference sample taken."""
        return (max(self.samples) - min(self.samples)) / statistics.median(
            self.samples
        )


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_call_us(fn: Callable[[], object], calls: int) -> float:
    """Mean wall-clock microseconds of ``fn`` over ``calls`` calls."""
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls * 1e6

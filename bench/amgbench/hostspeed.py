"""Host-speed reference for the end-to-end timings.

On a shared virtual machine the speed of one vCPU drifts by tens of percent
within minutes, as other tenants load the host: on a 2-vCPU x86-64 VM a fixed
loop of interpreter work took 36 % longer from one quarter hour to the next.
Such drift moves every wall-clock figure of a run together.  The benchmark
therefore times a fixed reference burst of the same kind of work as the
program (interpreter loops, integer reads from a buffer, a small numpy
reduction, byte scans) alongside the workload, and scales each timing by the
nominal over the measured burst duration.  The burst runs outside the timed
region, its code belongs to the benchmark, and it allocates nothing that the
garbage collector tracks.  A change to the program can still reach it
through the caches the two share; ``bench/README.md`` shows, for a program
slowed by a known amount, that scaled and wall throughput move together.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Sets the scale of adjusted times: on a host where the burst takes this
#: long, an adjusted time equals the wall time.
NOMINAL_BURST_NS = 300_000

_DATA = bytes((i * 37 + 11) % 256 for i in range(16384))
# Built once, so a burst allocates no object that the garbage collector
# tracks: it cannot trigger a collection over the program's heap.
_BYTES = np.frombuffer(_DATA, dtype=np.uint8)
_WORDS = memoryview(_DATA).cast("I")
_TALLY = [0] * 32


def burst_ns() -> int:
    """Run the reference burst once and return its wall time."""
    t0 = time.perf_counter_ns()
    np.bincount(_BYTES, minlength=256)
    acc = 0
    for i in range(1000):
        acc += _WORDS[i] & 0xFF
    for i in range(300):
        _TALLY[i & 31] = (_TALLY[i & 31] + i) & 0xFFFF
    _DATA.count(b"\x10\x47\x7e")
    _DATA.count(b"abc")
    return time.perf_counter_ns() - t0


def sample(n: int) -> list[int]:
    return [burst_ns() for _ in range(n)]


def slowdown(bursts: list[int]) -> float:
    """Measured over nominal burst time: above 1 on a host slower than nominal."""
    return statistics.median(bursts) / NOMINAL_BURST_NS


"""Host-speed probe: a fixed piece of work, timed between the measured ones.

On a VM that shares its host, a vCPU's speed moves by up to about 2x from
one second to the next and from one minute to the next, and CPU time moves
with it (the slow spells are not steal time). A run's epoch times therefore
follow the host as much as the program. The probe is the benchmark's own
code, independent of the program: an interpreter loop and small dense
matmuls, the two kinds of work that bound the epochs of the compute-bound
workloads (a gather with a segmented sum, tried as a third part, tracked
those epochs worse than either). The harness runs it right before and right
after each measured epoch and set-up, and scales each measured time by
`REFERENCE_S` over the adjacent probe time: the time the same work would
take on a host where one probe takes `REFERENCE_S`.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

# A round number near one probe's time on a 2-vCPU x86_64 Xeon VM;
# it only sets the scale of the normalized metrics.
REFERENCE_S = 0.5e-3

_rng = np.random.default_rng(0)
_DENSE = _rng.standard_normal((48, 48)) / 7.0


def probe_once() -> float:
    acc = 0
    for i in range(4000):
        acc += i & 7
    d = _DENSE
    for _ in range(16):
        d = np.tanh(d @ _DENSE)
    return acc + float(d[0, 0])


class Sample(NamedTuple):
    per_probe: float  # mean seconds per probe
    spent: float  # seconds spent probing


def sample(min_seconds: float) -> Sample:
    """Run the probe at least once and for at least `min_seconds`, on the
    calling thread, which is the thread that just ran the measured work
    (for a sliced cell, the master, whose serial part sets most of its
    epoch time)."""
    count = 0
    t0 = time.perf_counter()
    while True:
        probe_once()
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return Sample(elapsed / count, elapsed)


def normalize(seconds: float, before: Sample, after: Sample) -> float:
    """`seconds` as it would read on a host where one probe takes
    `REFERENCE_S`, judged by the probe groups on either side of it, each
    weighted by the time it ran."""
    per_probe = (before.per_probe * before.spent + after.per_probe * after.spent) / (before.spent + after.spent)
    return seconds * REFERENCE_S / per_probe

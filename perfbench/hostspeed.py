"""A fixed reference computation that tracks how fast the host runs now.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same physical cores and memory slow every computation by half or more,
in phases that last from seconds to minutes, so the wall time of one
operation measures the host as much as the program.  The benchmark
times this reference between operations and reports each operation's
time scaled to a host on which the reference takes :data:`NOMINAL_S`:
``normalized = wall * NOMINAL_S / reference``, where ``reference`` is
the mean of the reference times taken just before and just after the
operation.

The reference mixes the kinds of work the program does: interpreted
Python, a per-row loop of small numpy calls, a random gather from an
array past L2, and a scatter-add into a small array.  Its inputs come
from a fixed seed and never from the program.  A measurement is the
median of :data:`REPEATS` repetitions, so a first repetition slowed by
the caches an operation left behind does not count.  The reference runs
in the benchmark's process: a program that left threads busy between
operations would slow it, and so look faster than it is.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the median :func:`measure` on the host the benchmark was tuned on
#: (2-vCPU KVM guest, Python 3.11, numpy 2.4) in a quiet phase; it reads
#: 0.014-0.025 s as the host's load changes.  Only the ratio of two runs
#: matters; the constant keeps normalized times near real seconds.
NOMINAL_S = 0.014

#: Repetitions per measurement; the measurement is their median.
REPEATS = 3

_rng = np.random.default_rng(20181015)
_large = _rng.random(1 << 20)  # 8 MiB: past L2, inside the shared L3
_gather_at = _rng.integers(0, _large.size, size=1 << 19)
_small = np.zeros(1 << 12)
_scatter_at = _rng.integers(0, _small.size, size=1 << 20)
_rows = _rng.random((3000, 8)) < 0.5


def _once() -> float:
    started = time.perf_counter()
    _large[_gather_at].sum()
    np.add.at(_small, _scatter_at, 1.0)
    for row in _rows:
        np.nonzero(row)[0][:2]
    table = {}
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0) + i * i % 7
    return time.perf_counter() - started


def measure() -> float:
    """Wall time of the reference computation now, in seconds."""
    return statistics.median(_once() for _ in range(REPEATS))

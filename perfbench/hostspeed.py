"""A fixed task that times the host, so that runs on a drifting host
compare.

The host this benchmark was tuned on, a shared 2-CPU VM, changes speed
by up to 1.8x over tens of seconds and minutes, and back-to-back runs
agree far better than runs minutes apart.  A run therefore times this
task before each set-up, between rounds (between one-second windows of
the open loop) and after each measured stretch, and reports each
end-to-end time at a fixed host speed: the measured value times
``REFERENCE_S`` over the run's median task time (closed-loop rates
divided by it).  On that host the task's time tracked the ``topk_*``
unit times with a correlation of 0.8-0.95 across runs, and the scaling
cut the largest spread (IQR over median) of a ``topk_*`` time from 0.22
to 0.13 over ten seeds, and from 0.62 to 0.19 over five seeds that met
a 1.6x swing.  The task shares no code with the program, so a change
to the program moves the metrics and not the scale.  Per-layer metrics
stay unscaled, and the raw end-to-end values and the scale are
recorded in the run's context line.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Task seconds at the reference speed (about the task's median on the
#: tuning host).
REFERENCE_S = 0.05

_ARRAY = np.random.default_rng(1).random(200_000)


def task() -> float:
    """Run the task once; its wall seconds.

    Python heap and dict work like the path search, then numpy sorts,
    prefix sums and masked sums like the batched propagation.
    """
    started = time.perf_counter()
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(40_000):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i % 977] = table.get(i % 977, 0) + i
    while heap:
        heapq.heappop(heap)
    for _ in range(5):
        np.sort(_ARRAY)
        np.cumsum(_ARRAY)
        _ARRAY[_ARRAY > 0.5].sum()
    return time.perf_counter() - started


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)

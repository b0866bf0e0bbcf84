"""A fixed reference task that times how fast the host runs at the moment.

The benchmark runs on a shared virtual machine whose speed drifts: the same
repeat can take twice as long in a slow phase that lasts from a fraction of a
second to minutes, and CPU time grows with wall time, so the process is not
waiting but running slower. The reference task runs between the workload's
repeats; a repeat's time divided by the mean of the reference times on either
side of it cancels the host's speed at that moment, and multiplying by
``REFERENCE_S`` turns the ratio back into seconds of a host in its fast phase.

The task uses only NumPy, never robandit, so no change to the program can
change its time. It mixes small NumPy calls (per-round batches and
quantiles) with sampling and partitioning large arrays (bulk estimation).
Interleaved with 240 seconds of each workload, the quartile spread over 20-
and 30-second windows of the median normalized repeat was 0.02 to 0.05 with
this task, against 0.07 to 0.16 for raw times. Adding an interpreted Python
loop over a heap helped prescient-race a little but made bulk-estimate worse
(up to 0.09), so the task leaves it out.
"""

from __future__ import annotations

import time

import numpy as np

# The task's time on a two-vCPU Xeon virtual machine in its fast phase (the
# first decile of 300 timings in a row); it only sets the scale of normalized
# times, and must stay fixed so that normalized times compare across changes.
REFERENCE_S = 0.03


def _task(rng: np.random.Generator) -> float:
    acc = 0.0
    for _ in range(450):
        acc += float(np.quantile(rng.random(16), 0.5))
    for _ in range(30):
        acc += float(np.partition(rng.standard_normal(20_000), 10_000)[10_000])
    return acc


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    _task(rng)
    return time.perf_counter() - start

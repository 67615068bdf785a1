"""Host-speed normalization of measured times.

Shared hosts change speed by up to 2x for tens of seconds at a time, which
moves wall times far more than the changes the benchmark must detect.  Every
timed interval is therefore bracketed by a fixed reference loop that runs no
dpvote code, and its raw time is scaled to the speed at which that loop takes
``REF_NOMINAL_S``.  The scale for one interval is the mean of the reference
samples around it and around the ``WINDOW`` intervals on either side.  The
host tends to switch between a fast and a slow state many times within one
operation, so an operation sees the average slowdown; the mean of the samples
estimates that, where a median would jump between the two states.  Because
the loop is fixed, a change to dpvote moves the scaled times exactly as it
moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference loop times on an idle 2 GHz Xeon core, so scaled times read as seconds there.
REF_NOMINAL_S = {"interpreter": 0.032, "bulk": 0.032}
WINDOW = 1


def reference_seconds(kind: str) -> float:
    """Time a fixed loop that resembles the workload's kind of work.

    "bulk" is large-array sampling and reduction, like the Monte-Carlo oracles;
    "interpreter" is Python code around tiny numpy calls, like the labeling loop.
    """
    start = time.perf_counter()
    if kind == "bulk":
        noise = np.random.default_rng(12345).laplace(0.0, 1.0, (80_000, 10))
        int(np.count_nonzero(np.argmax(noise, axis=1)))
    else:
        acc = 0
        row = np.arange(10, dtype=np.int64)
        for i in range(6000):
            moved = row.copy()
            moved[i % 10] += 1
            top = np.partition(moved, -2)
            acc += int(top[-1] - top[-2]) + len(f"{i},{acc % 7}".split(","))
    return time.perf_counter() - start


def bracketed(fn, kind: str):
    """Run fn between two reference loops: (raw seconds, (ref before, ref after), result)."""
    before = reference_seconds(kind)
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return raw, (before, reference_seconds(kind)), result


def normalize(samples, kind: str) -> list[float]:
    """Scale each (raw seconds, refs) sample, given in execution order, to nominal speed."""
    scaled = []
    for k, (raw, _) in enumerate(samples):
        window = samples[max(0, k - WINDOW): k + WINDOW + 1]
        ref = statistics.mean(r for _, refs in window for r in refs)
        scaled.append(raw * REF_NOMINAL_S[kind] / ref)
    return scaled

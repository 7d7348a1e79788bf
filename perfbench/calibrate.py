"""A fixed reference task that gauges how fast the machine runs right now.

On a shared host the same operation can take twice as long from one
second to the next, because other tenants contend for the core and its
caches, and the share of slow time drifts over minutes; a run's median
wall time then says more about the host than about the program. run.py
times this task, whose code does not change with the program, in its own
process just before every untraced operation, and reports ``wall_ref_s``:
the run's median operation wall time scaled by REFERENCE_S over the mean
time of the run's passes of this task. That is the wall time at the speed
at which the task takes REFERENCE_S.

The task mixes the kinds of work the workloads do: interpreted Python over
strings and dicts (the edit model and candidate generation), many small
matrix products with an argmax (the self-learning loop at small d) and
300-wide matrix products (``wide-baseline``).
"""

import time

import numpy as np

# About the task's time on a shared 2-core Xeon VM with one BLAS thread;
# any fixed value serves, as long as it never changes.
REFERENCE_S = 0.15

_SMALL = np.random.default_rng(0).standard_normal((200, 40))
_WIDE = np.random.default_rng(1).standard_normal((300, 300))


def reference_task():
    """Seconds one pass of the fixed task takes now."""
    start = time.perf_counter()
    counts = {}
    for i in range(120_000):
        key = "w%d" % (i % 997)
        counts[key] = counts.get(key, 0) + len(key)
    for _ in range(450):
        (_SMALL @ _SMALL.T).argmax(axis=1)
    for _ in range(30):
        _WIDE @ _WIDE
    return time.perf_counter() - start

"""Speed probe: converts wall seconds into calibrated seconds.

On a shared 2-vCPU box the speed of the core we run on changes from one
second to the next, with load from other tenants. The same `real_schur`
call on a 70-state chain took 0.127 s in one 6-second stretch and
0.231 s a minute later, and replaying one pass of `spectral` for 200 s
gave 15-second windows whose throughput differed by 30% (IQR over
median). So the benchmark times this probe right before and right after
every report and scales the report's latency by
PROBE_NOMINAL_S / sqrt(before * after). On the same 200 s that cut the
spread of throughput to 3% and of the median latency to 6%.

A calibrated second is a wall second on a core that runs the probe in
PROBE_NOMINAL_S. The probe uses only Python and numpy, never chainkit,
so a change to the program cannot move it. It mixes interpreter work,
small numpy calls, a small matrix product and JSON encoding, like the
program does.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

PROBE_NOMINAL_S = 0.007

_A = np.random.default_rng(0).random((48, 48))
_ROWS = _A.tolist()


def _once() -> float:
    x = _A.copy()
    began = time.perf_counter()
    acc = 0.0
    for i in range(400):
        v = x[i % 48]
        acc += float(v @ v)
        x[(7 * i) % 48] -= 1e-9 * np.outer(v, v)[0]
    acc += float((x @ x).sum())
    acc += len(json.dumps(_ROWS))
    elapsed = time.perf_counter() - began
    if acc != acc:  # consume the result
        raise ArithmeticError("probe produced NaN")
    return elapsed


def probe() -> float:
    """Wall seconds of one fixed unit of work: the median of three
    timings, about 15 ms in all."""
    return statistics.median(_once() for _ in range(3))


def factor(before: float, after: float) -> float:
    """Scale factor for a latency measured between two probes."""
    return PROBE_NOMINAL_S / math.sqrt(before * after)

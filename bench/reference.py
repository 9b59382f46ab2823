"""A fixed kernel that times how fast this machine runs right now.

On a shared machine the same op takes 20-30 % longer or shorter for
stretches of 20-60 s, and CPU time moves with wall time, so the slowdown
is in the work itself rather than in waiting for a core.  run.py times
this kernel between ops and scales each op's time by REF_S / (mean of
the kernel's times just before and after it), so that reported times
read as on a machine where the kernel takes REF_S seconds.  The kernel
shares no code with masshist.  run.py times it only once an op's result
has been released, and it runs with the cyclic garbage collector emptied
beforehand and switched off, so that nothing masshist leaves in the heap
can set off a collection inside it.  It mixes the same kinds of work as
the ops: vectorized log-space array passes like the grid sweeps, a
Python loop of small-array updates like the Jacobi solver, generator
construction like the simulators, and scalar Python.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
from scipy.special import log_expit

REF_S = 0.18  # the kernel's typical time on a shared 2-vCPU 2.1 GHz Xeon VM

_RNG = np.random.default_rng(12345)
_Z = _RNG.standard_normal((21, 21, 300))
_A = _RNG.standard_normal((30, 30))
_A = _A @ _A.T


def _kernel() -> float:
    acc = 0.0
    for _ in range(12):
        lg = 7.0 * log_expit(_Z) + 3.0 * log_expit(-_Z)
        m = lg.max(axis=-1)
        acc += float((np.log(np.exp(lg - m[..., None]).sum(axis=-1))
                      + m).sum())
    a = _A.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
            t = math.copysign(1.0, theta) / (abs(theta)
                                             + math.hypot(theta, 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rp, rq = a[p, :].copy(), a[q, :].copy()
            a[p, :], a[q, :] = c * rp - s * rq, s * rp + c * rq
            cp, cq = a[:, p].copy(), a[:, q].copy()
            a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
    acc += float(np.trace(a))
    for i in range(1500):
        g = np.random.default_rng(np.random.SeedSequence((7, i)))
        acc += float(np.count_nonzero(g.random(300) < 0.5))
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc + sum(d.values())


def reference_s() -> float:
    """Wall time of one pass of the kernel, with the garbage collector
    run before it (untimed) and off during it."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()

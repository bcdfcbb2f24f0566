"""Host-speed probe.

On a shared host the speed of this process drifts by up to about 2x over
tens of seconds, because of load outside the machine the benchmark runs on.
The probe times a fixed mix of interpreter work and small numpy ops, the
same kind of work that dominates umfdet, and never calls umfdet. Timings
divided by a probe taken next to them are in reference seconds: seconds on
a host where the probe takes PROBE_REF_S. A change to the program moves
them; a change in host speed mostly does not.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_ITERS = 600
# Median probe time on the reference machine (2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31 on one thread). It only sets the scale.
PROBE_REF_S = 0.013

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(16, 64))
_W = _RNG.normal(size=(64, 64))


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERS):
        b = _A @ _W
        b = b - b.max(axis=1, keepdims=True)
        e = np.exp(b)
        s = e / e.sum(axis=1, keepdims=True)
        acc += float(s[0, 0])
        d = {"k": i, "v": [i, i + 1], "s": str(i)}
        acc += len(d["v"]) + len(d["s"])
    dt = time.perf_counter() - t0
    if not acc > 0:
        raise RuntimeError("host-speed probe computed nothing")
    return dt

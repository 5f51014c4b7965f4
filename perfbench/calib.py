"""Host-speed reference: a fixed kernel timed between experiments, so that
run times can be scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within seconds (other tenants, SMT siblings, frequency).  The drift
hits every process on the core alike, so the time of a fixed kernel measured
right next to an experiment tracks it.  ``scaled`` turns a wall time into
seconds at the speed where the kernel takes ``REF_S``: wall time x REF_S /
the kernel's time measured next to it.  A slower program still shows fully;
only the host's share of the change cancels.

The kernel is numpy work of the two shapes dyadicsq's hot loops have:
elementwise transcendental passes over a 4096-point array, and the
lag-by-lag slice differences and maxima of the interval scan.  Measured next
to experiments of every workload, its time followed theirs more closely than
a pure-Python loop or scipy ``quad`` did, which swing more than the
experiments themselves and so over-correct.  It uses nothing from dyadicsq,
so no change to the program under test changes it.  numpy is imported at
the first call, so that the caller can cap BLAS threads first.
"""

from __future__ import annotations

import time

#: Median kernel time on the 2-core Xeon box the baseline was measured on.
REF_S = 0.07


def _kernel() -> float:
    import numpy as np

    xs = np.linspace(1.0, 2.0, 4096)
    cum = np.cumsum(np.linspace(0.5, 1.5, 16384))
    buf = np.empty(8192)
    s = 0.0
    for _ in range(1500):
        s += float(np.sum(np.power(xs, 1.5) * np.log(xs)))
    for lag in range(1, 1500):
        d = cum[lag:lag + 8192] - cum[:8192]
        np.copyto(buf, d)
        buf *= d
        s += float(buf.max())
    return s


_warm = False


def ref_time() -> float:
    """Wall seconds of one run of the reference kernel (the first call also
    runs it once untimed, to import numpy)."""
    global _warm
    if not _warm:
        _kernel()
        _warm = True
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` at reference host speed, judged by the kernel times taken
    just before and just after it."""
    return wall_s * REF_S / (0.5 * (ref_before + ref_after))

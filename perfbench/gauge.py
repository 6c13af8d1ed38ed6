"""Machine-speed gauge for scaling end-to-end times.

The speed of a small shared machine drifts by tens of percent over seconds to
minutes, as other tenants load its cores.  A fixed gauge runs right before and
after every set-up and operation, and each of their times is multiplied by
GAUGE_REF_S over the mean of the two gauge times around it; a metric is then
the median of the scaled times.  The gauge mixes the kinds of work the
workloads do (small and mid-size BLAS calls, numpy ufuncs, float formatting,
set and dict building) and uses no cvsqi code, so a change to the program
cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

GAUGE_REF_S = 0.05        # about the gauge's time on a 2-core Xeon VM
GAUGE_REPS = 800
_rng = np.random.default_rng(2023)
_X, _W = _rng.standard_normal((8, 150)), _rng.standard_normal((150, 150))
_A, _B = _rng.standard_normal((512, 48)), _rng.standard_normal((48, 32))
_GRID, _SRC = np.linspace(0.0, 1.0, 150), np.linspace(0.0, 1.0, 97)
_PEAKS = np.arange(0, 4000, 100)


def gauge() -> float:
    """Wall seconds of the fixed gauge."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(GAUGE_REPS):
        h = np.maximum(_X @ _W, 0.0)
        acc += float(np.interp(_GRID, _SRC, h[0, :_SRC.size]).sum())
        if i % 8 == 0:
            acc += float((_A @ _B).sum())
        acc += len(f"{i},{acc!r},{h[1, i % 150]!r}")
        acc += i * 10 in set(int(p) for p in _PEAKS)
        acc += sum({k: k for k in range(16)}.values())
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """A time at the reference speed, from the gauge times around it."""
    return seconds * GAUGE_REF_S / ((before + after) / 2.0)

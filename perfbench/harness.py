"""Closed loop over one workload: set-up, timed operations, checks, result line."""
from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import cvsqi
import opbench
import workloads
from gauge import gauge, scaled
from tracing import LAYER_UNITS, Tracer

SETUP_REPEATS = 3


def environment(workload: str, seed: int, seconds: float, trace: bool,
                blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "cvsqi": cvsqi.__file__}


class Loop:
    """Runs operations and their checks, counting attempts and failures.

    An exception, a nonzero exit of a command or a failed check each count
    as one failed operation; the operation's figures are then dropped.
    """

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.attempted = self.failed = 0
        self.records: list[dict] = []

    def step(self, tracer=None) -> dict | None:
        self.attempted += 1
        try:
            before = gauge()
            with tracer.active("op") if tracer else contextlib.nullcontext():
                rec = self.workload.op(self.state)
            rec["scaled_s"] = scaled(rec["wall_s"], before, gauge())
            problems = self.workload.check(self.state, rec)
        except Exception:   # a failed operation must not end the run
            traceback.print_exc()
            self.failed += 1
            return None
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        self.records.append(rec)
        return rec


def _fresh(work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _untraced(wl, seed: int, seconds: float, work: Path):
    setup_s, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        _fresh(work)
        before = gauge()
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        setup_s.append(time.perf_counter() - t0)
        setup_scaled.append(scaled(setup_s[-1], before, gauge()))
    loop = Loop(wl, state)
    end = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < end:
        loop.step()
    if not loop.records:
        return loop, None
    walls = [r["wall_s"] for r in loop.records]
    scaled_walls = [r["scaled_s"] for r in loop.records]
    figures = [("failed_frac", loop.failed / loop.attempted, "frac"),
               ("ops", float(len(walls)), "count"),
               ("setup_s.unscaled", float(np.median(setup_s)), "s"),
               ("op_wall_s.unscaled", float(np.median(walls)), "s")]
    metrics = {"setup_s": (float(np.median(setup_scaled)), "s"),
               "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "frac"),
               "op_wall_s": (float(np.median(scaled_walls)), "s")}
    return loop, (figures + wl.figures(loop.records), metrics)


def _traced(wl, seed: int, seconds: float, work: Path):
    """Untraced and traced operations in turn; spans come from the traced ones."""
    tracer = Tracer()
    with tracer.active("setup"):
        state = wl.setup(seed, _fresh(work))
    loop = Loop(wl, state)
    plain, traced = [], []
    end = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < end:
        a = loop.step()
        b = loop.step(tracer)
        if a is not None and b is not None:
            plain.append(a["wall_s"])
            traced.append(b["wall_s"])
    if not traced:
        return loop, None
    overhead = float(np.median(traced) / np.median(plain) - 1.0)
    n_traced = loop.attempted // 2
    metrics = tracer.layer_metrics(n_traced)
    metrics["trace.overhead_frac"] = (overhead, LAYER_UNITS["trace.overhead_frac"])

    seen = sorted(tracer.pairs)
    small = [k for k in seen if k[1] in (1, opbench.TRAIN_BATCH)]
    op_metrics, lines = opbench.metrics(seed, extra=small)
    metrics.update(op_metrics)
    figures = [("traced_ops", float(n_traced), "count"),
               ("autodiff.pairs_seen", float(len(seen)), "count"),
               ("autodiff.canonical_seen",
                float(sum(k in opbench.CANONICAL for k in seen)), "count")]
    for key in seen:
        print(f"seen autodiff.{opbench.key_name(key)} calls {tracer.pairs[key]}")
    for line in lines:
        print(line)
    return loop, (figures, metrics)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        blas_threads: int) -> int:
    if Path(cvsqi.__file__).resolve().parent != root / "src" / "cvsqi":
        print(f"error: imported cvsqi from {cvsqi.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[workload]
    print("env " + json.dumps(environment(workload, seed, seconds, trace, blas_threads)))
    base = root / ".perfbench-work"
    work = base / f"{workload}-{os.getpid()}"
    try:
        loop, out = (_traced if trace else _untraced)(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while other runs use it
            base.rmdir()
    if out is None:
        print("error: every operation failed", file=sys.stderr)
        return 1
    figures, metrics = out
    for name, value, unit in figures:
        print(f"{name:<40} {value:>14.6g} {unit}")
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0

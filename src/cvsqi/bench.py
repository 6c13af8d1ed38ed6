"""What `cvsqi bench --out` records beside the per-cycle latencies: the
environment it ran in, a calibration loop's time, and the time of one
training step.

A small shared machine drifts by tens of percent between runs, so a timing
means little without the machine's speed at the time.  The calibration loop
is a fixed mix of numpy work (small and mid-size matrix products, ufuncs,
interpolation) that runs no cvsqi code, so a change to the program cannot
move it; it is timed before and after the benchmark, and two BENCH files
compare best as timings over calibration times.
"""
from __future__ import annotations

import os
import platform
import subprocess
import time

import numpy as np

from . import discriminative, manifold, nn
from .nn import BATCH_ROWS, DEFAULT_LR
from .preprocess import TARGET_LEN

CALIBRATION_REPS = 2000
STEP_MODELS = ("bcvae", "vgg3")
STEP_BATCHES = 12          # training steps per timed call: one epoch
STEP_REPEATS = 5           # timed calls per model, after one untimed
# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def calibration_s() -> float:
    """Wall seconds of the fixed calibration loop."""
    rng = np.random.default_rng(2023)
    x, w = rng.standard_normal((8, TARGET_LEN)), rng.standard_normal((TARGET_LEN,) * 2)
    a, b = rng.standard_normal((512, 48)), rng.standard_normal((48, 32))
    grid, src = np.linspace(0.0, 1.0, TARGET_LEN), np.linspace(0.0, 1.0, 97)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_REPS):
        h = np.maximum(x @ w, 0.0)
        acc += float(np.interp(grid, src, h[0, :src.size]).sum())
        if i % 8 == 0:
            acc += float((a @ b).sum())
    return time.perf_counter() - t0


def _blas_threads() -> int | None:
    """The BLAS thread count the environment sets; None: the library's
    default (for OpenBLAS, one thread per core)."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return None


def _git_describe() -> str | None:
    """`git describe` of the checkout holding this package, None outside one."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """The machine, interpreter, numpy and BLAS build, and the seed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(), "seed": seed,
            "git_describe": _git_describe()}


def _train_call(name: str, seed: int):
    """A call that trains a new model `name` for one epoch of STEP_BATCHES
    BATCH_ROWS-row steps on uniform rows.  vgg3 validates on two rows once."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(STEP_BATCHES * BATCH_ROWS, TARGET_LEN))
    if name in manifold.VAE_KINDS:
        model = manifold.build_vae(name, seed=seed)
        return lambda: manifold.vae_train(model, x, np.ones(len(x), dtype=np.int64),
                                          epochs=1, lr=DEFAULT_LR, seed=seed)
    model = discriminative.build(name, seed=seed)
    y = (np.arange(len(x)) % 3 == 0).astype(np.float64)
    return lambda: discriminative.train(model, x, y, x[:2], np.array([1, 0]),
                                        epochs=1, lr=DEFAULT_LR, seed=seed)


def train_steps(seed: int) -> dict:
    """Milliseconds per batch-BATCH_ROWS training step of each STEP_MODELS
    model: the median over STEP_REPEATS one-epoch calls, and every call's."""
    ms = {}
    for name in STEP_MODELS:
        _train_call(name, seed)()                        # warm-up
        calls = [_train_call(name, seed) for _ in range(STEP_REPEATS)]
        per_step = []
        for call in calls:
            t0 = time.perf_counter()
            call()
            per_step.append((time.perf_counter() - t0) * 1e3 / STEP_BATCHES)
        ms[name] = {"median_ms": float(np.median(per_step)), "ms": per_step}
    return {"dtype": np.dtype(nn.TRAIN_DTYPE).name, "batch": BATCH_ROWS,
            "steps_per_call": STEP_BATCHES, "models": ms}

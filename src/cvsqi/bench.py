"""`cvsqi bench`: each model's per-cycle latency, and what `--out` records
beside it: the environment it ran in, a calibration loop's time, the time
of one training step, and each model's file save and load times.

A small shared machine drifts by tens of percent between runs, so a timing
means little without the machine's speed at the time.  The calibration loop
is a fixed mix of numpy work (small and mid-size matrix products, ufuncs,
interpolation) that runs no cvsqi code, so a change to the program cannot
move it; it is timed before and after the benchmark, and two BENCH files
compare best as timings over calibration times.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from . import dataio, discriminative, experiment, manifold, model_io, nn
from .errors import ValidationError
from .nn import BATCH_ROWS, DEFAULT_LR, inference_workers
from .preprocess import (DEFAULT_SCALE_MODE, DEFAULT_SCHEME, TARGET_LEN, normalize_cycle,
                         subject_scale_factor)

BENCH_MIN_CYCLES = 1000   # bench_models' floor and bench --n-cycles' default
BENCH_PREPROCESSING = {"norm_scheme": DEFAULT_SCHEME, "scale_mode": DEFAULT_SCALE_MODE}
CALIBRATION_REPS = 2000
STEP_MODELS = ("bcvae", "vgg3")
STEP_BATCHES = 12          # training steps per timed call: one epoch
STEP_REPEATS = 5           # timed calls per model, after one untimed
IO_REPEATS = 5             # timed saves and loads of each model's file
BATCH_REPEATS = 5          # timed model.score calls over all cycles, after one untimed
# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def bench_models(named_models, cycles) -> list[dict]:
    """Per-cycle wall-clock latency (normalize + forward + verdict) per model.

    cycles holds _bench_cycles' (CvsCycle, scale) pairs.  Returns one record
    per model: its name, n_samples, the mean, median and p99 in us, and the
    median us per cycle of BATCH_REPEATS model.score calls over all the
    cycles, normalized beforehand (batched inference), after one untimed call.
    """
    if len(cycles) < BENCH_MIN_CYCLES:
        raise ValidationError(f"benchmark needs >= {BENCH_MIN_CYCLES} cycles, "
                              f"got {len(cycles)}")
    scheme = BENCH_PREPROCESSING["norm_scheme"]
    x = np.stack([normalize_cycle(c, scheme, s).values for c, s in cycles])
    reports = []
    for name, model in named_models:
        # warm start: the first 10 cycles, outside timing
        for c, s in cycles[:10]:
            model.score(normalize_cycle(c, scheme, s).values[None, :])
        times = np.empty(len(cycles))
        for i, (c, s) in enumerate(cycles):
            t0 = time.perf_counter()
            vec = normalize_cycle(c, scheme, s).values
            model.score(vec[None, :])
            times[i] = time.perf_counter() - t0
        model.score(x)                     # warm start of the batched path
        batch_s = np.empty(BATCH_REPEATS)
        for i in range(BATCH_REPEATS):
            t0 = time.perf_counter()
            model.score(x)
            batch_s[i] = time.perf_counter() - t0
        us = times * 1e6
        reports.append({
            "model": name,
            "n_samples": int(us.size),
            "mean_us": float(us.mean()),
            "median_us": float(np.median(us)),
            "p99_us": float(np.percentile(us, 99)),
            "batch_us_per_cycle": float(np.median(batch_s)) * 1e6 / len(x),
        })
    return reports


def _bench_cycles(n_cycles: int, seed: int):
    """Synthetic (CvsCycle, scale) pairs for benchmarking, under BENCH_PREPROCESSING:
    60 s subjects (each has cycles) until n_cycles, then a seeded shuffle."""
    out = []
    for subject in experiment.iter_subjects(seed, n_cycles, 60_000):
        s = subject_scale_factor(subject.calibration)
        out.extend((c, s) for c in subject.cycles)
        if len(out) >= n_cycles:
            break
    np.random.default_rng(seed).shuffle(out)
    return out[:n_cycles]


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
    """The machine, interpreter, numpy and BLAS build, the seed, and the source:
    SHA-256 over this package's .py files in file-name order, each name then its bytes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes()
                                     for p in sorted(Path(__file__).parent.glob("*.py"))))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(), "seed": seed,
            "git_describe": _git_describe(), "source_sha256": source.hexdigest()}


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


def model_io_ms(named_models) -> dict:
    """Each model's file, saved to and loaded from a temp directory
    IO_REPEATS times: its bytes and the median save and load ms."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, model) in enumerate(named_models):
            path = os.path.join(tmp, f"{i}.json")
            save, load = [], []
            for _ in range(IO_REPEATS):
                t0 = time.perf_counter()
                model_io.save_model(model, path, **BENCH_PREPROCESSING)
                t1 = time.perf_counter()
                model_io.load_model(path)
                load.append((time.perf_counter() - t1) * 1e3)
                save.append((t1 - t0) * 1e3)
            records.append({"model": name, "bytes": os.path.getsize(path),
                            "save_ms": float(np.median(save)),
                            "load_ms": float(np.median(load))})
    return {"repeats": IO_REPEATS, "models": records}


def cmd_bench(args) -> int:
    named = []
    if args.models:
        for path in args.models:   # every file checked before anything is timed
            scorer = model_io.load_model(path)
            if scorer.preprocessing != BENCH_PREPROCESSING:
                raise ValidationError(
                    f"{path}: records {scorer.preprocessing}; bench times every "
                    f"model on cycles under {BENCH_PREPROCESSING} only")
            try:       # a model that cannot score (no threshold) fails here
                scorer.model.score(np.zeros((1, TARGET_LEN)))
            except ValidationError as exc:
                raise type(exc)(f"{path}: {exc}") from None
            named.append((scorer.model.name, scorer.model))
    else:
        for arch in discriminative.ARCHITECTURES:
            named.append((arch, discriminative.build(arch, seed=args.seed)))
        for kind in manifold.VAE_KINDS:
            m = manifold.build_vae(kind, seed=args.seed)
            m.threshold_d = 1.0
            named.append((kind, m))

    # the --out temp file is made first, so an --out that cannot be written
    # fails before anything is timed
    with dataio.replacing() as open_temp:
        out = open_temp(args.out) if args.out else None
        before = calibration_s() if out else None
        reports = bench_models(named, _bench_cycles(args.n_cycles, args.seed))
        print(f"{'model':<10}{'mean us':>12}{'median us':>12}{'p99 us':>12}{'n':>8}"
              f"{'batch us':>12}")
        for r in reports:
            print(f"{r['model']:<10}{r['mean_us']:>12.1f}{r['median_us']:>12.1f}"
                  f"{r['p99_us']:>12.1f}{r['n_samples']:>8}{r['batch_us_per_cycle']:>12.2f}")
        if out:
            steps = train_steps(args.seed)
            for name, step in steps["models"].items():
                print(f"train step {name} ({steps['dtype']}, batch {steps['batch']}): "
                      f"{step['median_ms']:.2f} ms")
            files = model_io_ms(named)
            for r in files["models"]:
                print(f"model file {r['model']} ({r['bytes']} B): save {r['save_ms']:.2f} ms, "
                      f"load {r['load_ms']:.2f} ms")
            env = {**environment(args.seed), "n_cycles": args.n_cycles,
                   # by_rows' threads for the slices after its first
                   "inference_workers": inference_workers(-(-args.n_cycles // BATCH_ROWS) - 1),
                   "calibration_s": {"before": before, "after": calibration_s()}}
            out.write(json.dumps({"env": env, "per_cycle": reports, "train_step": steps,
                                  "model_io": files}, indent=1) + "\n")
    return 0

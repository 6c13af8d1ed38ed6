"""Forward and backward timings of single autodiff ops at the models' shapes.

An (op, shape) pair is a tuple key:

    ("conv1d", n, length, c_in, k, c_out, stride)
    ("conv_transpose1d", n, length, c_in, k, c_out, stride, out_len)
    ("dense", n, d_in, d_out)
    ("maxpool1d", n, length, channels)

The canonical pairs are the layers of the beta-ConvVAE at batch 64 (one
training step) and at batch 1, and of VGG16-3 at batch 1 (one cycle scored).
Each pair is timed through ``cvsqi.autodiff``'s public functions: the op call
for forward, ``autodiff.backward`` on the sum of its output for backward.
"""
from __future__ import annotations

import time

import numpy as np

from cvsqi import autodiff as ad

TRAIN_BATCH = 64         # vae_train's default batch size
BUDGET_S = 0.15          # time spent on one pair, warm-up excluded
MIN_REPS, MAX_REPS, WARMUP = 10, 400, 2


def _bcvae(n: int) -> list[tuple]:
    enc = [("conv1d", n, 150, 1, 3, 8, 2), ("conv1d", n, 75, 8, 3, 16, 2),
           ("conv1d", n, 38, 16, 3, 24, 2), ("conv1d", n, 19, 24, 3, 32, 2),
           ("dense", n, 320, 20)]
    dec = [("dense", n, 10, 320),
           ("conv_transpose1d", n, 10, 32, 3, 24, 2, 19),
           ("conv_transpose1d", n, 19, 24, 3, 16, 2, 38),
           ("conv_transpose1d", n, 38, 16, 3, 8, 2, 75),
           ("conv_transpose1d", n, 75, 8, 3, 8, 2, 150),
           ("conv1d", n, 150, 8, 1, 1, 1), ("dense", n, 150, 150)]
    return enc + dec


def _vgg3(n: int) -> list[tuple]:
    pairs = []
    length, cin = 150, 1
    for cout in (4, 8, 16):
        pairs += [("conv1d", n, length, cin, 3, cout, 1),
                  ("conv1d", n, length, cout, 3, cout, 1),
                  ("maxpool1d", n, length, cout)]
        length, cin = length // 2, cout
    flat = length * cin
    return pairs + [("dense", n, flat, flat), ("dense", n, flat, 1)]


# The batch-1 ConvVAE flops are the batch-64 ones divided by 64, so they are
# not listed as metrics.
CANONICAL = _bcvae(TRAIN_BATCH) + _bcvae(1) + _vgg3(1)
WITH_FLOPS = set(_bcvae(TRAIN_BATCH) + _vgg3(1))


def _shape(v) -> tuple:
    return np.shape(getattr(v, "value", v))


def op_key(op: str, args: tuple, kwargs: dict) -> tuple:
    """The pair key of one call to an autodiff op, from its arguments."""
    x = _shape(args[0])
    if op == "maxpool1d":
        return (op, *x)
    w = _shape(args[1] if len(args) > 1 else kwargs["w" if op == "dense" else "kern"])
    if op == "dense":
        return (op, x[0], x[1], w[0])
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    key = (op, x[0], x[1], x[2], w[0], w[2], int(stride))
    if op == "conv_transpose1d":
        key += (int(args[4] if len(args) > 4 else kwargs["out_len"]),)
    return key


def key_name(key: tuple) -> str:
    op, dims = key[0], key[1:]
    if op == "dense":
        return f"{op}.{dims[0]}x{dims[1]}-o{dims[2]}"
    if op == "maxpool1d":
        return f"{op}.{dims[0]}x{dims[1]}x{dims[2]}"
    n, length, cin, k, cout, stride = dims[:6]
    name = f"{op}.{n}x{length}x{cin}-k{k}c{cout}s{stride}"
    return name + (f"o{dims[6]}" if op == "conv_transpose1d" else "")


def flops(key: tuple) -> int:
    """Forward floating-point operations: 2 per multiply-add, 1 per comparison."""
    op, dims = key[0], key[1:]
    if op == "dense":
        n, d_in, d_out = dims
        return 2 * n * d_in * d_out
    if op == "maxpool1d":
        n, length, c = dims
        return n * (length // 2) * c
    n, length, cin, k, cout, stride = dims[:6]
    out_len = -(-length // stride) if op == "conv1d" else length
    return 2 * n * out_len * k * cin * cout


def _inputs(key: tuple, rng: np.random.Generator):
    op, dims = key[0], key[1:]
    if op == "maxpool1d":
        return ad.maxpool1d, [rng.standard_normal(dims)], {}
    if op == "dense":
        n, d_in, d_out = dims
        return ad.dense, [rng.standard_normal((n, d_in)),
                          rng.standard_normal((d_out, d_in)),
                          rng.standard_normal(d_out)], {}
    n, length, cin, k, cout, stride = dims[:6]
    arrays = [rng.standard_normal((n, length, cin)),
              rng.standard_normal((k, cin, cout)), rng.standard_normal(cout)]
    if op == "conv1d":
        return ad.conv1d, arrays, {"stride": stride}
    return ad.conv_transpose1d, arrays, {"stride": stride, "out_len": dims[6]}


def time_pair(key: tuple, rng: np.random.Generator) -> tuple[float, float]:
    """Median forward and backward milliseconds of one (op, shape) pair."""
    fn, arrays, kwargs = _inputs(key, rng)
    fwd, bwd = [], []
    spent = 0.0
    while len(fwd) < MAX_REPS and (len(fwd) < MIN_REPS + WARMUP or spent < BUDGET_S):
        leaves = [ad.Var(a) for a in arrays]     # fresh leaves: no stale gradients
        t0 = time.perf_counter()
        out = fn(*leaves, **kwargs)
        t1 = time.perf_counter()
        root = ad.sum_(out)
        t2 = time.perf_counter()
        ad.backward(root)
        t3 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
        if len(fwd) > WARMUP:
            spent += t3 - t0
    return (float(np.median(fwd[WARMUP:])) * 1e3,
            float(np.median(bwd[WARMUP:])) * 1e3)


def metrics(seed: int, extra=()) -> tuple[dict, list[str]]:
    """Per-pair metrics for the canonical pairs, plus report lines for all.

    ``extra`` pairs (captured by a trace but not canonical) are timed and
    reported, not returned as metrics.
    """
    rng = np.random.default_rng(seed)
    out, lines = {}, []
    for key in CANONICAL + [k for k in extra if k not in CANONICAL]:
        fwd_ms, bwd_ms = time_pair(key, rng)
        name = f"autodiff.{key_name(key)}"
        lines.append(f"{name} fwd {fwd_ms:.4f} ms bwd {bwd_ms:.4f} ms "
                     f"flops {flops(key)}")
        if key in CANONICAL:
            out[f"{name}.fwd_ms"] = (fwd_ms, "ms")
            out[f"{name}.bwd_ms"] = (bwd_ms, "ms")
            if key in WITH_FLOPS:
                out[f"{name}.flops"] = (float(flops(key)), "flop")
    return out, lines

"""Forward kernels of the layer ops: pure numpy, no autodiff tape.

Each autodiff op of the same name calls its kernel here and adds only the
backward closure, so inference (arrays in, arrays out) and the taped
training graph compute every output with the same arithmetic.

The convolution is an im2col GEMM: k strided slices of the zero-padded input
form an (N * L_out, k * C_in) matrix that meets the kernel in one 2-D matrix
product.  The transposed convolution is its adjoint: one GEMM yields every
tap's contribution, and k strided slice-adds place them, with no scatter.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch


def relu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0, a, 0.0)


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated so that neither branch overflows."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ez = np.exp(a[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reshape(a: np.ndarray, shape) -> np.ndarray:
    return a.reshape(shape)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map: (N, in) @ (out, in)^T + (out,)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"dense: x {x.shape} incompatible with W {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeMismatch(f"dense: bias {b.shape} vs W {w.shape}")
    return x @ w.T + b


def conv_geometry(length: int, k: int, stride: int):
    """(output length, left padding, total padding) of a same-style conv."""
    out_len = -(-length // stride)
    pad = max((out_len - 1) * stride + k - length, 0)
    return out_len, pad // 2, pad


def im2col(a: np.ndarray, k: int, stride: int, out_len: int, pl: int,
           pad: int) -> np.ndarray:
    """(N, L, C) -> (N * out_len, k * C): row o holds the k taps from o * stride
    of `a` zero-padded by pl on the left and pad - pl on the right."""
    n, length, c = a.shape
    ap = np.zeros((n, length + pad, c))
    ap[:, pl:pl + length, :] = a
    span = (out_len - 1) * stride + 1
    cols = np.empty((n, out_len, k, c))
    for t in range(k):
        cols[:, :, t, :] = ap[:, t:t + span:stride, :]
    return cols.reshape(n * out_len, k * c)


def col2im(cols: np.ndarray, stride: int, length: int, pl: int,
           pad: int) -> np.ndarray:
    """Adjoint of im2col: (N, out_len, k, C) taps summed back onto (N, L, C).

    Taps are added from t = k - 1 down to 0, so every position receives its
    terms in increasing o, the order an index-array scatter would use.
    """
    n, out_len, k, c = cols.shape
    ap = np.zeros((n, length + pad, c))
    span = (out_len - 1) * stride + 1
    for t in range(k - 1, -1, -1):
        ap[:, t:t + span:stride, :] += cols[:, :, t, :]
    return ap[:, pl:pl + length, :]


def conv1d_cols(x: np.ndarray, kern: np.ndarray, b: np.ndarray,
                stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """conv1d's output and the im2col matrix its backward pass reuses."""
    if x.ndim != 3 or kern.ndim != 3:
        raise ShapeMismatch("conv1d expects x (N, L, Cin) and kernel (k, Cin, Cout)")
    n, length, cin = x.shape
    k, kcin, cout = kern.shape
    if kcin != cin:
        raise ShapeMismatch(f"conv1d: input channels {cin} vs kernel {kcin}")
    if b.shape != (cout,):
        raise ShapeMismatch("conv1d: bias shape mismatch")
    out_len, pl, pad = conv_geometry(length, k, stride)
    cols = im2col(x, k, stride, out_len, pl, pad)          # (N*Lo, k*Cin)
    out = (cols @ kern.reshape(k * cin, cout) + b).reshape(n, out_len, cout)
    return out, cols


def conv1d(x: np.ndarray, kern: np.ndarray, b: np.ndarray,
           stride: int = 1) -> np.ndarray:
    """Cross-correlation with same-style zero padding, as one im2col GEMM.

    x: (N, L, C_in); kern: (k, C_in, C_out); output length ceil(L / stride).
    """
    return conv1d_cols(x, kern, b, stride)[0]


def conv_transpose1d(x: np.ndarray, kern: np.ndarray, b: np.ndarray,
                     stride: int, out_len: int) -> np.ndarray:
    """Adjoint of conv1d: maps length ceil(out_len / stride) back to out_len.

    One GEMM gives every tap's contribution; k strided slice-adds place them.
    x: (N, L_small, C_in); kern: (k, C_in, C_out).
    """
    n, l_small, cin = x.shape
    k, kcin, cout = kern.shape
    if kcin != cin:
        raise ShapeMismatch(f"conv_transpose1d: input channels {cin} vs kernel {kcin}")
    if b.shape != (cout,):
        raise ShapeMismatch("conv_transpose1d: bias shape mismatch")
    l_chk, pl, pad = conv_geometry(out_len, k, stride)
    if l_chk != l_small:
        raise ShapeMismatch(
            f"conv_transpose1d: input length {l_small} inconsistent with "
            f"out_len {out_len} at stride {stride}")
    kmat = kern.transpose(1, 0, 2).reshape(cin, k * cout)
    taps = (x.reshape(-1, cin) @ kmat).reshape(n, l_small, k, cout)
    return col2im(taps, stride, out_len, pl, pad) + b


def pool_windows(x: np.ndarray) -> np.ndarray:
    """(N, L, C) -> (N, L // 2, 2, C) non-overlapping pairs; odd tail dropped."""
    if x.ndim != 3:
        raise ShapeMismatch("maxpool1d expects (N, L, C)")
    n, length, c = x.shape
    half = length // 2
    return x[:, :half * 2, :].reshape(n, half, 2, c)


def maxpool1d(x: np.ndarray) -> np.ndarray:
    """Per-channel max over non-overlapping pairs; odd trailing sample dropped."""
    return pool_windows(x).max(axis=2)

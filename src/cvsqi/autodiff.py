"""Minimal reverse-mode automatic differentiation over numpy arrays.

Each operation returns a Var recording its parents and a closure that maps the
output gradient to parent gradients.  backward() runs a topological sweep from
a scalar loss.  The op set is exactly what the models here need: dense layers,
1D (transposed) convolution with width-1/3 kernels, 2-to-1 max pooling, the
elementwise activations, and the reductions used by the losses.

The convolution is an im2col GEMM: k strided slices of the zero-padded input
form an (N * L_out, k * C_in) matrix that meets the kernel in one 2-D matrix
product.  The transposed convolution is its adjoint: one GEMM yields every
tap's contribution, and k strided slice-adds place them, with no scatter.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import GraphNotRecorded, ShapeMismatch


class Var:
    __slots__ = ("value", "grad", "_parents", "_bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._bwd = bwd

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar root into every reachable Var."""
    if root.value.size != 1:
        raise ShapeMismatch("backward requires a scalar root")
    if root._bwd is None and not root._parents:
        raise GraphNotRecorded("root has no recorded forward graph")

    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._bwd is None or node.grad is None:
            continue
        grads = node._bwd(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            # accumulation always allocates, so shared gradient arrays stay intact
            parent.grad = g if parent.grad is None else parent.grad + g


# --- elementwise ---

def add(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    out = a.value + b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)
    return Var(out, (a, b), bwd)


def sub(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    out = a.value - b.value

    def bwd(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)
    return Var(out, (a, b), bwd)


def mul(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    out = a.value * b.value

    def bwd(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))
    return Var(out, (a, b), bwd)


def scale(a, k: float) -> Var:
    a = _as_var(a)
    return Var(a.value * k, (a,), lambda g: (g * k,))


def square(a) -> Var:
    a = _as_var(a)
    return Var(a.value ** 2, (a,), lambda g: (2.0 * a.value * g,))


def exp(a) -> Var:
    a = _as_var(a)
    out = np.exp(a.value)
    return Var(out, (a,), lambda g: (g * out,))


def log(a) -> Var:
    a = _as_var(a)
    return Var(np.log(a.value), (a,), lambda g: (g / a.value,))


def relu(a) -> Var:
    a = _as_var(a)
    mask = a.value > 0
    return Var(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a) -> Var:
    a = _as_var(a)
    out = np.empty_like(a.value)
    pos = a.value >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.value[pos]))
    ez = np.exp(a.value[~pos])
    out[~pos] = ez / (1.0 + ez)
    return Var(out, (a,), lambda g: (g * out * (1.0 - out),))


def clip(a, lo: float, hi: float) -> Var:
    """Clamp with pass-through gradient inside the range, zero outside."""
    a = _as_var(a)
    mask = (a.value > lo) & (a.value < hi)
    return Var(np.clip(a.value, lo, hi), (a,), lambda g: (g * mask,))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- reductions / reshaping ---

def sum_(a) -> Var:
    a = _as_var(a)
    return Var(a.value.sum(), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def mean(a) -> Var:
    a = _as_var(a)
    n = a.value.size
    return Var(a.value.mean(), (a,),
               lambda g: (np.broadcast_to(g / n, a.value.shape).copy(),))


def reshape(a, shape) -> Var:
    a = _as_var(a)
    old = a.value.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def slice_cols(a, start: int, stop: int) -> Var:
    """Columns [start, stop) of a 2-D array."""
    a = _as_var(a)
    if a.value.ndim != 2:
        raise ShapeMismatch("slice_cols expects a 2-D array")

    def bwd(g):
        da = np.zeros_like(a.value)
        da[:, start:stop] = g
        return (da,)
    return Var(a.value[:, start:stop], (a,), bwd)


# --- linear layers ---

def dense(x, w, b) -> Var:
    """Affine map: (N, in) @ (out, in)^T + (out,)."""
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
        raise ShapeMismatch(
            f"dense: x {x.value.shape} incompatible with W {w.value.shape}")
    if b.value.shape != (w.value.shape[0],):
        raise ShapeMismatch(f"dense: bias {b.value.shape} vs W {w.value.shape}")
    out = x.value @ w.value.T + b.value

    def bwd(g):
        return g @ w.value, g.T @ x.value, g.sum(axis=0)
    return Var(out, (x, w, b), bwd)


def _conv_geometry(length: int, k: int, stride: int):
    out_len = -(-length // stride)
    pad = max((out_len - 1) * stride + k - length, 0)
    return out_len, pad // 2, pad


def _im2col(a: np.ndarray, k: int, stride: int, out_len: int, pl: int,
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


def _col2im(cols: np.ndarray, stride: int, length: int, pl: int,
            pad: int) -> np.ndarray:
    """Adjoint of _im2col: (N, out_len, k, C) taps summed back onto (N, L, C).

    Taps are added from t = k - 1 down to 0, so every position receives its
    terms in increasing o, the order an index-array scatter would use.
    """
    n, out_len, k, c = cols.shape
    ap = np.zeros((n, length + pad, c))
    span = (out_len - 1) * stride + 1
    for t in range(k - 1, -1, -1):
        ap[:, t:t + span:stride, :] += cols[:, :, t, :]
    return ap[:, pl:pl + length, :]


def conv1d(x, kern, b, stride: int = 1) -> Var:
    """Cross-correlation with same-style zero padding, as one im2col GEMM.

    x: (N, L, C_in); kern: (k, C_in, C_out); output length ceil(L / stride).
    """
    x, kern, b = _as_var(x), _as_var(kern), _as_var(b)
    if x.value.ndim != 3 or kern.value.ndim != 3:
        raise ShapeMismatch("conv1d expects x (N, L, Cin) and kernel (k, Cin, Cout)")
    n, length, cin = x.value.shape
    k, kcin, cout = kern.value.shape
    if kcin != cin:
        raise ShapeMismatch(f"conv1d: input channels {cin} vs kernel {kcin}")
    if b.value.shape != (cout,):
        raise ShapeMismatch("conv1d: bias shape mismatch")
    out_len, pl, pad = _conv_geometry(length, k, stride)
    cols = _im2col(x.value, k, stride, out_len, pl, pad)   # (N*Lo, k*Cin)
    kmat = kern.value.reshape(k * cin, cout)
    out = (cols @ kmat + b.value).reshape(n, out_len, cout)

    def bwd(g):
        g2 = g.reshape(-1, cout)
        dcols = (g2 @ kmat.T).reshape(n, out_len, k, cin)
        dx = _col2im(dcols, stride, length, pl, pad)
        dk = (cols.T @ g2).reshape(k, cin, cout)
        return dx, dk, g.sum(axis=(0, 1))
    return Var(out, (x, kern, b), bwd)


def conv_transpose1d(x, kern, b, stride: int, out_len: int) -> Var:
    """Adjoint of conv1d: maps length ceil(out_len / stride) back to out_len.

    One GEMM gives every tap's contribution; k strided slice-adds place them.
    x: (N, L_small, C_in); kern: (k, C_in, C_out).
    """
    x, kern, b = _as_var(x), _as_var(kern), _as_var(b)
    n, l_small, cin = x.value.shape
    k, kcin, cout = kern.value.shape
    if kcin != cin:
        raise ShapeMismatch(f"conv_transpose1d: input channels {cin} vs kernel {kcin}")
    if b.value.shape != (cout,):
        raise ShapeMismatch("conv_transpose1d: bias shape mismatch")
    l_chk, pl, pad = _conv_geometry(out_len, k, stride)
    if l_chk != l_small:
        raise ShapeMismatch(
            f"conv_transpose1d: input length {l_small} inconsistent with "
            f"out_len {out_len} at stride {stride}")
    x2 = x.value.reshape(-1, cin)
    kmat = kern.value.transpose(1, 0, 2).reshape(cin, k * cout)
    taps = (x2 @ kmat).reshape(n, l_small, k, cout)
    out = _col2im(taps, stride, out_len, pl, pad) + b.value

    def bwd(g):
        gcols = _im2col(g, k, stride, l_small, pl, pad)     # (N*Ls, k*Cout)
        dx = (gcols @ kmat.T).reshape(n, l_small, cin)
        dk = (x2.T @ gcols).reshape(cin, k, cout).transpose(1, 0, 2)
        return dx, dk, g.sum(axis=(0, 1))
    return Var(out, (x, kern, b), bwd)


def maxpool1d(x) -> Var:
    """Per-channel max over non-overlapping pairs; odd trailing sample dropped."""
    x = _as_var(x)
    if x.value.ndim != 3:
        raise ShapeMismatch("maxpool1d expects (N, L, C)")
    n, length, c = x.value.shape
    half = length // 2
    win = x.value[:, :half * 2, :].reshape(n, half, 2, c)
    out = win.max(axis=2)
    arg = win.argmax(axis=2)

    def bwd(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, arg[:, :, None, :], g[:, :, None, :], axis=2)
        dx = np.zeros_like(x.value)
        dx[:, :half * 2, :] = dwin.reshape(n, half * 2, c)
        return (dx,)
    return Var(out, (x,), bwd)


def maxpool_output_length(length: int) -> int:
    return length // 2

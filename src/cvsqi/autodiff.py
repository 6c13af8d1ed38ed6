"""Minimal reverse-mode automatic differentiation over numpy arrays.

Each operation returns a Var recording its parents and a closure that maps the
output gradient to parent gradients.  backward() runs a topological sweep from
a scalar loss.  The op set is exactly what the models here need: dense layers,
1D (transposed) convolution with width-1/3 kernels, 2-to-1 max pooling, the
elementwise activations, and the reductions used by the losses.

The layer ops and activations compute their output with the numpy kernel of
the same name in `kernels` and add only the backward closure; inference
calls those kernels directly and records no tape.
"""
from __future__ import annotations

import numpy as np

from . import kernels
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
    return Var(kernels.relu(a.value), (a,), lambda g: (g * (a.value > 0),))


def sigmoid(a) -> Var:
    a = _as_var(a)
    out = kernels.sigmoid(a.value)
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
    out = kernels.dense(x.value, w.value, b.value)

    def bwd(g):
        return g @ w.value, g.T @ x.value, g.sum(axis=0)
    return Var(out, (x, w, b), bwd)


def conv1d(x, kern, b, stride: int = 1) -> Var:
    """Cross-correlation with same-style zero padding, as one im2col GEMM.

    x: (N, L, C_in); kern: (k, C_in, C_out); output length ceil(L / stride).
    """
    x, kern, b = _as_var(x), _as_var(kern), _as_var(b)
    out, cols = kernels.conv1d_cols(x.value, kern.value, b.value, stride)

    def bwd(g):
        n, length, cin = x.value.shape
        k, _, cout = kern.value.shape
        g2 = g.reshape(-1, cout)
        dcols = (g2 @ kern.value.reshape(k * cin, cout).T).reshape(n, g.shape[1], k, cin)
        dx = kernels.col2im(dcols, stride, length)
        dk = (cols.T @ g2).reshape(k, cin, cout)
        return dx, dk, g.sum(axis=(0, 1))
    return Var(out, (x, kern, b), bwd)


def conv_transpose1d(x, kern, b, stride: int, out_len: int) -> Var:
    """Adjoint of conv1d: maps length ceil(out_len / stride) back to out_len.

    x: (N, L_small, C_in); kern: (k, C_in, C_out).
    """
    x, kern, b = _as_var(x), _as_var(kern), _as_var(b)
    out = kernels.conv_transpose1d(x.value, kern.value, b.value, stride, out_len)

    def bwd(g):
        n, l_small, cin = x.value.shape
        k, _, cout = kern.value.shape
        kmat = kern.value.transpose(1, 0, 2).reshape(cin, k * cout)
        gcols = kernels.im2col(g, k, stride)                     # (N*Ls, k*Cout)
        dx = (gcols @ kmat.T).reshape(n, l_small, cin)
        dk = (x.value.reshape(-1, cin).T @ gcols).reshape(cin, k, cout).transpose(1, 0, 2)
        return dx, dk, g.sum(axis=(0, 1))
    return Var(out, (x, kern, b), bwd)


def maxpool1d(x) -> Var:
    """Per-channel max over non-overlapping pairs; odd trailing sample dropped."""
    x = _as_var(x)
    out = kernels.maxpool1d(x.value)

    def bwd(g):
        first, second = kernels.pool_pairs(x.value)
        # the argmax of each pair: the first row on a tie or when it is NaN
        first_wins = (first >= second) | np.isnan(first)
        dx = np.zeros(x.value.shape)
        dx_first, dx_second = kernels.pool_pairs(dx)    # views of dx
        np.copyto(dx_first, g, where=first_wins)
        np.copyto(dx_second, g, where=~first_wins)
        return (dx,)
    return Var(out, (x,), bwd)

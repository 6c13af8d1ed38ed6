"""Minimal reverse-mode automatic differentiation over numpy arrays: a tape.

Each operation returns a Var recording its parents and a closure that maps the
output gradient to parent gradients.  backward() runs a topological sweep from
a scalar loss.  The op set is exactly what the models here need: dense layers,
1D (transposed) convolution with width-1/3 kernels, 2-to-1 max pooling, the
elementwise activations, and the reductions used by the losses.

The elementwise and loss ops are written out here.  Each layer op (dense,
conv1d, conv_transpose1d, maxpool1d, relu) is two calls into `kernels`: its
forward kernel now, and its backward kernel in the closure.  Inference calls
the forward kernels directly and records no tape.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ShapeMismatch, ValidationError


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
        raise ValidationError("root has no recorded forward graph")

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
    return Var(kernels.relu(a.value), (a,), lambda g: (kernels.relu_bwd(g, a.value),))


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
    return Var(kernels.dense(x.value, w.value, b.value), (x, w, b),
               lambda g: kernels.dense_bwd(g, x.value, w.value))


def conv1d(x, kern, b, stride: int = 1) -> Var:
    """Same-padded cross-correlation, (N, L, C_in) by (k, C_in, C_out)."""
    x, kern, b = _as_var(x), _as_var(kern), _as_var(b)
    out, cols = kernels.conv1d_cols(x.value, kern.value, b.value, stride)
    return Var(out, (x, kern, b), lambda g: kernels.conv1d_bwd(
        g, cols, kern.value, stride, x.value.shape[1]))


def conv_transpose1d(x, kern, b, stride: int, out_len: int) -> Var:
    """Adjoint of conv1d: length ceil(out_len / stride) back to out_len."""
    x, kern, b = _as_var(x), _as_var(kern), _as_var(b)
    out = kernels.conv_transpose1d(x.value, kern.value, b.value, stride, out_len)
    return Var(out, (x, kern, b),
               lambda g: kernels.conv_transpose1d_bwd(g, x.value, kern.value, stride))


def maxpool1d(x) -> Var:
    """Per-channel max over non-overlapping pairs; odd trailing sample dropped."""
    x = _as_var(x)
    return Var(kernels.maxpool1d(x.value), (x,),
               lambda g: (kernels.maxpool1d_bwd(g, x.value),))

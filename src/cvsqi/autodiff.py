"""Minimal reverse-mode automatic differentiation over numpy arrays: a tape.

Each operation returns a Var recording its parents and a closure that maps the
output gradient to parent gradients.  backward() runs a topological sweep from
a scalar loss.  The op set is exactly what the models here need: dense layers,
1D (transposed) convolution with width-1/3 kernels, 2-to-1 max pooling, the
elementwise activations, and the reductions used by the losses.

The elementwise and loss ops are written out here.  add, sub and mul take
operands of one shape, a ShapeMismatch otherwise, and pass the gradient
straight back: nothing on the tape broadcasts.  Each layer op (dense, conv1d,
conv_transpose1d, maxpool1d, relu) is two calls into `kernels`: its forward
kernel now, and its backward kernel in the closure.  Inference calls the
forward kernels directly and records no tape.

A Var holds float32 or float64: a float32 array stays float32, anything
else becomes float64.  Every op computes in its operands' dtype, so a
float32 graph keeps float32 values and gradients throughout, and a float64
graph gives the same bits as it always has.  cast moves a value to another
dtype and its gradient back: training runs its layers in float32 and casts
their outputs into a float64 loss.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ShapeMismatch, ValidationError


class Var:
    __slots__ = ("value", "grad", "_parents", "_bwd")

    def __init__(self, value, parents=(), bwd=None):
        value = np.asarray(value)
        if value.dtype != np.float32:
            value = value.astype(np.float64, copy=False)
        self.value = value
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

def _same_shape(a, b) -> tuple[Var, Var]:
    a, b = _as_var(a), _as_var(b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(f"elementwise operands of shapes {a.value.shape} and "
                            f"{b.value.shape}: the tape does not broadcast")
    return a, b


def add(a, b) -> Var:
    a, b = _same_shape(a, b)
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a, b) -> Var:
    a, b = _same_shape(a, b)
    return Var(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a, b) -> Var:
    a, b = _same_shape(a, b)
    return Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


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


def cast(a, dtype) -> Var:
    """a's value as dtype (float32 or float64), its gradient cast back to
    a's dtype; a itself when it already holds dtype."""
    a = _as_var(a)
    if a.value.dtype == dtype:
        return a
    src = a.value.dtype
    return Var(a.value.astype(dtype), (a,), lambda g: (g.astype(src),))


def clip(a, lo: float, hi: float) -> Var:
    """Clamp with pass-through gradient inside the range, zero outside."""
    a = _as_var(a)
    mask = (a.value > lo) & (a.value < hi)
    return Var(np.clip(a.value, lo, hi), (a,), lambda g: (g * mask,))


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


def conv1d(x, kern, b, stride: int) -> Var:
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

"""Parameter containers, seeded initialization, Adam, the training loop, and
descriptor-driven forward.

Architectures are plain JSON-able descriptors: a list of layer dicts consumed
both by the initializer (which allocates glorot-uniform weights and zero
biases) and by forward_layers (which runs the numpy kernels on arrays for
inference, or builds the autodiff graph on Vars for training).  fit is the
one minibatch Adam loop; every model family trains through it.

BATCH_ROWS is the one batch size: the default training batch, and the rows
per call when by_rows runs tape-free inference over a set of any size, so no
layer's temporaries grow with the set.  A row's output can differ from the
same row run in a batch of another size in the last bits (matrix products
round per batch shape), within 1e-12 relative.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Var
from .errors import InvalidField, ShapeMismatch, ValidationError

ACTIVATIONS = ("relu", "sigmoid")   # named alike in autodiff and kernels
BATCH_ROWS = 64
DEFAULT_LR = 1e-3                   # Adam step size of every model family


class ParamSet:
    """Named parameter tensors plus Adam moments and a step counter.

    Each moment is one flat buffer over all tensors, in the order of values;
    m and v map each name to its view of that buffer.
    """

    def __init__(self, values: dict[str, np.ndarray]):
        self.values = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        self._m = np.zeros(sum(v.size for v in self.values.values()))
        self._v = np.zeros_like(self._m)
        self.m = self._views(self._m)
        self.v = self._views(self._v)
        self.t = 0

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's view of a flat array laid out in the order of values."""
        views, start = {}, 0
        for k, v in self.values.items():
            views[k] = flat[start:start + v.size].reshape(v.shape)
            start += v.size
        return views

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.values.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, v in values.items():
            if k not in self.values or self.values[k].shape != v.shape:
                raise ShapeMismatch(f"parameter {k!r} shape mismatch on load")
            self.values[k] = np.asarray(v, dtype=np.float64).copy()

    def as_vars(self) -> dict[str, Var]:
        return {k: Var(v) for k, v in self.values.items()}


def _adam(x: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int,
          lr: float, beta1: float, beta2: float, eps: float) -> np.ndarray:
    """One Adam step of x, as a new array; the moments m and v are updated in
    place.  Elementwise only."""
    tmp = np.multiply(g, 1 - beta1)
    m *= beta1
    m += tmp
    np.multiply(g, 1 - beta2, out=tmp)
    tmp *= g
    v *= beta2
    v += tmp
    step = np.divide(m, 1 - beta1 ** t)               # m_hat
    step *= lr
    denom = np.divide(v, 1 - beta2 ** t, out=tmp)    # v_hat
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    return np.subtract(x, step, out=step)


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard Adam update with bias correction of every parameter, in place.

    grads holds one gradient per parameter; a missing or None one, an
    unknown name or a shape other than its parameter's is a ShapeMismatch
    naming it.  The moments are updated in their own arrays, in one pass
    over the flat buffers.  Each value array is replaced, not written, since
    ParamSet may share it with its caller: the values become views of one
    new array.
    """
    for name, g in grads.items():
        if name not in params.values:
            raise ShapeMismatch(f"gradient for unknown parameter {name!r}")
    for name, value in params.values.items():
        g = grads.get(name)
        if g is None:
            raise ShapeMismatch(f"no gradient for parameter {name!r}")
        if g.shape != value.shape:
            raise ShapeMismatch(f"gradient shape mismatch for {name!r}")
    params.t += 1
    x, g = (np.concatenate([d[k].ravel() for k in params.values])
            for d in (params.values, grads))
    params.values.update(params._views(_adam(x, params._m, params._v, g, params.t, lr,
                                             beta1, beta2, eps)))


def fit(params: ParamSet, n: int,
        batch_loss: Callable[[np.ndarray, dict[str, Var], np.random.Generator], Var],
        epochs: int, lr: float, seed: int, batch_size: int,
        val_loss: Callable[[], float] | None = None
        ) -> tuple[list[float], list[float], float]:
    """Minibatch Adam over n samples; returns (train losses, val losses, best val).

    Each epoch draws a permutation from the seeded rng and steps once per
    batch of indices; batch_loss(idx, pvars, rng) builds the batch's mean loss
    and may draw further numbers from the same rng.  With val_loss, the
    parameters of the epoch with the lowest validation loss are restored;
    without it the last epoch's are kept.  epochs must be at least 1, and
    lr a positive finite number.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be at least 1, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"learning rate must be a positive finite number, got {lr}")
    rng = np.random.default_rng(seed)
    train_losses, val_losses = [], []
    best_val, best_values = np.inf, params.copy_values()
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            pvars = params.as_vars()
            loss = batch_loss(idx, pvars, rng)
            ad.backward(loss)
            adam_step(params, {k: v.grad for k, v in pvars.items()}, lr)
            epoch_loss += float(loss.value) * idx.size
        train_losses.append(epoch_loss / n)
        if val_loss is not None:
            val = val_loss()
            val_losses.append(val)
            if val < best_val:
                best_val, best_values = val, params.copy_values()
    if val_loss is not None:
        params.load_values(best_values)
    return train_losses, val_losses, best_val


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def param_shapes(layers: list[dict], prefix: str = "") -> dict[str, tuple[int, ...]]:
    """The shape of every tensor init_params makes, by name, in its order:
    dense W (out, in), conv and deconv W (k, cin, cout), each bias (out,)."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, layer in enumerate(layers):
        kind = layer["type"]
        name = f"{prefix}layer{i}"
        if kind == "dense":
            shapes[f"{name}.W"] = (layer["out"], layer["in"])
            shapes[f"{name}.b"] = (layer["out"],)
        elif kind in ("conv", "deconv"):
            shapes[f"{name}.W"] = (layer["k"], layer["cin"], layer["cout"])
            shapes[f"{name}.b"] = (layer["cout"],)
    return shapes


def init_params(layers: list[dict], seed: int, prefix: str = "") -> dict[str, np.ndarray]:
    """Deterministic glorot-uniform weights, zero biases, one entry per trainable layer."""
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(layers, prefix).items():
        if name.endswith(".b"):
            values[name] = np.zeros(shape)
        elif len(shape) == 2:                           # dense (out, in)
            values[name] = _glorot(rng, shape, shape[1], shape[0])
        else:                                           # (k, cin, cout)
            k, cin, cout = shape
            values[name] = _glorot(rng, shape, k * cin, k * cout)
    return values


def forward_layers(layers: list[dict], params: dict, x: np.ndarray | Var,
                   prefix: str = "") -> np.ndarray | Var:
    """Run the descriptor's layer stack on x.

    An ndarray x with ndarray params runs the numpy kernels and returns an
    array (inference, no tape); a Var x with Var params builds the autodiff
    graph and returns a Var.  Both routes compute identical values.
    """
    ops = ad if isinstance(x, Var) else kernels
    h = x
    for i, layer in enumerate(layers):
        kind = layer["type"]
        name = f"{prefix}layer{i}"
        if kind == "dense":
            h = ops.dense(h, params[f"{name}.W"], params[f"{name}.b"])
        elif kind == "conv":
            if len(h.shape) == 2:   # an (N, L) signal is one channel
                h = ops.reshape(h, (*h.shape, 1))
            h = ops.conv1d(h, params[f"{name}.W"], params[f"{name}.b"],
                           stride=layer.get("stride", 1))
        elif kind == "deconv":
            h = ops.conv_transpose1d(h, params[f"{name}.W"], params[f"{name}.b"],
                                     stride=layer.get("stride", 2),
                                     out_len=layer["out_len"])
        elif kind == "pool":
            h = ops.maxpool1d(h)
        elif kind == "flatten":
            h = ops.reshape(h, (h.shape[0], -1))
        elif kind == "reshape":
            h = ops.reshape(h, (h.shape[0], layer["len"], layer["ch"]))
        else:
            raise ShapeMismatch(f"unknown layer type {kind!r}")
        act = layer.get("act")
        if act is not None:
            if act not in ACTIVATIONS:
                raise ShapeMismatch(f"unknown activation {act!r}")
            h = getattr(ops, act)(h)
    return h


def by_rows(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """fn over consecutive BATCH_ROWS-row slices of x, results concatenated.

    Up to BATCH_ROWS rows, fn gets x itself: one call, no copy.
    """
    if len(x) <= BATCH_ROWS:
        return fn(x)
    return np.concatenate([fn(x[i:i + BATCH_ROWS])
                           for i in range(0, len(x), BATCH_ROWS)])


# the positive integer fields each layer type needs; "stride" may be given too
_LAYER_FIELDS = {"dense": ("in", "out"), "conv": ("k", "cin", "cout"),
                 "deconv": ("k", "cin", "cout", "out_len"), "pool": (), "flatten": (),
                 "reshape": ("len", "ch")}


def shape_trace(layers: list[dict], input_shape) -> list[tuple]:
    """Propagate (length, channels) / (features,) shapes through a descriptor.

    Each layer must fit what it receives, as forward_layers runs it: a dense
    `in` equals the features it receives, a conv `cin` the channels (a
    (features,) input is one channel), a deconv `cin` the channels and its
    input length the length a conv at its stride makes of `out_len`, a
    reshape the element count.  A layer that does not fit, or that lacks a
    field or has an unknown type or activation, is a ShapeMismatch naming it.
    """
    shape = tuple(input_shape)
    trace = [shape]
    for i, layer in enumerate(layers):
        kind = layer.get("type")
        if not isinstance(kind, str) or kind not in _LAYER_FIELDS:
            raise ShapeMismatch(f"layer {i}: unknown layer type {kind!r}")

        def mismatch(problem: str) -> ShapeMismatch:
            return ShapeMismatch(f"layer {i} ({kind}): {problem}")

        for key in _LAYER_FIELDS[kind] + (("stride",) if "stride" in layer else ()):
            value = layer.get(key)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
                raise mismatch(f"{key} must be a positive integer, got {value!r}")
        if layer.get("act") not in (None, *ACTIVATIONS):
            raise mismatch(f"unknown activation {layer['act']!r}")
        if kind == "dense":
            if shape != (layer["in"],):
                raise mismatch(f"in is {layer['in']}, receives {list(shape)}")
            shape = (layer["out"],)
        elif kind in ("conv", "deconv"):
            if kind == "conv" and len(shape) == 1:
                shape = (shape[0], 1)
            if len(shape) != 2 or shape[1] != layer["cin"]:
                raise mismatch(f"cin is {layer['cin']}, receives {list(shape)}")
            if kind == "conv":
                shape = (-(-shape[0] // layer.get("stride", 1)), layer["cout"])
            else:
                stride = layer.get("stride", 2)
                if kernels.conv_geometry(layer["out_len"], layer["k"], stride)[0] != shape[0]:
                    raise mismatch(f"out_len {layer['out_len']} at stride {stride} does "
                                   f"not come from input length {shape[0]}")
                shape = (layer["out_len"], layer["cout"])
        elif kind == "pool":
            if len(shape) != 2:
                raise mismatch(f"needs (length, channels), receives {list(shape)}")
            shape = (shape[0] // 2, shape[1])
        elif kind == "flatten":
            shape = (math.prod(shape),)
        elif kind == "reshape":
            if math.prod(shape) != layer["len"] * layer["ch"]:
                raise mismatch(f"len {layer['len']} x ch {layer['ch']} from {list(shape)}")
            shape = (layer["len"], layer["ch"])
        trace.append(shape)
    return trace


def check_shape(key: str, t: np.ndarray, shape: tuple) -> None:
    """An InvalidField naming the tensor key unless t has shape (None: any
    size along that axis)."""
    if t.ndim != len(shape) or any(want not in (None, got)
                                   for want, got in zip(shape, t.shape)):
        expected = ", ".join("n" if want is None else str(want) for want in shape)
        raise InvalidField(f"{key} has shape {list(t.shape)}, expected [{expected}]")


def check_layers(key: str, layers: list[dict], input_shape: tuple, output_shape: tuple,
                 params: ParamSet, prefix: str = "") -> None:
    """An InvalidField naming the field unless the descriptor at key maps one
    row of input_shape to output_shape, every layer fitting what it
    receives, and params holds each tensor init_params makes for it under
    prefix, in the shape it makes."""
    try:
        out = shape_trace(layers, input_shape)[-1]
    except ShapeMismatch as exc:
        raise InvalidField(f"{key} {exc}") from None
    if out != output_shape:
        raise InvalidField(f"{key} maps {list(input_shape)} to {list(out)}, "
                           f"expected {list(output_shape)}")
    for name, shape in param_shapes(layers, prefix).items():
        if name not in params.values:
            raise InvalidField(f"params.{name} is required")
        check_shape(f"params.{name}", params.values[name], shape)


def receptive_field(layers: list[dict]) -> int:
    """Receptive field of one unit in the last conv layer, by the standard recursion."""
    rf, jump = 1, 1
    last_conv_rf = None
    for layer in layers:
        kind = layer["type"]
        if kind == "conv":
            stride = layer.get("stride", 1)
            rf += (layer["k"] - 1) * jump
            jump *= stride
            last_conv_rf = rf
        elif kind == "pool":
            rf += 1 * jump
            jump *= 2
        elif kind in ("dense", "flatten"):
            break
    if last_conv_rf is None:
        raise ValidationError("architecture has no convolutional layers")
    return last_conv_rf

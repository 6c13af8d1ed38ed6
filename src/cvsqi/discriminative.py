"""Discriminative quality classifiers: LR, two MLPs, and three VGG16 variants.

All map a normalized 150-sample cycle to a probability that the cycle is
motion-free.  Training minimizes a class-weighted cross-entropy with soft
targets (ambiguous cycles carry target 0.25) and keeps the parameters from the
epoch with the best validation AUC.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ShapeMismatch, SingleClassDataset, ValidationError
from .evaluation import roc_auc
from .nn import (BATCH_ROWS, ParamSet, by_rows, check_layers, fit,
                 forward_layers, init_params)
from .preprocess import TARGET_LEN

CLIP_EPS = 1e-12

ARCHITECTURES = ("lr", "mlp1", "mlp2", "vgg3", "vgg4", "vgg5")
DEFAULT_EPOCHS = 25
ACCEPT_PROBABILITY = 0.5   # a cycle is accepted at forward(...) >= this

_VGG_BLOCK_CHANNELS = (4, 8, 16, 32)   # conv-conv-pool blocks
_VGG5_TAIL_CHANNELS = 64               # conv-conv before flatten


def _mlp_descriptor(dims: list[int]) -> list[dict]:
    layers = []
    for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        act = "sigmoid" if i == len(dims) - 2 else "relu"
        layers.append({"type": "dense", "in": fi, "out": fo, "act": act})
    return layers


def _vgg_descriptor(n_blocks: int) -> list[dict]:
    layers: list[dict] = []
    cin = 1
    length = TARGET_LEN
    for b in range(min(n_blocks, 4)):
        cout = _VGG_BLOCK_CHANNELS[b]
        layers.append({"type": "conv", "k": 3, "cin": cin, "cout": cout, "act": "relu"})
        layers.append({"type": "conv", "k": 3, "cin": cout, "cout": cout, "act": "relu"})
        layers.append({"type": "pool"})
        cin = cout
        length //= 2
    if n_blocks == 5:
        cout = _VGG5_TAIL_CHANNELS
        layers.append({"type": "conv", "k": 3, "cin": cin, "cout": cout, "act": "relu"})
        layers.append({"type": "conv", "k": 3, "cin": cout, "cout": cout, "act": "relu"})
        cin = cout
    layers.append({"type": "flatten"})
    flat = length * cin
    layers.append({"type": "dense", "in": flat, "out": flat, "act": "relu"})
    layers.append({"type": "dense", "in": flat, "out": 1, "act": "sigmoid"})
    return layers


def architecture_descriptor(name: str) -> list[dict]:
    if name == "lr":
        return [{"type": "dense", "in": TARGET_LEN, "out": 1, "act": "sigmoid"}]
    if name == "mlp1":
        return _mlp_descriptor([TARGET_LEN, 150, 300, 300, 150, 150, 150, 1])
    if name == "mlp2":
        return _mlp_descriptor([TARGET_LEN, 150, 150, 100, 50, 25, 10, 1])
    if name in ("vgg3", "vgg4", "vgg5"):
        return _vgg_descriptor(int(name[-1]))
    raise ShapeMismatch(f"unknown architecture {name!r}")


@dataclass(kw_only=True)
class DiscriminativeModel:
    """A classifier: its fields, under their JSON keys, are its model file's payload."""

    family = "discriminative"                # the payload's first key; not a field
    architecture: Literal[ARCHITECTURES]
    descriptor: list[dict]                   # maps a (150,) cycle to (1,)
    seed: int
    params: ParamSet                         # the shapes init_params gives them
    training_meta: dict = field(default_factory=dict, metadata={"json": "training"})

    def __post_init__(self):
        check_layers("descriptor", self.descriptor, (TARGET_LEN,), (1,), self.params)

    @property
    def name(self) -> str:
        return self.architecture

    def score(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p, verdict) per row of normalized cycles: p is forward's
        probability, and verdict 1 (normal) iff p >= ACCEPT_PROBABILITY."""
        p = forward(self, x)
        return p, (p >= ACCEPT_PROBABILITY).astype(int)


def build(architecture: str, seed: int) -> DiscriminativeModel:
    desc = architecture_descriptor(architecture)
    return DiscriminativeModel(architecture=architecture, descriptor=desc,
                               params=ParamSet(init_params(desc, seed)), seed=seed)


def _require_cycles(x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != TARGET_LEN:
        raise ShapeMismatch(f"expected (N, {TARGET_LEN}) input, got {x.shape}")


def _forward_var(model: DiscriminativeModel, x: np.ndarray,
                 params: dict[str, Var]) -> Var:
    """The taped forward pass that training differentiates."""
    _require_cycles(x)
    out = forward_layers(model.descriptor, params, Var(x))
    return ad.reshape(out, (x.shape[0],))


def forward(model: DiscriminativeModel, x: np.ndarray) -> np.ndarray:
    """Probabilities in (0, 1) for a batch of normalized cycles (N, 150).

    Inference runs the numpy kernels in BATCH_ROWS-row chunks and records no
    tape.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _require_cycles(x)
    params = model.params.values
    return by_rows(lambda c: forward_layers(model.descriptor, params, c).reshape(len(c)),
                   x)


@dataclass(frozen=True)
class ClassWeights:
    zeta_pos: float
    zeta_neg: float

    def __post_init__(self):
        if self.zeta_pos <= 0 or self.zeta_neg <= 0:
            raise SingleClassDataset("class weights must be positive")


def _weighted_ce_loss(pred: Var, y: np.ndarray, weights: ClassWeights) -> Var:
    p = ad.clip(pred, CLIP_EPS, 1.0 - CLIP_EPS)
    pos = ad.scale(ad.mul(Var(y), ad.log(p)), -weights.zeta_pos)
    neg = ad.scale(ad.mul(Var(1.0 - y), ad.log(ad.sub(Var(np.ones_like(y)), p))),
                   -weights.zeta_neg)
    return ad.mean(ad.add(pos, neg))


def compute_class_weights(train_values: np.ndarray) -> ClassWeights:
    """Inverse-frequency weights; ambiguous samples contribute fractional mass.

    A sample with soft target y counts y toward the positive mass and 1 - y
    toward the negative mass; each class is weighted by the opposite class's
    fraction so the minority is upweighted.
    """
    y = np.asarray(train_values, dtype=np.float64)
    if y.size == 0:
        raise ValidationError("no training labels")
    pos_eff = float(y.sum())
    neg_eff = float((1.0 - y).sum())
    if pos_eff == 0.0 or neg_eff == 0.0:
        raise SingleClassDataset("training labels contain a single class")
    n = float(y.size)
    return ClassWeights(zeta_pos=neg_eff / n, zeta_neg=pos_eff / n)


def train(model: DiscriminativeModel, x_train: np.ndarray, y_train: np.ndarray,
          x_val: np.ndarray, y_val_eval: np.ndarray, epochs: int, lr: float,
          batch_size: int = BATCH_ROWS, seed: int = 0) -> dict:
    """Train in place; restore the epoch with the best validation AUC.

    y_train holds soft train targets; y_val_eval holds hard {0, 1} eval labels.
    Deterministic under (model params, seed).
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValidationError("train and validation sets must be non-empty")
    weights = compute_class_weights(y_train)

    def batch_loss(idx, pvars, rng):
        return _weighted_ce_loss(_forward_var(model, x_train[idx], pvars),
                                 y_train[idx], weights)

    def val_loss():
        try:
            return -roc_auc(forward(model, x_val), y_val_eval)[1]
        except SingleClassDataset:
            return -0.5

    train_loss, neg_aucs, best = fit(model.params, x_train.shape[0], batch_loss,
                                     epochs, lr, seed, batch_size, val_loss)
    model.training_meta = {"epochs": epochs, "lr": lr, "batch_size": batch_size,
                           "seed": seed, "best_val_auc": -best,
                           "zeta_pos": weights.zeta_pos, "zeta_neg": weights.zeta_neg}
    return {"train_loss": train_loss, "val_auc": [-v for v in neg_aucs]}

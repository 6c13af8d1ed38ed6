"""Manifold-learning quality models: PCA and (convolutional) (beta-)VAEs.

These learn only from motion-free cycles.  A cycle is scored by the Euclidean
residual between itself and its reconstruction; the accept/reject threshold is
picked by maximizing Youden's J over residuals from the train+val pool.

Every decision about a manifold model of any kind lives here, and the CLI and
the experiment runners call it: train_kind fits one (positives only, for
every kind), set_threshold picks and stores d, and each model's score
(ManifoldModel's, shared by PcaModel and VaeModel) applies the one verdict
rule r <= d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import InvalidField, ShapeMismatch, SingleClassDataset, ValidationError
from .nn import (BATCH_ROWS, DEFAULT_LR, ParamSet, by_rows, check_layers, check_shape,
                 fit, forward_layers, init_params)
from .preprocess import TARGET_LEN

LATENT_DIM = 10

VAE_KINDS = ("vae", "bvae", "cvae", "bcvae")
MANIFOLD_KINDS = ("pca",) + VAE_KINDS
DEFAULT_BETA = {"vae": 1.0, "bvae": 0.5, "cvae": 1.0, "bcvae": 0.5}
DEFAULT_EPOCHS = 40


class ManifoldModel:
    """The verdict rule of every manifold model; it has no fields, so each
    subclass's own fields keep their order in the model file."""

    family = "manifold"                      # the payload's first key; not a field

    @property
    def name(self) -> str:
        return self.kind

    def score(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(-residual, verdict) per row; verdict 1 (normal) iff residual <= threshold_d."""
        if self.threshold_d is None:
            raise ValidationError("manifold model has no threshold; run `threshold` first")
        r = residuals(self, x)
        return -r, (r <= self.threshold_d).astype(int)


# --- PCA ---

@dataclass(kw_only=True)
class PcaModel(ManifoldModel):
    """A PCA model: its fields, under their JSON keys, are its model file's payload."""

    kind: Literal["pca"] = "pca"
    mean: np.ndarray                         # (150,)
    components: np.ndarray                   # (10, 150), orthonormal rows
    threshold_d: float | None = field(default=None, metadata={"json": "threshold"})
    training_meta: dict = field(default_factory=dict, metadata={"json": "training"})

    def __post_init__(self):
        check_shape("mean", self.mean, (TARGET_LEN,))
        check_shape("components", self.components, (None, TARGET_LEN))


def pca_fit(x_pos: np.ndarray, k: int = LATENT_DIM) -> PcaModel:
    """Top-k principal directions of the positive cycles, via SVD of centered data."""
    x = np.asarray(x_pos, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"pca_fit expects (N, {TARGET_LEN})")
    if x.shape[0] < k:
        raise ValidationError(f"need at least {k} samples, got {x.shape[0]}")
    mean = x.mean(axis=0)
    _, _, vt = np.linalg.svd(x - mean, full_matrices=False)
    return PcaModel(mean=mean, components=vt[:k].copy())


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Reconstruction: mean + projection onto the principal subspace."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - model.mean
    z = centered @ model.components.T
    return model.mean + z @ model.components


# --- VAE ---

def _mlp_vae_descriptors() -> tuple[list[dict], list[dict]]:
    enc = [
        {"type": "dense", "in": TARGET_LEN, "out": 125, "act": "relu"},
        {"type": "dense", "in": 125, "out": 75, "act": "relu"},
        {"type": "dense", "in": 75, "out": 50, "act": "relu"},
        {"type": "dense", "in": 50, "out": 2 * LATENT_DIM},
    ]
    dec = [
        {"type": "dense", "in": LATENT_DIM, "out": 50, "act": "relu"},
        {"type": "dense", "in": 50, "out": 75, "act": "relu"},
        {"type": "dense", "in": 75, "out": 125, "act": "relu"},
        {"type": "dense", "in": 125, "out": TARGET_LEN},
    ]
    return enc, dec


def _conv_vae_descriptors() -> tuple[list[dict], list[dict]]:
    enc = [
        {"type": "conv", "k": 3, "cin": 1, "cout": 8, "stride": 2, "act": "relu"},
        {"type": "conv", "k": 3, "cin": 8, "cout": 16, "stride": 2, "act": "relu"},
        {"type": "conv", "k": 3, "cin": 16, "cout": 24, "stride": 2, "act": "relu"},
        {"type": "conv", "k": 3, "cin": 24, "cout": 32, "stride": 2, "act": "relu"},
        {"type": "flatten"},
        {"type": "dense", "in": 320, "out": 2 * LATENT_DIM},
    ]
    dec = [
        {"type": "dense", "in": LATENT_DIM, "out": 320},
        {"type": "reshape", "len": 10, "ch": 32},
        {"type": "deconv", "k": 3, "cin": 32, "cout": 24, "stride": 2, "out_len": 19, "act": "relu"},
        {"type": "deconv", "k": 3, "cin": 24, "cout": 16, "stride": 2, "out_len": 38, "act": "relu"},
        {"type": "deconv", "k": 3, "cin": 16, "cout": 8, "stride": 2, "out_len": 75, "act": "relu"},
        {"type": "deconv", "k": 3, "cin": 8, "cout": 8, "stride": 2, "out_len": TARGET_LEN,
         "act": "relu"},
        {"type": "conv", "k": 1, "cin": 8, "cout": 1, "act": "relu"},
        {"type": "flatten"},
        {"type": "dense", "in": TARGET_LEN, "out": TARGET_LEN},
    ]
    return enc, dec


def vae_descriptors(kind: str) -> tuple[list[dict], list[dict]]:
    if kind in ("vae", "bvae"):
        return _mlp_vae_descriptors()
    if kind in ("cvae", "bcvae"):
        return _conv_vae_descriptors()
    raise ShapeMismatch(f"unknown VAE kind {kind!r}")


@dataclass(kw_only=True)
class VaeModel(ManifoldModel):
    """A VAE: its fields, under their JSON keys, are its model file's payload."""

    kind: Literal[VAE_KINDS]
    beta: float                              # the KL weight, positive and finite
    enc: list[dict] = field(metadata={"json": "encoder"})    # (150,) to (20,)
    dec: list[dict] = field(metadata={"json": "decoder"})    # (10,) to (150,)
    seed: int
    params: ParamSet                         # the shapes init_params gives them
    threshold_d: float | None = field(default=None, metadata={"json": "threshold"})
    training_meta: dict = field(default_factory=dict, metadata={"json": "training"})
    train_audit: dict = field(default_factory=dict, metadata={"json": "audit"})

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise InvalidField(f"beta must be a positive finite number, got {self.beta}")
        check_layers("encoder", self.enc, (TARGET_LEN,), (2 * LATENT_DIM,), self.params,
                     "enc.")
        check_layers("decoder", self.dec, (LATENT_DIM,), (TARGET_LEN,), self.params, "dec.")


def build_vae(kind: str, seed: int, beta: float | None = None) -> VaeModel:
    """An untrained VAE of kind; beta None is the kind's DEFAULT_BETA, and
    any other must be a positive finite KL weight."""
    enc, dec = vae_descriptors(kind)
    beta = DEFAULT_BETA[kind] if beta is None else beta
    values = {**init_params(enc, seed, prefix="enc."),
              **init_params(dec, seed + 1, prefix="dec.")}
    return VaeModel(kind=kind, beta=beta, enc=enc, dec=dec, params=ParamSet(values),
                    seed=seed)


def vae_forward(model: VaeModel, x: np.ndarray):
    """Reconstruction plus (mu, sigma, z) with z = mu, computed with no tape.

    The sigma head is parameterized as exp(log sigma) so sigma stays positive.
    It runs x as one batch; residuals and the validation loss call it on
    BATCH_ROWS-row chunks.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != TARGET_LEN:
        raise ShapeMismatch(f"expected (N, {TARGET_LEN}), got {x.shape}")
    params = model.params.values
    h = forward_layers(model.enc, params, x, prefix="enc.")
    mu, log_sigma = h[:, :LATENT_DIM], h[:, LATENT_DIM:2 * LATENT_DIM]
    recon = forward_layers(model.dec, params, mu, prefix="dec.")
    return recon, mu, np.exp(log_sigma), mu


def _vae_loss(model: VaeModel, x: np.ndarray, params: dict[str, Var],
              noise: np.ndarray) -> Var:
    """Mean over the batch of squared reconstruction norm + beta * KL."""
    n = x.shape[0]
    h = forward_layers(model.enc, params, Var(x), prefix="enc.")
    mu = ad.slice_cols(h, 0, LATENT_DIM)
    log_sigma = ad.slice_cols(h, LATENT_DIM, 2 * LATENT_DIM)
    z = ad.add(mu, ad.mul(ad.exp(log_sigma), Var(noise)))
    recon = forward_layers(model.dec, params, z, prefix="dec.")
    sq = ad.sum_(ad.square(ad.sub(recon, Var(x))))
    # KL(N(mu, sigma^2) || N(0, I)) = 1/2 sum(mu^2 + sigma^2 - log sigma^2 - 1),
    # with sigma^2 = exp(2 log sigma)
    kl = ad.scale(ad.sum_(ad.add(ad.sub(ad.add(ad.square(mu),
                                               ad.exp(ad.scale(log_sigma, 2.0))),
                                        ad.scale(log_sigma, 2.0)),
                                 Var(-np.ones((n, LATENT_DIM))))), 0.5)
    return ad.scale(ad.add(sq, ad.scale(kl, model.beta)), 1.0 / n)


def require_positives(eval_labels: np.ndarray) -> None:
    """Manifold models learn from normal cycles only; anything else is an error."""
    n_neg = int(np.sum(np.asarray(eval_labels) != 1))
    if n_neg:
        raise ValidationError(f"{n_neg} non-positive samples in manifold training set")


def vae_train(model: VaeModel, x_pos: np.ndarray, eval_labels: np.ndarray,
              epochs: int, lr: float, seed: int = 0, batch_size: int = BATCH_ROWS,
              x_val_pos: np.ndarray | None = None) -> dict:
    """Train on positive cycles only; negatives in the input are a hard error.

    Model selection keeps the epoch with the best validation reconstruction
    loss when validation positives are supplied.  train_audit records how many
    negative samples entered gradient updates (always 0 by construction).
    """
    x_pos = np.asarray(x_pos, dtype=np.float64)
    labels = np.asarray(eval_labels, dtype=np.int64)
    if x_pos.shape[0] == 0:
        raise ValidationError("no positive training samples")
    if labels.shape[0] != x_pos.shape[0]:
        raise ShapeMismatch("labels must align with training samples")
    require_positives(labels)

    audit = {"negatives_in_updates": 0, "updates": 0, "samples_seen": 0}

    def batch_loss(idx, pvars, rng):
        noise = rng.standard_normal((idx.size, LATENT_DIM))
        audit["updates"] += 1
        audit["samples_seen"] += int(idx.size)
        audit["negatives_in_updates"] += int(np.sum(labels[idx] != 1))
        return _vae_loss(model, x_pos[idx], pvars, noise)

    def val_loss():
        sq = by_rows(lambda c: np.sum((vae_forward(model, c)[0] - c) ** 2, axis=1),
                     x_val_pos)
        return float(np.mean(sq))

    train_loss, val_recon, _ = fit(
        model.params, x_pos.shape[0], batch_loss, epochs, lr, seed, batch_size,
        val_loss if x_val_pos is not None and len(x_val_pos) else None)
    model.train_audit = audit
    model.training_meta = {"epochs": epochs, "lr": lr, "batch_size": batch_size,
                           "seed": seed, "beta": model.beta}
    return {"train_loss": train_loss, "val_recon": val_recon}


def train_kind(kind: str, x_pos: np.ndarray, eval_labels: np.ndarray, *,
               beta: float | None = None, epochs: int = DEFAULT_EPOCHS,
               lr: float = DEFAULT_LR, seed: int = 0,
               x_val_pos: np.ndarray | None = None):
    """(model, history) of a manifold model of any kind fit on positive cycles.

    A non-positive label is an error for every kind, before any fit or
    update.  PCA has no epochs and an empty history; a VAE is built from
    (kind, seed, beta) and trained by vae_train.
    """
    require_positives(eval_labels)
    if kind == "pca":
        model = pca_fit(x_pos)
        model.training_meta = {"n_train": len(x_pos)}
        return model, {}
    model = build_vae(kind, seed=seed, beta=beta)
    history = vae_train(model, x_pos, eval_labels, epochs=epochs, lr=lr, seed=seed,
                        x_val_pos=x_val_pos)
    return model, history


# --- scoring ---

def residuals(model, x: np.ndarray) -> np.ndarray:
    """Euclidean reconstruction distances for a batch, inference mode.

    Each BATCH_ROWS-row chunk is reconstructed (PCA projection, or VAE
    encoder and decoder), subtracted and normed before the next starts, so
    no temporary grows with the batch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))

    def chunk_residuals(c):
        recon = (pca_project(model, c) if isinstance(model, PcaModel)
                 else vae_forward(model, c)[0])
        return np.linalg.norm(c - recon, axis=1)

    return by_rows(chunk_residuals, x)


def select_threshold(scores: np.ndarray, eval_labels: np.ndarray) -> tuple[float, float]:
    """Threshold d maximizing J = sensitivity + specificity - 1 for rule r <= d.

    Candidates are midpoints between consecutive distinct residuals plus
    sentinels below the minimum and at +inf; ties break toward smaller d.
    """
    r = np.asarray(scores, dtype=np.float64)
    y = np.asarray(eval_labels, dtype=np.int64)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassDataset("threshold selection needs both classes")

    distinct = np.unique(r)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    low = distinct[0] / 2.0 if distinct[0] > 0 else -np.inf
    candidates = np.concatenate([[low], mids, distinct[-1:], [np.inf]])

    # accepted positives / rejected negatives at every candidate, by counting
    tp = np.searchsorted(np.sort(r[y == 1]), candidates, side="right")
    tn = n_neg - np.searchsorted(np.sort(r[y == 0]), candidates, side="right")
    js = tp / n_pos + tn / n_neg - 1.0

    best_d, best_j = candidates[0], -np.inf
    for d, j in zip(candidates.tolist(), js.tolist()):
        if j > best_j + 1e-15:
            best_j, best_d = j, d
    return float(max(best_d, 0.0)), float(best_j)


def set_threshold(model, x: np.ndarray, eval_labels: np.ndarray) -> tuple[float, float]:
    """(d, J) by Youden's J over the model's residuals on x; d is stored on the model."""
    d, j = select_threshold(residuals(model, x), eval_labels)
    model.threshold_d = d
    return d, j


def assess(model, x: np.ndarray) -> int:
    """model.score's verdict for one cycle x."""
    return int(model.score(x)[1][0])

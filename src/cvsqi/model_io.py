"""Versioned model artifacts: JSON with base64 float64 tensors and a checksum.

An artifact records the architecture descriptor, the preprocessing
configuration it was trained under (size scheme + scale mode), the parameters,
training metadata, and (for manifold models) the selected threshold.  Loading
verifies the format version and a SHA-256 checksum over the canonical payload,
then reads the payload field by field into a Scorer.
"""
from __future__ import annotations

import base64
import hashlib
import json
import sys
from typing import NamedTuple

import numpy as np

from . import experiment
from .discriminative import ARCHITECTURES, DiscriminativeModel
from .errors import IoError, ShapeMismatch, ValidationError
from .manifold import LATENT_DIM, MANIFOLD_KINDS, PcaModel, VaeModel
from .nn import ParamSet, param_shapes, shape_trace
from .preprocess import SCALE_MODES, SCHEMES, TARGET_LEN, normalize_dataset

FORMAT_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_artifact(model, norm_scheme: str, scale_mode: str) -> dict:
    if isinstance(model, DiscriminativeModel):
        payload = {
            "family": "discriminative",
            "architecture": model.architecture,
            "descriptor": model.descriptor,
            "seed": model.seed,
            "params": {k: _encode_array(v) for k, v in model.params.values.items()},
            "training": model.training_meta,
        }
    elif isinstance(model, VaeModel):
        payload = {
            "family": "manifold",
            "kind": model.kind,
            "beta": model.beta,
            "encoder": model.enc,
            "decoder": model.dec,
            "seed": model.seed,
            "params": {k: _encode_array(v) for k, v in model.params.values.items()},
            "threshold": model.threshold_d,
            "training": model.training_meta,
            "audit": model.train_audit,
        }
    elif isinstance(model, PcaModel):
        payload = {
            "family": "manifold",
            "kind": "pca",
            "mean": _encode_array(model.mean),
            "components": _encode_array(model.components),
            "threshold": model.threshold_d,
            "training": model.training_meta,
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload["preprocessing"] = {"norm_scheme": norm_scheme, "scale_mode": scale_mode}
    return payload


def save_model(model, path: str, norm_scheme: str, scale_mode: str) -> None:
    payload = model_artifact(model, norm_scheme, scale_mode)
    doc = {"format_version": FORMAT_VERSION, "payload": payload,
           "checksum": _checksum(payload)}
    from .dataio import atomic_write
    atomic_write(path, [json.dumps(doc, indent=1)])




class Scorer(NamedTuple):
    """A model file's model and its preprocessing {"norm_scheme", "scale_mode"}:
    the one path from cycles to verdicts for every command that loads one."""

    model: DiscriminativeModel | PcaModel | VaeModel
    preprocessing: dict

    @property
    def name(self) -> str:
        """The classifier's architecture, or the manifold model's kind."""
        model = self.model
        return model.architecture if isinstance(model, DiscriminativeModel) else model.kind

    def normalize(self, cycles, calibrations=None):
        """normalize_dataset's (x, y_train, y_eval) under the recorded preprocessing."""
        return normalize_dataset(cycles, self.preprocessing["norm_scheme"],
                                 self.preprocessing["scale_mode"], calibrations)

    def score(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(score, verdict) per row of normalized cycles, by experiment.score."""
        return experiment.score(self.model, x)


_REQUIRED = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)                   # not NaN or inf


class _Fields:
    """Typed reads of one JSON object; a missing or ill-formed field is a
    ValidationError naming it."""

    def __init__(self, obj, name: str):
        if not isinstance(obj, dict):
            raise ValidationError(f"{name} must be an object, got {obj!r:.60}")
        self.obj, self.name = obj, name

    def get(self, key: str, ok=None, what: str = "", default=_REQUIRED):
        if key not in self.obj:
            if default is _REQUIRED:
                raise ValidationError(f"{self.name}.{key} is required")
            return default
        value = self.obj[key]
        if ok is not None and not ok(value):
            raise ValidationError(f"{self.name}.{key} must be {what}, got {value!r:.60}")
        return value

    def choice(self, key: str, options: tuple[str, ...]) -> str:
        return self.get(key, lambda v: isinstance(v, str) and v in options,
                        f"one of {options}")

    def sub(self, key: str) -> "_Fields":
        return _Fields(self.get(key), f"{self.name}.{key}")

    def meta(self, key: str) -> dict:
        return self.get(key, lambda v: isinstance(v, dict), "an object", default={})

    def threshold(self) -> float | None:
        return self.get("threshold", lambda v: v is None or _is_number(v),
                        "null or a finite number", default=None)

    def layers(self, key: str, input_shape: tuple, output_shape: tuple) -> list[dict]:
        """A layer descriptor that maps one row of input_shape to output_shape,
        every layer fitting the shape it receives (nn.shape_trace)."""
        layers = self.get(key, lambda v: isinstance(v, list)
                          and all(isinstance(layer, dict) for layer in v),
                          "a list of layer objects")
        try:
            out = shape_trace(layers, input_shape)[-1]
        except ShapeMismatch as exc:
            raise ValidationError(f"{self.name}.{key} {exc}") from None
        if out != output_shape:
            raise ValidationError(f"{self.name}.{key} maps {list(input_shape)} to "
                                  f"{list(out)}, expected {list(output_shape)}")
        return layers

    def tensor(self, key: str, shape: tuple | None = None) -> np.ndarray:
        """The finite float64 tensor at key; with shape, it must have that
        shape (None: any size along that axis)."""
        d = self.get(key, lambda v: isinstance(v, dict) and isinstance(v.get("data"), str)
                     and isinstance(v.get("shape"), list)
                     and all(_is_int(n) and n >= 0 for n in v["shape"]),
                     "a tensor object")
        try:
            raw = base64.b64decode(d["data"])
            t = np.frombuffer(raw, dtype=np.float64).reshape(d["shape"]).copy()
        except ValueError:      # bad base64, or a byte count that is not the shape's
            raise ValidationError(
                f"{self.name}.{key} does not hold {d['shape']} float64 values") from None
        if shape is not None and (t.ndim != len(shape) or any(
                want not in (None, got) for want, got in zip(shape, t.shape))):
            expected = ", ".join("n" if want is None else str(want) for want in shape)
            raise ValidationError(
                f"{self.name}.{key} has shape {list(t.shape)}, expected [{expected}]")
        if not np.isfinite(t).all():
            raise ValidationError(f"{self.name}.{key} holds NaN or inf")
        return t

    def params(self, *prefixed_layers) -> ParamSet:
        """The tensors in file order; each that nn.init_params makes for a
        (prefix, layers) pair is required, in the shape it makes."""
        params = self.sub("params")
        shapes = {}
        for prefix, layers in prefixed_layers:
            shapes.update(param_shapes(layers, prefix))
        for name in shapes:
            params.get(name)
        return ParamSet({k: params.tensor(k, shapes.get(k)) for k in params.obj})


def load_model(path: str) -> Scorer:
    """The Scorer of a model file.  A wrong format version or checksum is an
    IoError (exit 3); a missing or ill-formed payload field is a
    ValidationError naming it (exit 2), and so is a descriptor layer that
    does not fit the shape it receives, a tensor of another shape than its
    layer's (or, for PCA, than the 150-sample cycle's) and a tensor holding
    NaN or inf."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IoError(f"{path}: not a valid model file ({exc})") from exc
    if not isinstance(doc, dict):
        raise IoError(f"{path}: not a valid model file (no JSON object)")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise IoError(f"{path}: file version {version}, supported version {FORMAT_VERSION}")
    payload = doc.get("payload")
    if payload is None or doc.get("checksum") != _checksum(payload):
        raise IoError(f"{path}: checksum mismatch")

    p = _Fields(payload, f"{path}: payload")
    pre = p.sub("preprocessing")
    prep = {"norm_scheme": pre.choice("norm_scheme", SCHEMES),
            "scale_mode": pre.choice("scale_mode", SCALE_MODES)}
    if p.choice("family", ("discriminative", "manifold")) == "discriminative":
        descriptor = p.layers("descriptor", (TARGET_LEN,), (1,))
        model = DiscriminativeModel(
            architecture=p.choice("architecture", ARCHITECTURES),
            descriptor=descriptor, params=p.params(("", descriptor)),
            seed=p.get("seed", _is_int, "an integer"), training_meta=p.meta("training"))
    elif (kind := p.choice("kind", MANIFOLD_KINDS)) == "pca":
        model = PcaModel(mean=p.tensor("mean", (TARGET_LEN,)),
                         components=p.tensor("components", (None, TARGET_LEN)),
                         threshold_d=p.threshold(), training_meta=p.meta("training"))
    else:
        enc = p.layers("encoder", (TARGET_LEN,), (2 * LATENT_DIM,))
        dec = p.layers("decoder", (LATENT_DIM,), (TARGET_LEN,))
        model = VaeModel(
            kind=kind, beta=p.get("beta", lambda v: _is_number(v) and v > 0,
                                  "a positive finite number"),
            enc=enc, dec=dec, params=p.params(("enc.", enc), ("dec.", dec)),
            seed=p.get("seed", _is_int, "an integer"), threshold_d=p.threshold(),
            training_meta=p.meta("training"), train_audit=p.meta("audit"))
    return Scorer(model, prep)

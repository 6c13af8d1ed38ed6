"""Versioned model files: JSON with base64 float64 tensors and a checksum.

A file's payload is its family, then its model, then the preprocessing it was
trained under (size scheme + scale mode).  The model's dataclass
(DiscriminativeModel, PcaModel or VaeModel) is the one description of its
part, its class attribute family names the family, and _Preprocessing is the
one description of the preprocessing: save_model writes their fields with
forward.to_json, and load_model, after checking the format version and a
SHA-256 checksum over the canonical payload, reads them back through the
same dataclasses with forward.from_json, their own checks included, into a
Scorer.  The model scores itself: model.score(x) is (score, verdict) per
row by its class's rule.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .discriminative import DiscriminativeModel
from .errors import IoError
from .forward import from_json, to_json
from .manifold import MANIFOLD_KINDS, PcaModel, VaeModel
from .preprocess import SCALE_MODES, SCHEMES, normalize_dataset

FORMAT_VERSION = 1


@dataclass(frozen=True)
class _Preprocessing:
    norm_scheme: Literal[SCHEMES]
    scale_mode: Literal[SCALE_MODES]


@dataclass(frozen=True)
class _Frame:
    """The payload fields around the model's, as load_model reads them."""

    family: Literal["discriminative", "manifold"]
    preprocessing: _Preprocessing


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(model, path: str, norm_scheme: str, scale_mode: str) -> None:
    payload = {"family": model.family, **to_json(model),
               "preprocessing": to_json(_Preprocessing(norm_scheme, scale_mode))}
    doc = {"format_version": FORMAT_VERSION, "payload": payload,
           "checksum": _checksum(payload)}
    from .dataio import atomic_write
    atomic_write(path, [json.dumps(doc, indent=1)])


class Scorer(NamedTuple):
    """A model file's model and its preprocessing {"norm_scheme", "scale_mode"}:
    normalize turns cycles into the rows that model.score gives verdicts for,
    for every command that loads one."""

    model: DiscriminativeModel | PcaModel | VaeModel
    preprocessing: dict

    def normalize(self, cycles, calibrations=None):
        """normalize_dataset's (x, y_train, y_eval) under the recorded preprocessing."""
        return normalize_dataset(cycles, self.preprocessing["norm_scheme"],
                                 self.preprocessing["scale_mode"], calibrations)


def load_model(path: str) -> Scorer:
    """The Scorer of a model file.  A wrong format version or checksum is an
    IoError (exit 3); a missing, unknown or ill-formed payload field is a
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

    name = f"{path}: payload"
    fields = dict(from_json(payload, dict, name))
    frame = from_json({key: fields.pop(key) for key in ("family", "preprocessing")
                       if key in fields}, _Frame, name)
    if frame.family == "discriminative":
        kind = DiscriminativeModel
    elif "kind" in fields and from_json(fields["kind"], Literal[MANIFOLD_KINDS],
                                        f"{name}.kind") == "pca":
        kind = PcaModel
    else:                                      # a VAE kind, or none: VaeModel names it
        kind = VaeModel
    return Scorer(from_json(fields, kind, name), dataclasses.asdict(frame.preprocessing))

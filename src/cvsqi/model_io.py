"""Versioned model files: JSON with base64 float64 tensors and a checksum.

A file's payload is its family, then its model, then the preprocessing it was
trained under (size scheme + scale mode).  The model's dataclass
(DiscriminativeModel, PcaModel or VaeModel) is the one description of its
part, its class attribute family names the family, and _Preprocessing is the
one description of the preprocessing: save_model writes their fields with
to_json, and load_model, after checking the format version and a SHA-256
checksum over the canonical payload, reads them back through the same
dataclasses with from_json, their own checks included, into a Scorer.  The
model scores itself: model.score(x) is (score, verdict) per row by its
class's rule.

from_json, the one typed reader of scenario and model files, reads a
dataclass by its fields' JSON keys and runs its checks; to_json is its
inverse, and scenario_from_file reads one scenario file through from_json.

The checksum is the SHA-256 of the payload as compact, key-sorted,
ASCII-escaped JSON, and the file is the document as json.dumps(doc,
indent=1).  Neither text is built whole: the tensors' base64 strings, almost
all of a file's bytes, are cut out of a skeleton of the payload (_skeleton),
json.dumps writes the small skeleton, and the strings are spliced back in as
pieces (_pieces) that the checksum hashes and save_model writes in turn.  A
string is cut out only when json.dumps would write it unchanged, so the
pieces join to exactly the text json.dumps writes of the whole payload: a
load encodes nothing to check its checksum, and a save encodes each base64
string once, not twice.
"""
from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .dataio import replacing
from .discriminative import DiscriminativeModel
from .errors import InvalidField, IoError, ValidationError
from .forward import SynthScenario
from .manifold import MANIFOLD_KINDS, PcaModel, VaeModel
from .nn import ParamSet
from .preprocess import SCALE_MODES, SCHEMES, normalize_dataset

FORMAT_VERSION = 1

_SCALARS = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


@functools.cache
def _json_fields(kind) -> dict[str, tuple[dataclasses.Field, object]]:
    """A dataclass's fields by JSON key, field(metadata={"json": key}) or
    else the field's name, each with its type, in field order."""
    hints = typing.get_type_hints(kind)
    return {f.metadata.get("json", f.name): (f, hints[f.name])
            for f in dataclasses.fields(kind)}


def from_json(value, kind, name: str):
    """A parsed JSON value as `kind`; name is its path in messages.  kind is
    int, float (finite), str, Literal[...] of strings, X | None, tuple[X, ...],
    tuple[X, Y], list[X], dict (any object), dict[str, X], np.ndarray (an
    object of its shape and base64 float64 data, every value finite), a
    ParamSet (as dict[str, np.ndarray]), or a dataclass from an object of
    its fields under their JSON keys.  Any other value, or an unknown or
    missing field, is an InvalidField that names it, as is an InvalidField
    from a dataclass's own checks, prefixed by the dataclass's path."""
    def fail(what):
        return InvalidField(f"{name} must be {what}, got {value!r:.60}")
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise fail("an object")
        fields = _json_fields(kind)
        for key in sorted(value.keys() - fields.keys()):
            raise InvalidField(f"{name}.{key} is not a field of {kind.__name__}")
        for key, (f, _) in fields.items():
            if key not in value and f.default is f.default_factory is dataclasses.MISSING:
                raise InvalidField(f"{name}.{key} is required")
        kwargs = {fields[key][0].name: from_json(v, fields[key][1], f"{name}.{key}")
                  for key, v in value.items()}
        try:
            return kind(**kwargs)
        except InvalidField as exc:
            raise InvalidField(f"{name}.{exc}") from None
    if kind is ParamSet:
        return ParamSet(from_json(value, dict[str, np.ndarray], name))
    if kind is np.ndarray:
        shape = value.get("shape") if isinstance(value, dict) else None
        if not (isinstance(shape, list) and isinstance(value.get("data"), str) and all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
            raise fail("a tensor object")
        try:
            raw = binascii.a2b_base64(value["data"])   # b64decode, without its str copy
            t = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
        except ValueError:      # bad base64, or a byte count that is not the shape's
            raise InvalidField(f"{name} does not hold {shape} float64 values") from None
        if not np.isfinite(t).all():
            raise InvalidField(f"{name} holds NaN or inf")
        return t
    if origin is typing.Literal:
        if not (isinstance(value, str) and value in args):
            raise fail(f"one of {args}")
        return value
    if type(None) in args:                     # X | None, X a scalar
        if value is None:
            return None
        try:
            return from_json(value, args[0], name)
        except InvalidField:
            what = "a finite number" if args[0] is float else _SCALARS[args[0]][1]
            raise fail(f"null or {what}") from None
    if origin in (list, tuple):                # list[X], tuple[X, ...] or tuple[X, Y]
        any_length = origin is list or args[-1] is Ellipsis
        if not isinstance(value, list) or not any_length and len(value) != len(args):
            raise fail("a list" if any_length else f"a list of {len(args)}")
        return origin(from_json(v, args[0] if any_length else args[i], f"{name}[{i}]")
                      for i, v in enumerate(value))
    if dict in (kind, origin):                 # dict, or dict[str, X]
        if not isinstance(value, dict):
            raise fail("an object")
        if not args:
            return value
        return {k: from_json(v, args[1], f"{name}.{k}") for k, v in value.items()}
    types, what = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise fail(what)
    if kind is float and not abs(value) <= sys.float_info.max:     # NaN, inf, 10**400
        raise fail("a finite number")
    return value


def to_json(value):
    """from_json's inverse: value as the JSON value that from_json reads back
    as value's type, a dataclass's fields under their JSON keys in field
    order and a tensor as its shape and base64 float64 data."""
    if dataclasses.is_dataclass(value):
        return {key: to_json(getattr(value, f.name))
                for key, (f, _) in _json_fields(type(value)).items()}
    if isinstance(value, ParamSet):
        value = value.values
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value, dtype=np.float64)
        return {"shape": list(a.shape),
                "data": base64.b64encode(a.tobytes()).decode("ascii")}
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def scenario_from_file(path: str) -> SynthScenario:
    """The scenario of a JSON file: an object of SynthScenario's fields, with
    motion_events a list of objects of MotionEvent's fields.  An unknown,
    missing or mistyped field, or an out-of-range value, is an
    InvalidField naming the field; nothing is synthesized before then.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: invalid scenario JSON: {exc}") from exc
    return from_json(doc, SynthScenario, f"{path}: scenario")


@dataclass(frozen=True)
class _Preprocessing:
    norm_scheme: Literal[SCHEMES]
    scale_mode: Literal[SCALE_MODES]


@dataclass(frozen=True)
class _Frame:
    """The payload fields around the model's, as load_model reads them."""

    family: Literal["discriminative", "manifold"]
    preprocessing: _Preprocessing


_CANONICAL = {"sort_keys": True, "separators": (",", ":")}   # the checksum's JSON
_MARK = "@cvsqi-spliced-"      # a cut-out string's marker: _MARK and its index


def _verbatim(s: str) -> bool:
    """Whether json.dumps writes s as it is between its quotes: s is ASCII
    from space to '~' without '"' or '\\', as every base64 string is."""
    if not s.isascii() or '"' in s or "\\" in s:
        return False
    codes = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    return codes.min(initial=0x20) >= 0x20 and codes.max(initial=0x7E) <= 0x7E


def _skeleton(value) -> tuple[object, list[str]]:
    """value with each "data" string of an object that _verbatim passes
    replaced by its marker, and the strings cut out, by index."""
    cut = []

    def copy(v):
        if isinstance(v, dict):
            return {k: mark(x) if k == "data" and isinstance(x, str) and _verbatim(x)
                    else copy(x) for k, x in v.items()}
        return [copy(x) for x in v] if isinstance(v, list) else v

    def mark(s):
        cut.append(s)
        return f"{_MARK}{len(cut) - 1}"
    return copy(value), cut


def _pieces(value, skeleton, cut: list[str], **options) -> list[str]:
    """json.dumps(value, **options) as pieces that join to it: json.dumps of
    value's _skeleton, with each cut-out string back in its marker's place.
    Each marker's opening quote and _MARK is one '"' + _MARK in that text;
    a key or another string that holds _MARK adds one more, and then the
    text is json.dumps(value) in one piece."""
    head, *rest = json.dumps(skeleton, **options).split('"' + _MARK)
    if len(rest) != len(cut):
        return [json.dumps(value, **options)]
    pieces = [head]
    for part in rest:
        index, tail = part.split('"', 1)
        pieces += ['"', cut[int(index)], '"', tail]
    return pieces


def _sha256(pieces: list[str]) -> str:
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def _checksum(payload) -> str:
    """The SHA-256 of payload's compact, key-sorted, ASCII-escaped JSON."""
    return _sha256(_pieces(payload, *_skeleton(payload), **_CANONICAL))


def save_model(model, path: str, norm_scheme: str, scale_mode: str) -> None:
    """Write the model file json.dumps(doc, indent=1) and a newline, each
    base64 string encoded once for the checksum and the file alike."""
    payload = {"family": model.family, **to_json(model),
               "preprocessing": to_json(_Preprocessing(norm_scheme, scale_mode))}
    skeleton, cut = _skeleton(payload)
    checksum = _sha256(_pieces(payload, skeleton, cut, **_CANONICAL))
    doc = {"format_version": FORMAT_VERSION, "payload": payload, "checksum": checksum}
    pieces = _pieces(doc, {**doc, "payload": skeleton}, cut, indent=1)
    with replacing() as open_temp:
        open_temp(path).writelines([*pieces, "\n"])


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

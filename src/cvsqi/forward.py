"""The parametric synthetic generator of CVS streams.

The 16-electrode system yields 208 retained transconductance channels (16
injections x 13 adjacent-pair measurements after dropping the three pairs
touching the injecting electrodes).  A scalar cardiac volume signal (CVS) is the
inner product of a leadforming vector w with the transconductance's deviation
from its per-subject baseline.  The leadform is built to see the cardiogenic
direction at unit gain, each motion event's direction at unit gain, and the
respiratory direction not at all, so synthesis works in CVS space throughout:
the cardiogenic waveform and the motion profiles are added as scalars and the
respiratory term cancels.  The channel noise eps enters only as w.eps, and for
i.i.d. N(0, s^2) channels w.eps ~ N(0, s^2 |w|^2), so the CVS noise is drawn
directly as n scalars of std s |w| = noise_std * gain; no channel is drawn.

Synthesis is additive by construction: the CVS is the exact sum of a cardiogenic
component, the measurement noise, and a motion component that is nonzero only
inside scheduled motion events.  No boundary-value PDE is solved; the generator
only reproduces the additive structure that the quality-indexing task depends
on.  scenario_from_file reads one scenario from JSON, every field checked by
name before anything is synthesized.  from_json, the one typed reader of
scenario and model files, reads a dataclass by its fields' JSON keys and runs
its checks; to_json, the model files' writer, is its inverse.
"""
from __future__ import annotations

import base64
import dataclasses
import functools
import json
import re
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .errors import InvalidField, IoError, ValidationError
from .labels import QualityLabel
from .nn import ParamSet

SAMPLE_MS = 10
MAX_DURATION_MS = 3_600_000   # one hour, checked before any sample is allocated

MOTION_SHAPES = ("step", "ramp", "burst", "sway")


def check_duration(duration_ms: int) -> None:
    """A recording's length: a positive multiple of 10 ms, at most one hour."""
    if not 0 < duration_ms <= MAX_DURATION_MS or duration_ms % SAMPLE_MS:
        raise InvalidField(f"duration_ms must be a positive multiple of 10 ms up "
                           f"to {MAX_DURATION_MS} (one hour), got {duration_ms}")


@dataclass(frozen=True)
class MotionEvent:
    start_ms: int
    duration_ms: int
    amplitude: float             # peak CVS amplitude in units of the cardiogenic peak
    shape: str = "step"

    def __post_init__(self):
        if self.shape not in MOTION_SHAPES:
            raise InvalidField(f"shape must be one of {MOTION_SHAPES}")
        if self.duration_ms <= 0:
            raise InvalidField("duration_ms must be positive")
        if self.amplitude < 0:
            raise InvalidField("amplitude must be nonnegative")

    @property
    def end_ms(self) -> int:
        return self.start_ms + self.duration_ms


@dataclass(frozen=True)
class SynthScenario:
    subject_seed: int
    duration_ms: int
    rr_intervals_ms: tuple[int, ...]          # cycled if the recording outlasts them
    motion_events: tuple[MotionEvent, ...] = ()
    noise_std: float = 0.02                   # relative to the cardiogenic CVS peak
    gain: float = 1.0                         # subject-specific cardiogenic amplitude
    ambiguous_band: tuple[float, float] = (0.5, 1.5)
    subject_id: str = "s0"

    def __post_init__(self):
        check_duration(self.duration_ms)
        if self.subject_seed < 0:
            raise InvalidField(f"subject_seed must be nonnegative, got {self.subject_seed}")
        if not re.fullmatch(r"[\w.-]+", self.subject_id):
            raise InvalidField(f"subject_id {self.subject_id!r} must be letters, digits, "
                               f"'_', '.' or '-'")
        if not self.rr_intervals_ms:
            raise InvalidField("rr_intervals_ms needs at least one RR interval")
        for rr in self.rr_intervals_ms:
            if not (300 <= rr <= 2000) or rr % SAMPLE_MS != 0:
                raise InvalidField(f"rr_intervals_ms: {rr} ms outside [300, 2000] "
                                   f"or off the 10 ms grid")
        for i, ev in enumerate(self.motion_events):
            if ev.start_ms < 0 or ev.end_ms > self.duration_ms:
                raise InvalidField(f"motion_events[{i}] lies outside [0, duration_ms]")
        if self.noise_std < 0:
            raise InvalidField("noise_std must be nonnegative")
        if self.gain <= 0:
            raise InvalidField("gain must be positive")
        lo, hi = self.ambiguous_band
        if not (0 < lo < hi):
            raise InvalidField("ambiguous_band must satisfy 0 < low < high")
        object.__setattr__(self, "rr_intervals_ms", tuple(int(rr) for rr in self.rr_intervals_ms))
        object.__setattr__(self, "motion_events", tuple(self.motion_events))


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
            raw = base64.b64decode(value["data"])
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
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: invalid scenario JSON: {exc}") from exc
    return from_json(doc, SynthScenario, f"{path}: scenario")


def cardiac_template(phase: np.ndarray) -> np.ndarray:
    """Unit-amplitude cardiogenic waveform over one cycle (phase in [0, 1)).

    Fast smooth rise over the first 30% of the cycle, quadratic decay back to
    zero over the remainder.  template(0) = template(1) = 0, peak 1 at 0.3.
    """
    p = np.mod(np.asarray(phase, dtype=np.float64), 1.0)
    rising = p < 0.3
    out = np.empty_like(p)
    out[rising] = 0.5 * (1.0 - np.cos(np.pi * p[rising] / 0.3))
    out[~rising] = (1.0 - (p[~rising] - 0.3) / 0.7) ** 2
    return out


def _event_profile(ev: MotionEvent, t_ms: np.ndarray,
                   cardiac_phase: np.ndarray | None = None) -> np.ndarray:
    """Dimensionless time profile of one motion event on the sample grid.

    "sway" modulates the cardiogenic waveform itself (amplitude artifact with
    no shape cue), so it needs the cardiac phase.
    """
    inside = (t_ms >= ev.start_ms) & (t_ms < ev.end_ms)
    prof = np.zeros(t_ms.shape, dtype=np.float64)
    if not inside.any():
        return prof
    s = (t_ms[inside] - ev.start_ms) / ev.duration_ms   # in [0, 1)
    if ev.shape == "step":
        prof[inside] = 1.0
    elif ev.shape == "ramp":
        prof[inside] = s
    elif ev.shape == "burst":  # oscillation under a sine envelope
        prof[inside] = np.sin(2.0 * np.pi * 3.0 * s) * np.sin(np.pi * s)
    else:  # sway: cardiac-synchronous gain shift, leaves the waveform shape intact
        prof[inside] = cardiac_template(cardiac_phase[inside])
    return prof


@dataclass
class SynthStream:
    """Full output of one synthetic recording."""

    scenario: SynthScenario
    t_ms: np.ndarray                 # (n,)
    cvs: np.ndarray                  # (n,) cardiogenic + noise + motion CVS
    cvs_motion: np.ndarray           # (n,) motion CVS alone; the labels read it
    r_peaks: np.ndarray              # (m,) ms timestamps on the 10 ms grid
    cycle_labels: list[QualityLabel] # length m - 1

    @property
    def n_samples(self) -> int:
        return self.t_ms.size


def _r_peak_times(scenario: SynthScenario) -> np.ndarray:
    peaks = [0]
    rrs = scenario.rr_intervals_ms
    i = 0
    while True:
        nxt = peaks[-1] + rrs[i % len(rrs)]
        if nxt > scenario.duration_ms - SAMPLE_MS:
            break
        peaks.append(nxt)
        i += 1
    return np.asarray(peaks, dtype=np.int64)


def synthesize_stream(scenario: SynthScenario) -> SynthStream:
    """Generate one seeded recording with exact additive component breakdown.

    The cardiogenic CVS peaks at the scenario gain and each motion event's
    CVS amplitude equals its configured amplitude (in cardiogenic-peak units).
    The rng draws only the noise, n scalars of std noise_std * gain.
    """
    n = scenario.duration_ms // SAMPLE_MS
    t_ms = np.arange(n, dtype=np.int64) * SAMPLE_MS

    # R-peaks and the cardiac phase.
    r_peaks = _r_peak_times(scenario)
    bounds = np.concatenate([r_peaks, [r_peaks[-1] + scenario.rr_intervals_ms[
        (len(r_peaks) - 1) % len(scenario.rr_intervals_ms)]]])
    seg = np.searchsorted(bounds, t_ms, side="right") - 1
    seg = np.clip(seg, 0, len(bounds) - 2)
    phase = (t_ms - bounds[seg]) / (bounds[seg + 1] - bounds[seg])

    cardio = scenario.gain * cardiac_template(phase)
    # w.eps for i.i.d. channel noise eps, drawn as the n scalars it reduces to
    noise = (np.random.default_rng(scenario.subject_seed).normal(
        scale=scenario.noise_std * scenario.gain, size=n) if scenario.noise_std > 0 else 0.0)

    cvs_motion = np.zeros(n)
    for ev in scenario.motion_events:
        # the event touches only the samples of [start_ms, end_ms)
        r0, r1 = ev.start_ms // SAMPLE_MS, -(-ev.end_ms // SAMPLE_MS)
        prof = _event_profile(ev, t_ms[r0:r1], cardiac_phase=phase[r0:r1])
        cvs_motion[r0:r1] += scenario.gain * ev.amplitude * prof

    cvs = cardio + noise + cvs_motion

    # Cycle labels from the realized motion amplitude relative to the
    # cardiogenic peak (gain); band edges come from the scenario.  Cycle i
    # spans samples idx[i]..idx[i + 1] inclusive; reduceat covers all but the
    # closing sample, which the next cycle shares, so it is taken apart.
    lo, hi = scenario.ambiguous_band
    idx = r_peaks // SAMPLE_MS
    motion = np.abs(cvs_motion[:idx[-1] + 1])
    peaks = np.maximum(np.maximum.reduceat(motion[:-1], idx[:-1]), motion[idx[1:]])
    labels = [QualityLabel.MOTION if m > hi
              else QualityLabel.AMBIGUOUS if m >= lo else QualityLabel.NORMAL
              for m in (peaks / scenario.gain).tolist()]

    return SynthStream(
        scenario=scenario, t_ms=t_ms, cvs=cvs, cvs_motion=cvs_motion,
        r_peaks=r_peaks, cycle_labels=labels,
    )

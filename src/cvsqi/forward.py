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
on.  model_io.scenario_from_file reads a scenario from a JSON file.  One beat
schedule, _beat_times, gives the R-peaks and the cardiac phase: the cycled RR
list summed from 0 ms, up to the first beat past the last sample.
"""
from __future__ import annotations

import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidField
from .labels import QualityLabel
from .preprocess import SAMPLE_MS

MAX_DURATION_MS = 3_600_000   # one hour, checked before any sample is allocated
MIN_RR_MS, MAX_RR_MS = 300, 2000   # the RR range a scenario accepts

MOTION_SHAPES = ("step", "ramp", "burst", "sway")


def _check_integer(name: str, value) -> None:
    """An integer field: an int or numpy integer, not a bool, float or NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidField(f"{name} must be an integer, got {value!r}")


def check_duration(duration_ms: int) -> None:
    """A recording's length: a positive multiple of 10 ms, at most one hour."""
    _check_integer("duration_ms", duration_ms)
    if not 0 < duration_ms <= MAX_DURATION_MS or duration_ms % SAMPLE_MS:
        raise InvalidField(f"duration_ms must be a positive multiple of 10 ms up "
                           f"to {MAX_DURATION_MS} (one hour), got {duration_ms}")


def beat_budget(duration_ms: int) -> int:
    """RR intervals enough to carry the beat schedule past the last sample."""
    return duration_ms // MIN_RR_MS + 2


@dataclass(frozen=True)
class MotionEvent:
    start_ms: int
    duration_ms: int
    amplitude: float             # peak CVS amplitude in units of the cardiogenic peak
    shape: str = "step"

    def __post_init__(self):
        _check_integer("start_ms", self.start_ms)
        _check_integer("duration_ms", self.duration_ms)
        if self.shape not in MOTION_SHAPES:
            raise InvalidField(f"shape must be one of {MOTION_SHAPES}")
        if self.duration_ms <= 0:
            raise InvalidField("duration_ms must be positive")
        if not 0 <= self.amplitude < np.inf:
            raise InvalidField("amplitude must be nonnegative and finite")

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
        _check_integer("subject_seed", self.subject_seed)
        if self.subject_seed < 0:
            raise InvalidField(f"subject_seed must be nonnegative, got {self.subject_seed}")
        if not re.fullmatch(r"[\w.-]+", self.subject_id):
            raise InvalidField(f"subject_id {self.subject_id!r} must be letters, digits, "
                               f"'_', '.' or '-'")
        if not self.rr_intervals_ms:
            raise InvalidField("rr_intervals_ms needs at least one RR interval")
        for i, rr in enumerate(self.rr_intervals_ms):
            if type(rr) is not int:        # the common case, checked first for speed
                _check_integer(f"rr_intervals_ms[{i}]", rr)
            if not (MIN_RR_MS <= rr <= MAX_RR_MS) or rr % SAMPLE_MS != 0:
                raise InvalidField(f"rr_intervals_ms: {rr} ms outside [{MIN_RR_MS}, "
                                   f"{MAX_RR_MS}] or off the 10 ms grid")
        for i, ev in enumerate(self.motion_events):
            if ev.start_ms < 0 or ev.end_ms > self.duration_ms:
                raise InvalidField(f"motion_events[{i}] lies outside [0, duration_ms]")
        if not 0 <= self.noise_std < np.inf:
            raise InvalidField("noise_std must be nonnegative and finite")
        if not 0 < self.gain < np.inf:
            raise InvalidField("gain must be positive and finite")
        lo, hi = self.ambiguous_band
        if not 0 < lo < hi < np.inf:
            raise InvalidField("ambiguous_band must satisfy 0 < low < high < inf")
        object.__setattr__(self, "rr_intervals_ms", tuple(int(rr) for rr in self.rr_intervals_ms))
        object.__setattr__(self, "motion_events", tuple(self.motion_events))


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


def _beat_times(scenario: SynthScenario) -> np.ndarray:
    """The beat schedule in ms; every beat but the last is an R-peak."""
    rrs = np.resize(np.asarray(scenario.rr_intervals_ms, dtype=np.int64),
                    beat_budget(scenario.duration_ms))
    beats = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(rrs)])
    return beats[:np.searchsorted(beats, scenario.duration_ms - SAMPLE_MS, side="right") + 1]


def synthesize_stream(scenario: SynthScenario) -> SynthStream:
    """Generate one seeded recording with exact additive component breakdown.

    The cardiogenic CVS peaks at the scenario gain and each motion event's
    CVS amplitude equals its configured amplitude (in cardiogenic-peak units).
    The rng draws only the noise, n scalars of std noise_std * gain.
    """
    n = scenario.duration_ms // SAMPLE_MS
    t_ms = np.arange(n, dtype=np.int64) * SAMPLE_MS

    # R-peaks and the cardiac phase.
    beats = _beat_times(scenario)
    r_peaks = beats[:-1]
    seg = np.searchsorted(beats, t_ms, side="right") - 1
    phase = (t_ms - beats[seg]) / (beats[seg + 1] - beats[seg])

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

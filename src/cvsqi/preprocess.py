"""Cycle segmentation and scale/size normalization.

A recording reaches this module as a CvsStream (or anything with the same
fields, such as a forward.SynthStream): the scalar CVS on the 10 ms grid, its
R-peaks and one label per cycle.  A cardiac cycle spans two consecutive
R-peaks inclusive of both endpoints, so neighbouring cycles share one
boundary sample.  Scale normalization divides by
either the per-cycle peak (naive) or the peak over a 20 s motion-free
calibration window (subject-specific); the latter preserves sudden amplitude
excursions instead of flattening them.  Size normalization embeds every cycle
into a fixed 150-vector by linear resampling or constant padding, and
normalize_dataset stacks those vectors into the model matrix.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AllZeroCycle, AllZeroWindow, CycleLongerThanTarget,
                     MissingCalibration, NonPositiveScale, PeakOffGrid,
                     TooShortCycle, ValidationError)
from .forward import SAMPLE_MS
from .labels import QualityLabel

TARGET_LEN = 150          # embedding dimension; "pad" rejects longer cycles (RR > 1490 ms)
CALIBRATION_SAMPLES = 2000  # 20 s at 100 Hz
CALIBRATION_MS = CALIBRATION_SAMPLES * SAMPLE_MS
HEADROOM = 10.0           # sanity bound on normalized values

SCHEMES = ("interp", "pad")
SCALE_MODES = ("naive", "subject", "none")


@dataclass
class CvsCycle:
    subject_id: str
    t_start_ms: int
    samples: np.ndarray
    label: QualityLabel = QualityLabel.NORMAL

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise TooShortCycle(f"cycle needs at least 2 samples, got {self.samples.size}")

    @property
    def v(self) -> int:
        return self.samples.size

    @property
    def duration_ms(self) -> int:
        return SAMPLE_MS * (self.v - 1)


@dataclass
class CalibrationWindow:
    subject_id: str
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (CALIBRATION_SAMPLES,):
            raise ValidationError(
                f"calibration window must hold {CALIBRATION_SAMPLES} samples, "
                f"got {self.samples.shape}")
        bad = np.flatnonzero(~np.isfinite(self.samples))
        if bad.size:
            raise ValidationError(
                f"calibration window of subject {self.subject_id!r} holds a "
                f"non-finite sample ({self.samples[bad[0]]}) at index {bad[0]}")


@dataclass
class NormalizedCycle:
    values: np.ndarray    # (TARGET_LEN,) float64, finite, peak within HEADROOM


class CvsStream(NamedTuple):
    """One scalar CVS recording: what the stream file format holds."""

    t_ms: np.ndarray                 # (n,) sample times on the 10 ms grid
    cvs: np.ndarray                  # (n,) CVS samples
    r_peaks: np.ndarray              # (m,) R-peak times in ms
    cycle_labels: list[QualityLabel] # one per R-peak gap when labelled


def segment_cycles(cvs_stream, r_peaks, subject_id: str = "",
                   labels=None) -> list[CvsCycle]:
    """Split a stream of (t_ms, x) rows into cycles delimited by R-peak timestamps.

    The stream is any (n, 2) array-like, such as np.column_stack((t_ms, x))
    or a list of pairs.  Cycle i spans [r_i, r_{i+1}] inclusive; consecutive
    cycles share the boundary sample.  Optional per-cycle labels must align
    with the output.
    """
    rows = np.asarray(cvs_stream, dtype=np.float64)
    if rows.size and (rows.ndim != 2 or rows.shape[1] != 2):
        raise ValidationError(f"CVS stream must be (n, 2) rows of (t_ms, x), got {rows.shape}")
    rows = rows.reshape(-1, 2)
    t_ms, x = rows[:, 0].astype(np.int64), rows[:, 1]
    peaks = np.asarray(list(r_peaks), dtype=np.int64)
    if peaks.size < 2:
        return []
    if np.any(np.diff(peaks) <= 0):
        raise ValidationError("r_peaks must be strictly increasing")
    if np.any(peaks % SAMPLE_MS != 0):
        raise PeakOffGrid("R-peak timestamps must lie on the 10 ms grid")
    if t_ms.size == 0:
        raise ValidationError("empty CVS stream")
    t0 = t_ms[0]
    if np.any(np.diff(t_ms) != SAMPLE_MS) or t0 % SAMPLE_MS != 0:
        raise ValidationError("CVS stream must be contiguous on the 10 ms grid")

    cycles = []
    for ci, (a, b) in enumerate(zip(peaks[:-1], peaks[1:])):
        i0 = (a - t0) // SAMPLE_MS
        i1 = (b - t0) // SAMPLE_MS
        if i0 < 0 or i1 >= t_ms.size:
            raise ValidationError("R-peak outside the CVS stream")
        if i1 - i0 < 1:
            raise TooShortCycle(f"cycle at {a} ms has fewer than 2 samples")
        label = labels[ci] if labels is not None else QualityLabel.NORMAL
        cycles.append(CvsCycle(subject_id=subject_id, t_start_ms=int(a),
                               samples=x[i0:i1 + 1].copy(), label=label))
    return cycles


def cycles_from_stream(stream, subject_id: str,
                       skip_calibration: bool = True) -> list[CvsCycle]:
    """The cycles of a CvsStream or SynthStream, in stream order.

    The stream's labels go with the cycles only when there is one per R-peak
    gap.  With skip_calibration, cycles that start inside the first 20 s (the
    calibration window) are dropped.
    """
    labels = stream.cycle_labels
    cycles = segment_cycles(np.column_stack((stream.t_ms, stream.cvs)), stream.r_peaks,
                            subject_id=subject_id,
                            labels=labels if len(labels) == len(stream.r_peaks) - 1
                            else None)
    if skip_calibration:
        cycles = [c for c in cycles if c.t_start_ms >= CALIBRATION_MS]
    return cycles


def calibration_from_stream(stream, subject_id: str) -> CalibrationWindow:
    """The first 20 s of a CvsStream or SynthStream as a calibration window."""
    n = stream.t_ms.size
    if n < CALIBRATION_SAMPLES:
        raise MissingCalibration(
            f"stream holds {n * SAMPLE_MS / 1000:.1f} s; subject "
            f"scaling needs the first {CALIBRATION_MS / 1000:.0f} s")
    return CalibrationWindow(subject_id=subject_id,
                             samples=stream.cvs[:CALIBRATION_SAMPLES].copy())


def _bad_cycle(cycle: CvsCycle, what: str) -> ValidationError:
    return ValidationError(
        f"cycle of subject {cycle.subject_id!r} at t_start_ms {cycle.t_start_ms} {what}")


def naive_scale_factor(cycle: CvsCycle) -> float:
    """Per-cycle scaling factor: max absolute sample."""
    s = float(np.max(np.abs(cycle.samples)))
    if not s < math.inf:                       # NaN or inf
        raise _bad_cycle(cycle, "holds a non-finite sample")
    if s == 0.0:
        raise AllZeroCycle(f"cycle at {cycle.t_start_ms} ms is identically zero")
    return s


def subject_scale_factor(cal: CalibrationWindow) -> float:
    """Subject-specific scaling factor: max absolute sample over the 20 s window."""
    s = float(np.max(np.abs(cal.samples)))
    if s == 0.0:
        raise AllZeroWindow(f"calibration window for {cal.subject_id} is identically zero")
    return s


def _check_scale(s: float) -> None:
    if not s > 0:
        raise NonPositiveScale(f"scale factor must be positive, got {s}")


@functools.lru_cache(maxsize=256)
def _unit_grid(n: int) -> np.ndarray:
    """np.linspace(0, 1, n), built once per n and shared read-only."""
    grid = np.linspace(0.0, 1.0, n)
    grid.flags.writeable = False
    return grid


def normalize_cycle(cycle: CvsCycle, scheme: str, scale: float | None) -> NormalizedCycle:
    """Scale (unless scale is None) then size-normalize one cycle.

    "interp" resamples linearly over [0, 1] to TARGET_LEN points, grid point
    j at j / (TARGET_LEN - 1), both endpoints exact (np.interp's); "pad"
    repeats the last sample up to TARGET_LEN.  A NaN or inf sample, or a
    normalized peak above HEADROOM, is a ValidationError naming the cycle.
    Every sample reaches the output of a cycle under 2 * TARGET_LEN - 1
    samples (RR under 2.98 s); interp skips samples of a longer one.
    """
    samples = cycle.samples
    if scale is not None:
        _check_scale(scale)
        samples = samples / scale
    if scheme == "interp":
        values = np.interp(_unit_grid(TARGET_LEN), _unit_grid(samples.size), samples)
    elif scheme == "pad":
        if samples.size > TARGET_LEN:
            raise CycleLongerThanTarget(
                f"cycle of {samples.size} samples exceeds target length {TARGET_LEN}")
        values = np.concatenate([samples, np.full(TARGET_LEN - samples.size, samples[-1])])
    else:
        raise ValidationError(f"unknown size-normalization scheme {scheme!r}")
    peak = float(np.abs(values).max())
    if not peak <= HEADROOM:                   # NaN fails it too
        raise _bad_cycle(cycle, "holds a non-finite sample" if not peak < math.inf else
                         f"has normalized peak {peak:.3g} above headroom bound {HEADROOM}")
    return NormalizedCycle(values)


def normalize_dataset(cycles, scheme: str, scale_mode: str,
                      calibrations: dict[str, CalibrationWindow] | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y_train, y_eval) of a cycle dataset under one scale and size scheme.

    Row i of x is normalize_cycle's 150-vector of cycle i; y_train holds the
    soft training targets and y_eval the 0/1 evaluation labels.  scale_mode
    "subject" requires a calibration window per subject id; "naive" rescales
    each cycle by its own peak; "none" skips scaling (ablation harness).
    """
    if scale_mode not in SCALE_MODES:
        raise ValidationError(
            f"unknown scale mode {scale_mode!r}, expected one of {SCALE_MODES}")
    factors: dict[str, float] = {}
    if scale_mode == "subject":
        if not calibrations:
            raise ValidationError("subject scaling requires calibration windows (--calib)")
        factors = {sid: subject_scale_factor(cal) for sid, cal in calibrations.items()}
    if not cycles:
        raise ValidationError("empty cycle dataset")
    rows = []
    for c in cycles:
        if scale_mode == "subject":
            if c.subject_id not in factors:
                raise ValidationError(f"no calibration window for subject {c.subject_id!r}")
            scale = factors[c.subject_id]
        elif scale_mode == "naive":
            scale = naive_scale_factor(c)
        else:
            scale = None
        rows.append(normalize_cycle(c, scheme, scale).values)
    y_train = np.asarray([c.label.train_value for c in cycles])
    y_eval = np.asarray([c.label.eval_value for c in cycles], dtype=np.int64)
    return np.stack(rows), y_train, y_eval

"""Cycle segmentation and scale/size normalization.

A cardiac cycle spans two consecutive R-peaks inclusive of both endpoints, so
neighbouring cycles share one boundary sample.  Scale normalization divides by
either the per-cycle peak (naive) or the peak over a 20 s motion-free
calibration window (subject-specific); the latter preserves sudden amplitude
excursions instead of flattening them.  Size normalization embeds every cycle
into a fixed 150-vector by linear resampling or constant padding.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (AllZeroCycle, AllZeroWindow, CycleLongerThanTarget,
                     NonPositiveScale, PeakOffGrid, TooShortCycle, ValidationError)
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
    values: np.ndarray
    subject_id: str
    t_start_ms: int
    scheme: str
    label: QualityLabel = QualityLabel.NORMAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (TARGET_LEN,):
            raise ValidationError(f"normalized cycle must have {TARGET_LEN} values")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}")
        peak = float(np.abs(self.values).max())
        if peak > HEADROOM:
            raise ValidationError(
                f"normalized cycle peak {peak:.3g} exceeds headroom bound {HEADROOM}")


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


def naive_scale_factor(cycle: CvsCycle) -> float:
    """Per-cycle scaling factor: max absolute sample."""
    s = float(np.max(np.abs(cycle.samples)))
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


def scale_normalize(cycle: CvsCycle, s: float) -> CvsCycle:
    """Divide every sample by s, preserving label and timing."""
    _check_scale(s)
    return CvsCycle(subject_id=cycle.subject_id, t_start_ms=cycle.t_start_ms,
                    samples=cycle.samples / s, label=cycle.label)


@functools.lru_cache(maxsize=256)
def _unit_grid(n: int) -> np.ndarray:
    """np.linspace(0, 1, n), built once per n and shared read-only."""
    grid = np.linspace(0.0, 1.0, n)
    grid.flags.writeable = False
    return grid


def resample_linear(cycle: CvsCycle) -> NormalizedCycle:
    """Resample to TARGET_LEN points by linear interpolation over [0, 1].

    Endpoints are preserved exactly; grid point j maps to j / (TARGET_LEN - 1).
    """
    return normalize_cycle(cycle, "interp", None)


def pad_constant(cycle: CvsCycle) -> NormalizedCycle:
    """Extend the cycle to TARGET_LEN by repeating its last sample."""
    return normalize_cycle(cycle, "pad", None)


def normalize_cycle(cycle: CvsCycle, scheme: str, scale: float | None) -> NormalizedCycle:
    """Scale (unless scale is None) then size-normalize one cycle.

    "interp" resamples linearly as resample_linear describes; "pad" repeats
    the last sample up to TARGET_LEN.
    """
    samples = cycle.samples
    if scale is not None:
        _check_scale(scale)
        samples = samples / scale
    if scheme == "interp":
        values = np.interp(_unit_grid(TARGET_LEN), _unit_grid(samples.size), samples)
        values[0] = samples[0]
        values[-1] = samples[-1]
    elif scheme == "pad":
        if samples.size > TARGET_LEN:
            raise CycleLongerThanTarget(
                f"cycle of {samples.size} samples exceeds target length {TARGET_LEN}")
        values = np.concatenate([samples, np.full(TARGET_LEN - samples.size, samples[-1])])
    else:
        raise ValidationError(f"unknown size-normalization scheme {scheme!r}")
    return NormalizedCycle(values=values, subject_id=cycle.subject_id,
                           t_start_ms=cycle.t_start_ms, scheme=scheme,
                           label=cycle.label)


def normalize_dataset(cycles, scheme: str, scale_mode: str,
                      calibrations: dict[str, CalibrationWindow] | None = None
                      ) -> list[NormalizedCycle]:
    """Normalize a cycle dataset under one scale mode and one size scheme.

    scale_mode "subject" requires a calibration window per subject id;
    "naive" rescales each cycle by its own peak; "none" skips scaling
    (ablation harness).
    """
    if scale_mode not in SCALE_MODES:
        raise ValidationError(
            f"unknown scale mode {scale_mode!r}, expected one of {SCALE_MODES}")
    factors: dict[str, float] = {}
    if scale_mode == "subject":
        if not calibrations:
            raise ValidationError("subject scaling requires calibration windows (--calib)")
        factors = {sid: subject_scale_factor(cal) for sid, cal in calibrations.items()}
    out = []
    for c in cycles:
        if scale_mode == "subject":
            if c.subject_id not in factors:
                raise ValidationError(f"no calibration window for subject {c.subject_id!r}")
            scale = factors[c.subject_id]
        elif scale_mode == "naive":
            scale = naive_scale_factor(c)
        else:
            scale = None
        out.append(normalize_cycle(c, scheme, scale))
    return out


def to_arrays(normalized) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y_train, y_eval) from a list of normalized cycles."""
    if not normalized:
        raise ValidationError("empty cycle dataset")
    x = np.stack([c.values for c in normalized])
    y_train = np.asarray([c.label.train_value for c in normalized])
    y_eval = np.asarray([c.label.eval_value for c in normalized], dtype=np.int64)
    return x, y_train, y_eval

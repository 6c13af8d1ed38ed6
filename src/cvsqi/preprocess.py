"""Cycle segmentation and scale/size normalization.

A recording reaches this module as a CvsStream (or anything with the same
fields, such as a forward.SynthStream): the scalar CVS on the 10 ms grid, its
R-peaks and one label per cycle.  A cardiac cycle spans two consecutive
R-peaks inclusive of both endpoints, so neighbouring cycles share one
boundary sample.  Scale normalization divides by either the per-cycle peak
(naive) or the peak over the recording's first 20 s, its calibration window
(subject-specific; nothing checks that window for motion), which preserves
sudden amplitude excursions instead of flattening them.  Size normalization
embeds every cycle into a fixed 150-vector by linear resampling or constant
padding, and normalize_dataset stacks those vectors into the model matrix.
Every model entry that takes that matrix reads it through cycle_rows, so
any other shape is the one ShapeMismatch "expected (N, 150) input, got (...)".
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MissingCalibration, ShapeMismatch, ValidationError
from .forward import SAMPLE_MS
from .labels import QualityLabel

TARGET_LEN = 150          # embedding dimension; "pad" rejects longer cycles (RR > 1490 ms)
CALIBRATION_SAMPLES = 2000  # 20 s at 100 Hz
CALIBRATION_MS = CALIBRATION_SAMPLES * SAMPLE_MS
HEADROOM = 10.0           # sanity bound on normalized values

SCHEMES = ("interp", "pad")
SCALE_MODES = ("naive", "subject", "none")
DEFAULT_SCHEME = "interp"         # train's, bench's and the experiment runner's
DEFAULT_SCALE_MODE = "subject"


@dataclass
class CvsCycle:
    subject_id: str
    t_start_ms: int
    samples: np.ndarray
    label: QualityLabel = QualityLabel.NORMAL

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValidationError(f"cycle needs at least 2 samples, got {self.samples.size}")

    @property
    def v(self) -> int:
        return self.samples.size


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


def cycle_rows(x) -> np.ndarray:
    """x as an (N, TARGET_LEN) float64 matrix of normalized cycles, a
    (TARGET_LEN,) vector as one row; any other shape is a ShapeMismatch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape == (TARGET_LEN,):
        return x[None]
    if x.ndim != 2 or x.shape[1] != TARGET_LEN:
        raise ShapeMismatch(f"expected (N, {TARGET_LEN}) input, got {x.shape}")
    return x


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
        raise ValidationError("R-peak timestamps must lie on the 10 ms grid")
    if t_ms.size == 0:
        raise ValidationError("empty CVS stream")
    t0 = t_ms[0]
    if np.any(np.diff(t_ms) != SAMPLE_MS) or t0 % SAMPLE_MS != 0:
        raise ValidationError("CVS stream must be contiguous on the 10 ms grid")

    # cycle i spans samples bounds[i]..bounds[i + 1].  The peaks are strictly
    # increasing on the sample grid, so every cycle holds at least 2 samples
    # and one outside the stream puts the first or the last bound out of range
    bounds = (peaks - t0) // SAMPLE_MS
    if bounds[0] < 0 or bounds[-1] >= t_ms.size:
        raise ValidationError("R-peak outside the CVS stream")
    bounds = bounds.tolist()
    if labels is None:
        labels = [QualityLabel.NORMAL] * (len(bounds) - 1)
    return [CvsCycle(subject_id=subject_id, t_start_ms=a, samples=x[i0:i1 + 1].copy(),
                     label=labels[ci])
            for ci, (a, i0, i1) in enumerate(zip(peaks.tolist(), bounds, bounds[1:]))]


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


# why a cycle fails normalization, in the order its checks run
_OK, _NO_CALIBRATION, _ZERO, _NONFINITE, _TOO_LONG, _HEADROOM = range(6)


def _cycle_error(reason: int, cycle: CvsCycle, peak: float = math.nan) -> ValidationError:
    """The error of a cycle that fails normalization for reason, at normalized peak."""
    named = f"cycle of subject {cycle.subject_id!r} at t_start_ms {cycle.t_start_ms}"
    return ValidationError({
        _NO_CALIBRATION: f"no calibration window for subject {cycle.subject_id!r}",
        _ZERO: f"cycle at {cycle.t_start_ms} ms is identically zero",
        _NONFINITE: f"{named} holds a non-finite sample",
        _TOO_LONG: f"cycle of {cycle.v} samples exceeds target length {TARGET_LEN}",
        _HEADROOM: f"{named} has normalized peak {peak:.3g} above headroom bound {HEADROOM}",
    }[reason])


def _unknown_scheme(scheme: str) -> ValidationError:
    return ValidationError(f"unknown size-normalization scheme {scheme!r}")


def naive_scale_factor(cycle: CvsCycle) -> float:
    """Per-cycle scaling factor: max absolute sample."""
    s = float(np.max(np.abs(cycle.samples)))
    if not 0.0 < s < math.inf:                 # zero, NaN or inf
        raise _cycle_error(_ZERO if s == 0.0 else _NONFINITE, cycle)
    return s


def subject_scale_factor(cal: CalibrationWindow) -> float:
    """Subject-specific scaling factor: max absolute sample over the 20 s window."""
    s = float(np.max(np.abs(cal.samples)))
    if s == 0.0:
        raise ValidationError(f"calibration window for {cal.subject_id} is identically zero")
    return s


@functools.lru_cache(maxsize=256)
def _unit_grid(n: int) -> np.ndarray:
    """np.linspace(0, 1, n), built once per n and shared read-only."""
    grid = np.linspace(0.0, 1.0, n)
    grid.flags.writeable = False
    return grid


# interp reaches every sample of a shorter cycle (RR under 2.98 s); from this
# length on it skips some, so their samples are checked for NaN and inf directly
INTERP_SKIPS_FROM = 2 * TARGET_LEN - 1


@functools.lru_cache(maxsize=256)
def _interp_plan(v: int) -> tuple[np.ndarray, ...]:
    """Where np.interp puts each of the TARGET_LEN output points on the
    v-sample grid: (lo, gap, widths, offset, on, on_lo), read-only.

    Output point p lies offset[p] past sample lo[p], in the gap gap[p]
    between two samples (lo[p], but v - 2 for the last point, which lies on
    the last sample); widths holds each gap's width.  The points listed in
    on, both end points among them, lie on samples on_lo.
    """
    xp, x = _unit_grid(v), _unit_grid(TARGET_LEN)
    lo = np.searchsorted(xp, x, side="right") - 1     # xp[lo] <= x < xp[lo + 1]
    on = np.flatnonzero(x == xp[lo])
    plan = (lo, np.minimum(lo, v - 2), np.diff(xp), x - xp[lo], on, lo[on])
    for a in plan:
        a.flags.writeable = False
    return plan


def _interp_rows(fp: np.ndarray) -> np.ndarray:
    """np.interp(_unit_grid(TARGET_LEN), _unit_grid(v), row) of every row of
    an (m, v) matrix, bit for bit on finite rows: np.interp's slope
    (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) of the gap, times the offset,
    plus fp[j], and fp[j] itself at a point on sample j.  A row with a NaN or
    inf sample comes out non-finite wherever np.interp's does, though not
    always with the same NaN or inf."""
    lo, gap, widths, offset, on, on_lo = _interp_plan(fp.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf, or overflow
        out = (np.diff(fp, axis=1) / widths)[:, gap] * offset + fp[:, lo]
    out[:, on] = fp[:, on_lo]
    return out


def normalize_cycle(cycle: CvsCycle, scheme: str, scale: float | None) -> NormalizedCycle:
    """Scale (unless scale is None) then size-normalize one cycle.

    "interp" resamples linearly over [0, 1] to TARGET_LEN points, grid point
    j at j / (TARGET_LEN - 1), both endpoints exact (np.interp's); "pad"
    repeats the last sample up to TARGET_LEN.  A NaN or inf sample, or a
    normalized peak above HEADROOM, is a ValidationError naming the cycle.
    """
    samples = cycle.samples
    if scale is not None:
        if not scale > 0:
            raise ValidationError(f"scale factor must be positive, got {scale}")
        samples = samples / scale
    if scheme == "interp":
        if samples.size >= INTERP_SKIPS_FROM and not np.isfinite(samples).all():
            raise _cycle_error(_NONFINITE, cycle)
        values = np.interp(_unit_grid(TARGET_LEN), _unit_grid(samples.size), samples)
    elif scheme == "pad":
        if samples.size > TARGET_LEN:
            raise _cycle_error(_TOO_LONG, cycle)
        values = np.concatenate([samples, np.full(TARGET_LEN - samples.size, samples[-1])])
    else:
        raise _unknown_scheme(scheme)
    peak = float(np.abs(values).max())
    if not peak <= HEADROOM:                   # NaN fails it too
        raise _cycle_error(_HEADROOM if peak < math.inf else _NONFINITE, cycle, peak)
    return NormalizedCycle(values)


def normalize_dataset(cycles, scheme: str, scale_mode: str,
                      calibrations: dict[str, CalibrationWindow] | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y_train, y_eval) of a cycle dataset under one scale and size scheme.

    Row i of x is normalize_cycle's 150-vector of cycle i, bit for bit;
    y_train holds the soft training targets and y_eval the 0/1 evaluation
    labels.  scale_mode "subject" requires a calibration window per subject
    id; "naive" rescales each cycle by its own peak; "none" skips scaling
    (ablation harness).  Cycles are checked in a one-by-one loop's order:
    calibration window ("subject"), zero peak ("naive"), NaN or inf sample
    ("naive"; "interp" at a sample it skips), length ("pad"), then a NaN,
    inf or peak above HEADROOM in the normalized vector.  The first failing
    cycle raises the error of the first check it fails.

    Every scale factor is resolved at once, and the cycles of each length are
    scaled and resampled in one step (a recording's cycles share few lengths).
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

    n = len(cycles)
    sizes = np.fromiter((c.samples.size for c in cycles), np.int64, n)
    codes = np.full(n, _OK, dtype=np.int8)    # each cycle's reason to fail

    def fail(where, reason):          # the first check a cycle fails names it
        codes[where] = np.where(codes[where] == _OK, reason, codes[where])

    scales = None
    if scale_mode == "subject":        # NaN for a subject without a window
        scales = np.array([factors.get(c.subject_id, math.nan) for c in cycles])
        fail(np.isnan(scales), _NO_CALIBRATION)
    elif scale_mode == "naive":
        starts = np.zeros(n, np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        scales = np.maximum.reduceat(np.abs(np.concatenate([c.samples for c in cycles])),
                                     starts)
        fail(scales == 0, _ZERO)
        fail(~(scales < math.inf), _NONFINITE)
    if scheme not in SCHEMES:          # cycle 0 fails its scale before its scheme
        raise _cycle_error(int(codes[0]), cycles[0]) if codes[0] else _unknown_scheme(scheme)

    x = np.zeros((n, TARGET_LEN))
    order = np.argsort(sizes, kind="stable")
    lengths, firsts = np.unique(sizes[order], return_index=True)
    for v, rows in zip(lengths.tolist(), np.split(order, firsts[1:])):
        fp = np.concatenate([cycles[i].samples for i in rows.tolist()]).reshape(-1, v)
        if scales is not None:
            with np.errstate(all="ignore"):   # an overflow or a bad scale fails below
                fp /= scales[rows, None]
        if scheme == "interp":
            if v >= INTERP_SKIPS_FROM:
                fail(rows[~np.isfinite(fp).all(axis=1)], _NONFINITE)
            x[rows] = _interp_rows(fp)
        elif v > TARGET_LEN:
            fail(rows, _TOO_LONG)
        else:
            x[rows, :v] = fp
            x[rows, v:] = fp[:, -1:]
    peaks = np.abs(x).max(axis=1)
    fail(~(peaks < math.inf), _NONFINITE)
    fail(peaks > HEADROOM, _HEADROOM)
    if codes.any():
        i = int(np.flatnonzero(codes)[0])
        raise _cycle_error(int(codes[i]), cycles[i], peaks[i])
    labels = [c.label for c in cycles]     # each encoding looked up, not recomputed
    train = {label: label.train_value for label in QualityLabel}
    y_train = np.asarray([train[label] for label in labels])
    evaluation = {label: label.eval_value for label in QualityLabel}
    y_eval = np.asarray([evaluation[label] for label in labels], dtype=np.int64)
    return x, y_train, y_eval

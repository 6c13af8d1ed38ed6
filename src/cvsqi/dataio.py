"""Line-oriented file formats: streams, cycle datasets, calibration.

All files are comma-separated UTF-8 with LF line endings.  Writes go through a
temp-file-then-rename so readers never observe partial files.

  stream:      t_ms, x_t, r_peak_flag, label_code        (label on the cycle's
               first sample, -1 elsewhere); read back as a preprocess.CvsStream
  cycles:      subject_id, t_start_ms, label_code, v, x_0, ..., x_{v-1}
  calibration: subject_id, 2000 values
"""
from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import IoError, ValidationError
from .labels import QualityLabel
from .preprocess import CALIBRATION_SAMPLES, CalibrationWindow, CvsCycle, CvsStream


def atomic_write(path: str, lines) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            for line in lines:
                f.write(line)
                f.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise IoError(str(exc)) from exc


# --- stream files ---

def write_stream(stream, path: str) -> None:
    """Export a CvsStream or SynthStream's CVS with its R-peak flags and label codes.

    A cycle's label code goes on the sample of its first R-peak; an R-peak
    that is not a sample time gets neither a flag nor a code.
    """
    t_ms, r_peaks = stream.t_ms, stream.r_peaks
    labels = stream.cycle_labels[:max(r_peaks.size - 1, 0)]   # one per cycle start
    label_codes = np.asarray([lab.code for lab in labels], dtype=np.int64)
    # the row of each R-peak in the increasing t_ms, where it is a sample time
    row = np.searchsorted(t_ms, r_peaks)
    on_grid = row < t_ms.size
    on_grid[on_grid] = t_ms[row[on_grid]] == r_peaks[on_grid]
    flags = np.zeros(t_ms.size, dtype=np.int64)
    flags[row[on_grid]] = 1
    codes = np.full(t_ms.size, -1, dtype=np.int64)
    starts = on_grid[:label_codes.size]
    codes[row[:label_codes.size][starts]] = label_codes[starts]
    atomic_write(path, (f"{t},{x!r},{p},{c}" for t, x, p, c in zip(
        t_ms.tolist(), stream.cvs.tolist(), flags.tolist(), codes.tolist())))


_STREAM_ROW = np.dtype([("t_ms", np.int64), ("x", np.float64),
                        ("peak", np.int64), ("code", np.int64)])
_LABEL_CODES = (-1,) + tuple(lab.code for lab in QualityLabel)


def _stream_row_error(path: str, lines: list[str]) -> ValidationError:
    """The first malformed row of a stream file, named by path:line."""
    for ln, line in enumerate(lines, 1):
        parts = line.split(",")
        if len(parts) != 4:
            return ValidationError(f"{path}:{ln}: expected 4 fields, got {len(parts)}")
        for name, text in zip(_STREAM_ROW.names, parts):
            try:
                value = _STREAM_ROW[name].type(text)
            except (ValueError, OverflowError):
                return ValidationError(f"{path}:{ln}: bad {name} field {text!r}")
        if value not in _LABEL_CODES:
            return ValidationError(f"{path}:{ln}: unknown label code {value}")
    return ValidationError(f"{path}: unreadable stream file")


def read_stream(path: str) -> CvsStream:
    """The CvsStream (t_ms, cvs, r_peaks, cycle_labels) of a scalar stream file.

    The rows are parsed in one vectorized pass; a malformed row raises a
    ValidationError naming path:line.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = np.empty(0, dtype=_STREAM_ROW)
    if lines:
        try:
            rows = np.loadtxt(lines, dtype=_STREAM_ROW, delimiter=",",
                              comments=None, ndmin=1)
        except ValueError:
            raise _stream_row_error(path, lines) from None
    # loadtxt skips blank lines, which this format does not allow
    if rows.size != len(lines) or not np.isin(rows["code"], _LABEL_CODES).all():
        raise _stream_row_error(path, lines)
    t_ms, codes = rows["t_ms"].copy(), rows["code"]
    # a code labels the cycle that starts at its row, so the row must be an R-peak
    stray = np.flatnonzero((codes != -1) & (rows["peak"] != 1))
    if stray.size:
        raise ValidationError(f"{path}:{stray[0] + 1}: label code {codes[stray[0]]} "
                              f"on a row that is not an R-peak")
    labels = [QualityLabel.from_code(c) for c in codes[codes != -1].tolist()]
    return CvsStream(t_ms, rows["x"].copy(), t_ms[rows["peak"] == 1], labels)


# --- cycle datasets ---

def write_cycles(cycles, path: str) -> None:
    def lines():
        for c in cycles:
            xs = ",".join(map(repr, c.samples.tolist()))
            yield f"{c.subject_id},{c.t_start_ms},{c.label.code},{c.v},{xs}"
    atomic_write(path, lines())


def read_cycles(path: str) -> list[CvsCycle]:
    out = []
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            parts = line.rstrip("\n").split(",")
            if len(parts) < 4:
                raise ValidationError(f"{path}:{ln}: malformed cycle record")
            try:
                t_start, code, v = int(parts[1]), int(parts[2]), int(parts[3])
                cycle = CvsCycle(subject_id=parts[0], t_start_ms=t_start,
                                 samples=np.asarray([float(p) for p in parts[4:]]),
                                 label=QualityLabel.from_code(code))
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{ln}: {exc}") from None
            if cycle.v != v:
                raise ValidationError(f"{path}:{ln}: declared {v} samples but found {cycle.v}")
            out.append(cycle)
    return out


# --- calibration ---

def write_calibrations(calibrations: dict[str, CalibrationWindow], path: str) -> None:
    def lines():
        for sid in sorted(calibrations):
            xs = ",".join(map(repr, calibrations[sid].samples.tolist()))
            yield f"{sid},{xs}"
    atomic_write(path, lines())


def read_calibrations(path: str) -> dict[str, CalibrationWindow]:
    out = {}
    first_line = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            parts = line.rstrip("\n").split(",")
            # one window per subject: a second row would silently replace the first
            if parts[0] in first_line:
                raise ValidationError(f"{path}:{ln}: subject {parts[0]!r} already has a "
                                      f"calibration row at {path}:{first_line[parts[0]]}")
            first_line[parts[0]] = ln
            if len(parts) != 1 + CALIBRATION_SAMPLES:
                raise ValidationError(
                    f"{path}:{ln}: calibration row must hold {CALIBRATION_SAMPLES} samples")
            try:
                out[parts[0]] = CalibrationWindow(
                    subject_id=parts[0], samples=np.asarray([float(p) for p in parts[1:]]))
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{ln}: {exc}") from None
    return out

"""Line-oriented file formats: streams, cycle datasets, calibration.

All files are comma-separated UTF-8 with LF line endings; a sample is the
repr of its float.  Each row format is defined once (the _*_line functions).
Writes go to temp files that are renamed into place once every file of the
write is complete, so readers never observe a partial file and a write of
several files (gen's, split's) leaves all of them or none.  write_subjects
writes gen's files subject by subject from one text column per subject.

  stream:      t_ms, x_t, r_peak_flag, label_code        (label on the cycle's
               first sample, -1 elsewhere); read back as a preprocess.CvsStream
  cycles:      subject_id, t_start_ms, label_code, v, x_0, ..., x_{v-1}
  calibration: subject_id, 2000 values
"""
from __future__ import annotations

import contextlib
import itertools
import os
import tempfile
from collections import Counter
from collections.abc import Callable

import numpy as np

from .errors import IoError, ValidationError
from .labels import QualityLabel
from .preprocess import (CALIBRATION_SAMPLES, SAMPLE_MS, CalibrationWindow, CvsCycle,
                         CvsStream)


@contextlib.contextmanager
def replacing():
    """Yield open_temp(path): a new temp file beside path, open for writing.

    When the block completes, every temp file is closed and only then are
    they renamed over their paths, in the order opened.  When anything in the
    block raises, every temp file is closed and unlinked, and an OSError is
    raised again as IoError.  open_temp names path, not its temp file, when
    path is a directory or no temp file can be made beside it.
    """
    pending = []   # (file, temp path, target path)

    def open_temp(path):
        if os.path.isdir(path):        # found here, before any file is renamed
            raise IoError(f"{path}: Is a directory")
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       suffix=".tmp")
        except OSError as exc:
            raise IoError(f"{path}: {exc.strerror}") from exc
        f = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
        pending.append((f, tmp, path))
        return f

    try:
        yield open_temp
        for f, _, _ in pending:
            f.close()
        for _, tmp, path in pending:
            os.replace(tmp, path)
    except BaseException as exc:
        for f, tmp, _ in pending:
            # a failed flush fails again on close; a renamed temp is gone
            with contextlib.suppress(OSError):
                f.close()
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoError(str(exc)) from exc
        raise


def _write_lines(f, lines) -> None:
    """Write each line and its LF, up to 4096 lines per write call."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, 4096)):
        f.write("\n".join(chunk))
        f.write("\n")


def atomic_write(path: str, lines) -> None:
    with replacing() as open_temp:
        _write_lines(open_temp(path), lines)


def _text(x: np.ndarray) -> list[str]:
    """The repr of each sample, in order."""
    return list(map(repr, x.tolist()))


def _cycle_line(subject_id: str, t_start_ms: int, code: int, xs: list[str]) -> str:
    return f"{subject_id},{t_start_ms},{code},{len(xs)},{','.join(xs)}"


def _calibration_line(subject_id: str, xs: list[str]) -> str:
    return f"{subject_id},{','.join(xs)}"


def _stream_lines(stream, xs: list[str]):
    """The rows of a stream whose samples' text is xs.

    A cycle's label code goes on the sample of its first R-peak; an R-peak
    that is not a sample time gets neither a flag nor a code.
    """
    t_ms = stream.t_ms.tolist()
    r_peaks = stream.r_peaks.tolist()
    codes = [lab.code for lab in stream.cycle_labels[:max(len(r_peaks) - 1, 0)]]
    codes += [-1] * (len(r_peaks) - len(codes))   # one per cycle start
    tails = [",0,-1"] * len(t_ms)
    # the row of each R-peak in the increasing t_ms, where it is a sample time
    for row, peak, code in zip(np.searchsorted(stream.t_ms, stream.r_peaks).tolist(),
                               r_peaks, codes):
        if row < len(t_ms) and t_ms[row] == peak:
            tails[row] = f",1,{code}"
    return (f"{t},{x}{tail}" for t, x, tail in zip(t_ms, xs, tails))


# --- gen ---

def write_subjects(subjects, cycles_path: str, calib_path: str | None = None,
                   stream_path: Callable[[str], str] | None = None) -> Counter:
    """Write gen's files one subject at a time; the count of cycle rows per label.

    subjects yields (subject_id, stream, cycles, calibration) tuples, such
    as experiment.Subject, one at a time, so that only one subject is held.
    Each cycle must be the contiguous slice of its stream's CVS that starts
    at its t_start_ms, as segment_cycles cuts it.  The cycle rows go to
    cycles_path in subject order; the calibration rows to calib_path, if
    given, in sorted subject order (a subject whose calibration is None has
    none); each stream to stream_path(subject_id), if given.  A subject's
    CVS is formatted once, and all of its rows are built from that text;
    only the calibration rows are held until the last subject, to be sorted.
    Every file is renamed into place once all subjects are written, or none.
    """
    labels = Counter()
    calibration_lines = {}
    with replacing() as open_temp:
        cycles_file = open_temp(cycles_path)
        calib_file = open_temp(calib_path) if calib_path else None
        for sid, stream, cycles, calibration in subjects:
            xs = _text(stream.cvs)
            rows = []
            for c in cycles:
                i0 = (c.t_start_ms - int(stream.t_ms[0])) // SAMPLE_MS
                rows.append(_cycle_line(sid, c.t_start_ms, c.label.code, xs[i0:i0 + c.v]))
                labels[c.label] += 1
            _write_lines(cycles_file, rows)
            if calib_path and calibration is not None:
                calibration_lines[sid] = _calibration_line(sid, xs[:CALIBRATION_SAMPLES])
            if stream_path:
                with open_temp(stream_path(sid)) as f:
                    _write_lines(f, _stream_lines(stream, xs))
        if calib_path:
            _write_lines(calib_file, (calibration_lines[sid]
                                      for sid in sorted(calibration_lines)))
    return labels


# --- stream files ---

def write_stream(stream, path: str) -> None:
    """Export a CvsStream or SynthStream's CVS with its R-peak flags and label codes."""
    atomic_write(path, _stream_lines(stream, _text(stream.cvs)))


_STREAM_ROW = np.dtype([("t_ms", np.int64), ("x", np.float64),
                        ("peak", np.int64), ("code", np.int64)])
_LABEL_CODES = (-1,) + tuple(lab.code for lab in QualityLabel)


def _stream_row_error(path: str, text: str) -> ValidationError:
    """The first malformed row of a stream file's text, named by path:line."""
    for ln, line in enumerate(text.removesuffix("\n").split("\n"), 1):
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

    loadtxt parses the file in one vectorized pass.  Its text is read only
    to count the lines, and split into lines only to name the first bad row
    of a malformed file as path:line.
    """
    with open(path, encoding="utf-8") as f:
        text = f.read()
    n_lines = text.count("\n") + (text[-1:] not in ("", "\n"))
    rows = np.empty(0, dtype=_STREAM_ROW)
    if text and not text.isspace():   # loadtxt warns of a file with no data
        try:
            rows = np.loadtxt(path, dtype=_STREAM_ROW, delimiter=",",
                              comments=None, ndmin=1, encoding="utf-8")
        except ValueError:
            raise _stream_row_error(path, text) from None
    # loadtxt skips blank lines, which this format does not allow
    if rows.size != n_lines or not np.isin(rows["code"], _LABEL_CODES).all():
        raise _stream_row_error(path, text)
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
    write_cycle_files([(cycles, path)])


def write_cycle_files(files) -> None:
    """Write each (cycles, path) pair; every file is renamed into place, or none."""
    with replacing() as open_temp:
        for cycles, path in files:
            _write_lines(open_temp(path), (
                _cycle_line(c.subject_id, c.t_start_ms, c.label.code, _text(c.samples))
                for c in cycles))


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
    atomic_write(path, (_calibration_line(sid, _text(calibrations[sid].samples))
                        for sid in sorted(calibrations)))


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

import os
import types

import numpy as np
import pytest

from cvsqi import dataio
from cvsqi.errors import ValidationError
from cvsqi.forward import SynthScenario, synthesize_stream
from cvsqi.labels import QualityLabel
from cvsqi.preprocess import CALIBRATION_SAMPLES, CalibrationWindow, CvsCycle, CvsStream


def make_cycles(rng, n=5):
    out = []
    for i in range(n):
        v = int(rng.integers(2, 120))
        out.append(CvsCycle(subject_id=f"s{i % 2}", t_start_ms=800 * i,
                            samples=rng.normal(size=v),
                            label=list(QualityLabel)[i % 3]))
    return out


def ref_fmt(v) -> str:
    """Reference float formatting: the repr of a Python float."""
    return repr(float(v))


# signed zero, the smallest subnormal, huge, inexact sums and integral floats
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e-300, 0.1 + 0.2, 1.0,
                    -7.0, 2.0 ** 53, 1e16, 123456789.0, 1 / 3])


def ref_stream_lines(stream):
    """Reference stream rows, one sample at a time."""
    codes = {int(a): lab.code for a, lab in zip(stream.r_peaks[:-1], stream.cycle_labels)}
    peaks = {int(p) for p in stream.r_peaks}
    return [f"{int(t)},{ref_fmt(x)},{1 if int(t) in peaks else 0},{codes.get(int(t), -1)}"
            for t, x in zip(stream.t_ms, stream.cvs)]


def read_lines(path):
    with open(path, encoding="utf-8", newline="") as f:
        text = f.read()
    assert text.endswith("\n") or text == ""
    return text.split("\n")[:-1]


class TestWriterFormatting:
    def test_cycles_byte_identical_to_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        cycles = make_cycles(rng) + [CvsCycle("s9", 80, SPECIAL, QualityLabel.MOTION)]
        path = str(tmp_path / "cycles.csv")
        dataio.write_cycles(cycles, path)
        assert read_lines(path) == [
            f"{c.subject_id},{c.t_start_ms},{c.label.code},{c.v},"
            + ",".join(ref_fmt(v) for v in c.samples) for c in cycles]

    def test_calibrations_byte_identical_to_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=CALIBRATION_SAMPLES)
        samples[:SPECIAL.size] = SPECIAL
        cals = {sid: CalibrationWindow(subject_id=sid, samples=rng.permutation(samples))
                for sid in ("s2", "s0", "s1")}
        path = str(tmp_path / "calib.csv")
        dataio.write_calibrations(cals, path)
        assert read_lines(path) == [
            f"{sid}," + ",".join(ref_fmt(v) for v in cals[sid].samples) for sid in sorted(cals)]

    @pytest.mark.parametrize("n_labels", [0, 3, 4, 5])
    def test_stream_byte_identical_to_reference(self, tmp_path, n_labels):
        # 55 and 200 are R-peaks but not sample times: no flag and no code
        t_ms = np.arange(15, dtype=np.int64) * 10
        labels = [QualityLabel.MOTION, QualityLabel.NORMAL, QualityLabel.AMBIGUOUS,
                  QualityLabel.NORMAL, QualityLabel.MOTION][:n_labels]
        stream = types.SimpleNamespace(t_ms=t_ms, cvs=np.concatenate([SPECIAL, [-1.5, 2.25]]),
                                       r_peaks=np.array([0, 30, 55, 80, 120, 200]),
                                       cycle_labels=labels)
        path = str(tmp_path / "stream.csv")
        dataio.write_stream(stream, path)
        assert read_lines(path) == ref_stream_lines(stream)

    def test_off_grid_and_out_of_range_r_peaks(self, tmp_path):
        # 0 precedes the first sample, 135 and 167 are off the grid (135 starts a
        # labeled cycle), 190 is the last sample and 400 is past it
        t_ms = np.arange(100, 200, 10, dtype=np.int64)
        stream = types.SimpleNamespace(
            t_ms=t_ms, cvs=np.linspace(-1.0, 1.0, t_ms.size),
            r_peaks=np.array([0, 110, 135, 150, 167, 190, 400]),
            cycle_labels=[QualityLabel.MOTION, QualityLabel.NORMAL, QualityLabel.AMBIGUOUS,
                          QualityLabel.MOTION, QualityLabel.NORMAL, QualityLabel.AMBIGUOUS])
        path = str(tmp_path / "stream.csv")
        dataio.write_stream(stream, path)
        lines = read_lines(path)
        assert lines == ref_stream_lines(stream)
        assert [line.split(",")[2:] for line in lines if not line.endswith(",0,-1")] == [
            ["1", "1"], ["1", "0"], ["1", "2"]]   # rows 110, 150 and 190

    def test_synthetic_stream_byte_identical_to_reference(self, tmp_path, seed):
        stream = synthesize_stream(SynthScenario(subject_seed=seed, duration_ms=6_000,
                                                 rr_intervals_ms=(730, 810)))
        path = str(tmp_path / "stream.csv")
        dataio.write_stream(stream, path)
        assert read_lines(path) == ref_stream_lines(stream)


class TestCycleFiles:
    def test_round_trip(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        cycles = make_cycles(rng)
        path = str(tmp_path / "cycles.csv")
        dataio.write_cycles(cycles, path)
        back = dataio.read_cycles(path)
        assert len(back) == len(cycles)
        for a, b in zip(cycles, back):
            assert a.subject_id == b.subject_id
            assert a.t_start_ms == b.t_start_ms
            assert a.label is b.label
            assert np.array_equal(a.samples, b.samples)   # repr round trip

    def test_declared_length_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s0,0,1,3,1.0,2.0\n")
        with pytest.raises(ValidationError):
            dataio.read_cycles(str(path))

    @pytest.mark.parametrize("row", ["s1,8x0,1,2,1.0,2.0", "s1,800,1,2,1.0,two",
                                     "s1,800,7,2,1.0,2.0", "s1,800,1,2.0,1.0,2.0",
                                     "s1,800,1,1,1.0"],
                             ids=["t_start-not-int", "sample-not-float",
                                  "unknown-label-code", "v-not-int", "one-sample"])
    def test_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"s0,0,1,2,1.0,2.0\n{row}\n")
        with pytest.raises(ValidationError, match=f"{path}:2: "):
            dataio.read_cycles(str(path))


class TestCalibrationFiles:
    def test_round_trip(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        cals = {f"s{i}": CalibrationWindow(
            subject_id=f"s{i}", samples=rng.normal(size=CALIBRATION_SAMPLES))
            for i in range(3)}
        path = str(tmp_path / "calib.csv")
        dataio.write_calibrations(cals, path)
        back = dataio.read_calibrations(path)
        assert back.keys() == cals.keys()
        for k in cals:
            assert np.array_equal(back[k].samples, cals[k].samples)

    def test_wrong_sample_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s0," + ",".join(["0.0"] * 10) + "\n")
        with pytest.raises(ValidationError):
            dataio.read_calibrations(str(path))

    def test_non_numeric_sample(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = ",".join(["0.5"] * CALIBRATION_SAMPLES)
        path.write_text(f"s0,{good}\ns1,{good[:-3]}abc\n")
        with pytest.raises(ValidationError, match=f"{path}:2: .*'abc'"):
            dataio.read_calibrations(str(path))


    def test_duplicate_subject_names_both_lines(self, tmp_path):
        # the second s0 row would otherwise replace the first without a word
        path = tmp_path / "dup.csv"
        row = ",".join(["1.0"] * CALIBRATION_SAMPLES)
        path.write_text(f"s0,{row}\ns1,{row}\ns0,{row.replace('1.0', '2.0')}\n")
        with pytest.raises(ValidationError, match=f"{path}:3: subject 's0' already has "
                                                  f"a calibration row at {path}:1"):
            dataio.read_calibrations(str(path))


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        scenario = SynthScenario(subject_seed=1, duration_ms=8_000,
                                 rr_intervals_ms=(800,))
        stream = synthesize_stream(scenario)
        path = str(tmp_path / "stream.csv")
        dataio.write_stream(stream, path)
        back = dataio.read_stream(path)
        assert isinstance(back, CvsStream)
        t, x, peaks, labels = back
        assert np.array_equal(t, stream.t_ms)
        assert np.array_equal(x, stream.cvs)
        assert np.array_equal(peaks, stream.r_peaks)
        assert labels == stream.cycle_labels

    @pytest.mark.parametrize("row", ["20,1.0,0", "20,1.0,0,-1,7", "2x,1.0,0,-1",
                                     "20,1.0,1.0,-1"],
                             ids=["3-fields", "5-fields", "t_ms-not-int", "flag-not-int"])
    def test_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,0.5,1,1\n10,0.7,0,-1\n{row}\n30,0.2,1,-1\n")
        with pytest.raises(ValidationError, match=f"{path}:3:"):
            dataio.read_stream(str(path))

    def test_label_code_off_an_r_peak(self, tmp_path):
        # the code 2 on line 2 would otherwise label the cycle from 20 ms
        path = tmp_path / "stray.csv"
        path.write_text("0,0.1,1,1\n10,0.2,0,2\n20,0.3,1,-1\n30,0.4,0,-1\n40,0.5,1,-1\n")
        with pytest.raises(ValidationError, match=f"{path}:2: label code 2 on a row "
                                                  "that is not an R-peak"):
            dataio.read_stream(str(path))


class TestAtomicWrite:
    def test_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "out.txt")
        dataio.atomic_write(path, ["a", "b"])
        assert os.listdir(tmp_path) == ["out.txt"]
        with open(path) as f:
            assert f.read() == "a\nb\n"

    def test_overwrite_is_complete(self, tmp_path):
        path = str(tmp_path / "out.txt")
        dataio.atomic_write(path, ["long line " * 100])
        dataio.atomic_write(path, ["short"])
        with open(path) as f:
            assert f.read() == "short\n"

import os

import numpy as np
import pytest

from cvsqi import dataio
from cvsqi.errors import ValidationError
from cvsqi.forward import SynthScenario, synthesize_stream
from cvsqi.labels import QualityLabel
from cvsqi.preprocess import CALIBRATION_SAMPLES, CalibrationWindow, CvsCycle


def make_cycles(rng, n=5):
    out = []
    for i in range(n):
        v = int(rng.integers(2, 120))
        out.append(CvsCycle(subject_id=f"s{i % 2}", t_start_ms=800 * i,
                            samples=rng.normal(size=v),
                            label=list(QualityLabel)[i % 3]))
    return out


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


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        scenario = SynthScenario(subject_seed=1, duration_ms=8_000,
                                 rr_intervals_ms=(800,))
        stream = synthesize_stream(scenario)
        path = str(tmp_path / "stream.csv")
        dataio.write_stream(stream, path)
        t, x, peaks, labels = dataio.read_stream(path)
        assert np.array_equal(t, stream.t_ms)
        assert np.array_equal(x, stream.cvs)
        assert np.array_equal(peaks, stream.r_peaks)
        assert labels == stream.cycle_labels

    def test_channel_variant_field_count(self, tmp_path):
        scenario = SynthScenario(subject_seed=1, duration_ms=1_000,
                                 rr_intervals_ms=(800,))
        stream = synthesize_stream(scenario)
        path = str(tmp_path / "chan.csv")
        dataio.write_stream(stream, path, channels=True)
        with open(path) as f:
            first = f.readline().rstrip("\n").split(",")
        assert len(first) == 1 + 208 + 2

    @pytest.mark.parametrize("row", ["20,1.0,0", "20,1.0,0,-1,7", "2x,1.0,0,-1",
                                     "20,1.0,1.0,-1"],
                             ids=["3-fields", "5-fields", "t_ms-not-int", "flag-not-int"])
    def test_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,0.5,1,1\n10,0.7,0,-1\n{row}\n30,0.2,1,-1\n")
        with pytest.raises(ValidationError, match=f"{path}:3:"):
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

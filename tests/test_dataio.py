import json
import os
import types
import warnings

import numpy as np
import pytest

from cvsqi import cli, dataio, experiment
from cvsqi.errors import ValidationError
from cvsqi.forward import SynthScenario, synthesize_stream
from cvsqi.labels import QualityLabel
from cvsqi.preprocess import (CALIBRATION_SAMPLES, CalibrationWindow, CvsCycle, CvsStream,
                              calibration_from_stream, cycles_from_stream)


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

    @pytest.mark.parametrize("text,line", [("\n", 1), ("\n \n", 1), ("0,0.5,1,1\n\n", 2)])
    def test_blank_line_rejected_without_warning(self, tmp_path, text, line):
        # a file of blank lines alone used to make loadtxt warn of no data
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"{path}:{line}: expected 4 fields"):
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

    def test_failing_lines_leave_no_temp(self, tmp_path):
        def lines():
            yield "a"
            raise ValidationError("bad row")
        with pytest.raises(ValidationError, match="bad row"):
            dataio.atomic_write(str(tmp_path / "out.txt"), lines())
        assert os.listdir(tmp_path) == []

    def test_overwrite_is_complete(self, tmp_path):
        path = str(tmp_path / "out.txt")
        dataio.atomic_write(path, ["long line " * 100])
        dataio.atomic_write(path, ["short"])
        with open(path) as f:
            assert f.read() == "short\n"


# --- gen's files against the per-file writers ---

def ref_write_cycles(cycles, path):
    """Reference cycle writer: every cycle's samples formatted on their own."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for c in cycles:
            xs = ",".join(map(repr, c.samples.tolist()))
            f.write(f"{c.subject_id},{c.t_start_ms},{c.label.code},{c.v},{xs}\n")


def ref_write_calibrations(calibrations, path):
    """Reference calibration writer: one row per window, in sorted subject order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for sid in sorted(calibrations):
            f.write(f"{sid}," + ",".join(map(repr, calibrations[sid].samples.tolist())) + "\n")


def ref_write_stream(stream, path):
    """Reference stream writer, its columns built with numpy as a whole."""
    t_ms, r_peaks = stream.t_ms, stream.r_peaks
    labels = stream.cycle_labels[:max(r_peaks.size - 1, 0)]
    label_codes = np.asarray([lab.code for lab in labels], dtype=np.int64)
    row = np.searchsorted(t_ms, r_peaks)
    on_grid = row < t_ms.size
    on_grid[on_grid] = t_ms[row[on_grid]] == r_peaks[on_grid]
    flags = np.zeros(t_ms.size, dtype=np.int64)
    flags[row[on_grid]] = 1
    codes = np.full(t_ms.size, -1, dtype=np.int64)
    starts = on_grid[:label_codes.size]
    codes[row[:label_codes.size][starts]] = label_codes[starts]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for t, x, p, c in zip(t_ms.tolist(), stream.cvs.tolist(), flags.tolist(),
                              codes.tolist()):
            f.write(f"{t},{x!r},{p},{c}\n")


def ref_gen_files(out, cycles, calibrations, streams, calib, stream):
    """What gen should write to out, by the reference writers."""
    ref_write_cycles(cycles, out / "c.csv")
    if calib:
        ref_write_calibrations(calibrations, out / "k.csv")
    if stream:
        for sid, s in streams.items():
            ref_write_stream(s, out / ("s.csv" + (f".{sid}" if len(streams) > 1 else "")))


def gen_argv(out, calib, stream):
    argv = ["--out-cycles", out / "c.csv"]
    if calib:
        argv += ["--out-calib", out / "k.csv"]
    if stream:
        argv += ["--out-stream", out / "s.csv"]
    return argv


def assert_same_files(got, want):
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    for name in os.listdir(want):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def run_cli(argv):
    return cli.main([str(a) for a in argv])


OUTPUTS = [(False, False), (True, False), (False, True), (True, True)]
OUTPUT_IDS = ["cycles", "calib", "stream", "calib-stream"]


class TestGenFiles:
    @pytest.mark.parametrize("calib,stream", OUTPUTS, ids=OUTPUT_IDS)
    @pytest.mark.parametrize("n_subjects", [1, 3])
    def test_byte_identical_to_per_file_writers(self, tmp_path, n_subjects, calib, stream):
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        assert run_cli(["gen", "--seed", 5, "--subjects", n_subjects,
                        "--duration-ms", 30_000, *gen_argv(got, calib, stream)]) == 0
        ds = experiment.generate_dataset(5, n_subjects, 30_000, keep_streams=True)
        ref_gen_files(want, ds.cycles, ds.calibrations, ds.streams, calib, stream)
        assert_same_files(got, want)

    @pytest.mark.parametrize("duration_ms", [30_000, 15_000], ids=["30s", "15s"])
    def test_scenario_byte_identical_to_per_file_writers(self, tmp_path, duration_ms):
        # a scenario under 20 s has cycles in its first 20 s but no calibration row
        doc = {"subject_seed": 4, "duration_ms": duration_ms, "rr_intervals_ms": [760, 840],
               "subject_id": "x7", "motion_events": [
                   {"start_ms": 9000, "duration_ms": 1500, "amplitude": 2.0,
                    "shape": "sway"}]}
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        assert run_cli(["gen", "--scenario", scen, *gen_argv(got, True, True)]) == 0
        synth = synthesize_stream(cli.scenario_from_file(str(scen)))
        cals = ({"x7": calibration_from_stream(synth, "x7")}
                if duration_ms >= 20_000 else {})
        ref_gen_files(want, cycles_from_stream(synth, "x7", skip_calibration=False),
                      cals, {"x7": synth}, True, True)
        assert_same_files(got, want)
        assert ((got / "k.csv").read_text() == "") == (duration_ms < 20_000)

    def test_101_subjects_calibration_rows_in_sorted_order(self, tmp_path):
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        assert run_cli(["gen", "--seed", 2, "--subjects", 101, "--duration-ms", 21_000,
                        *gen_argv(got, True, True)]) == 0
        ds = experiment.generate_dataset(2, 101, 21_000, keep_streams=True)
        ref_gen_files(want, ds.cycles, ds.calibrations, ds.streams, True, True)
        assert_same_files(got, want)
        sids = [line.split(",", 1)[0] for line in read_lines(got / "k.csv")]
        assert sids[10:13] == ["s10", "s100", "s11"] and len(sids) == 101

    def test_special_values_round_trip(self, tmp_path):
        cvs = np.array([0.5, -0.0, 5e-324, 1e-05, 1e16, np.inf, 0.25, -1.5, 2.0, 1e-05])
        stream = CvsStream(np.arange(cvs.size, dtype=np.int64) * 10, cvs,
                           np.array([0, 30, 60, 90]),
                           [QualityLabel.NORMAL, QualityLabel.MOTION, QualityLabel.AMBIGUOUS])
        cycles = cycles_from_stream(stream, "h", skip_calibration=False)
        counts = dataio.write_subjects([("h", stream, cycles, None)],
                                       str(tmp_path / "c.csv"), str(tmp_path / "k.csv"),
                                       lambda sid: str(tmp_path / f"s.{sid}"))
        assert counts == {QualityLabel.NORMAL: 1, QualityLabel.MOTION: 1,
                          QualityLabel.AMBIGUOUS: 1}
        assert read_lines(tmp_path / "s.h")[1:6] == [
            "10,-0.0,0,-1", "20,5e-324,0,-1", "30,1e-05,1,0", "40,1e+16,0,-1",
            "50,inf,0,-1"]
        assert (tmp_path / "k.csv").read_text() == ""
        back = dataio.read_stream(str(tmp_path / "s.h"))
        assert back.cvs.tobytes() == cvs.tobytes()   # -0.0 keeps its sign bit
        assert np.array_equal(back.r_peaks, stream.r_peaks)
        assert back.cycle_labels == stream.cycle_labels
        got = dataio.read_cycles(str(tmp_path / "c.csv"))
        assert [c.samples.tobytes() for c in got] == [c.samples.tobytes() for c in cycles]

    def test_missing_stream_directory_leaves_no_file(self, tmp_path, capsys):
        assert run_cli(["gen", "--seed", 0, "--subjects", 2, "--duration-ms", 25_000,
                        "--out-cycles", tmp_path / "c.csv", "--out-calib",
                        tmp_path / "k.csv", "--out-stream",
                        tmp_path / "missing" / "s.csv"]) == 3
        assert "error:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("n_subjects", [0, -1])
    def test_subjects_below_one_exit_2(self, tmp_path, capsys, n_subjects):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--subjects", n_subjects, *gen_argv(tmp_path, True, True)])
        assert exc.value.code == 2
        assert (f"error: argument --subjects: must be a positive integer, "
                f"got '{n_subjects}'\n") in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_failing_subject_leaves_no_file(self, tmp_path):
        def subjects():
            yield from experiment.iter_subjects(0, 1, 25_000)
            raise ValidationError("subject s01 fails")
        with pytest.raises(ValidationError, match="s01 fails"):
            dataio.write_subjects(subjects(), str(tmp_path / "c.csv"),
                                  str(tmp_path / "k.csv"),
                                  lambda sid: str(tmp_path / f"s.{sid}"))
        assert os.listdir(tmp_path) == []

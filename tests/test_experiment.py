"""generate_dataset against a reference loop kept here, and its stop at the
first failing subject."""
import numpy as np
import pytest

from cvsqi import experiment
from cvsqi.errors import InvalidScenario
from cvsqi.forward import synthesize_stream
from cvsqi.preprocess import CvsStream, calibration_from_stream, cycles_from_stream

DURATION_MS = 25_000      # just past the 20 s calibration window


def serial_dataset(seed, n_subjects, duration_ms, keep_streams):
    """One subject after another: the reference."""
    cycles, calibrations, streams = [], {}, {}
    for i in range(n_subjects):
        scenario = experiment.default_subject_scenario(seed, i, duration_ms)
        sid = scenario.subject_id
        stream = synthesize_stream(scenario)
        cycles.extend(cycles_from_stream(stream, sid))
        calibrations[sid] = calibration_from_stream(stream, sid)
        if keep_streams:
            streams[sid] = CvsStream(stream.t_ms, stream.cvs, stream.r_peaks,
                                     stream.cycle_labels)
    return cycles, calibrations, streams


class Recorder:
    """Wraps synthesize_stream: records the subjects started and raises
    InvalidScenario for one subject."""

    def __init__(self, fail_sid):
        self.fail_sid = fail_sid
        self.started = []

    def __call__(self, scenario):
        self.started.append(scenario.subject_id)
        if scenario.subject_id == self.fail_sid:
            raise InvalidScenario(f"subject {scenario.subject_id} fails")
        return synthesize_stream(scenario)


class TestGenerateDataset:
    @pytest.mark.parametrize("keep_streams", [False, True])
    @pytest.mark.parametrize("n_subjects", [0, 1, 2, 3, 5])
    def test_matches_serial_loop(self, n_subjects, keep_streams):
        ds = experiment.generate_dataset(3, n_subjects, DURATION_MS, keep_streams)
        cycles, calibrations, streams = serial_dataset(3, n_subjects, DURATION_MS,
                                                       keep_streams)
        assert len(ds.cycles) == len(cycles)
        for got, want in zip(ds.cycles, cycles):
            assert (got.subject_id, got.t_start_ms, got.label) == \
                (want.subject_id, want.t_start_ms, want.label)
            assert np.array_equal(got.samples, want.samples)
        assert list(ds.calibrations) == list(calibrations)
        for sid, cal in calibrations.items():
            assert ds.calibrations[sid].subject_id == sid
            assert np.array_equal(ds.calibrations[sid].samples, cal.samples)
        assert list(ds.streams) == list(streams)
        for sid, stream in streams.items():
            for got, want in zip(ds.streams[sid][:3], stream[:3]):
                assert np.array_equal(got, want)
            assert ds.streams[sid].cycle_labels == stream.cycle_labels

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_failure_propagates_and_stops_the_queue(self, monkeypatch, k):
        record = Recorder(fail_sid=f"s{k:02d}")
        monkeypatch.setattr(experiment, "synthesize_stream", record)
        with pytest.raises(InvalidScenario, match=f"subject s{k:02d} fails"):
            experiment.generate_dataset(0, 6, DURATION_MS)
        assert record.started == [f"s{i:02d}" for i in range(k + 1)]

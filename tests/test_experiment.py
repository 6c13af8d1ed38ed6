"""generate_dataset synthesizes subjects on a thread pool; these tests hold it
to the serial loop it replaced."""
import sys
import threading

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


@pytest.fixture
def fast_thread_switches():
    """Switch threads every microsecond, so that an order the pool does not
    enforce would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class Recorder:
    """Wraps synthesize_stream: counts calls and the most running at once,
    and raises InvalidScenario for one subject."""

    def __init__(self, fail_sid=None):
        self.fail_sid = fail_sid
        self.started = []
        self.running = self.most_running = 0
        self.lock = threading.Lock()

    def __call__(self, scenario):
        with self.lock:
            self.started.append(scenario.subject_id)
            self.running += 1
            self.most_running = max(self.most_running, self.running)
        try:
            if scenario.subject_id == self.fail_sid:
                raise InvalidScenario(f"subject {scenario.subject_id} fails")
            return synthesize_stream(scenario)
        finally:
            with self.lock:
                self.running -= 1


class TestGenerateDataset:
    @pytest.mark.parametrize("keep_streams", [False, True])
    @pytest.mark.parametrize("n_subjects", [0, 1, 2, 3, 5])
    def test_matches_serial_loop(self, fast_thread_switches, n_subjects, keep_streams):
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

    @pytest.mark.parametrize("cpus,most", [(1, 1), (2, 2), (8, 2)])
    def test_subjects_in_flight(self, monkeypatch, cpus, most):
        record = Recorder()
        monkeypatch.setattr(experiment, "synthesize_stream", record)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        experiment.generate_dataset(0, 5, DURATION_MS)
        assert sorted(record.started) == [f"s{i:02d}" for i in range(5)]
        assert record.most_running == most

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_failure_propagates_and_stops_the_queue(self, monkeypatch, k):
        record = Recorder(fail_sid=f"s{k:02d}")
        monkeypatch.setattr(experiment, "synthesize_stream", record)
        with pytest.raises(InvalidScenario, match=f"subject s{k:02d} fails"):
            experiment.generate_dataset(0, 6, DURATION_MS)
        assert len(record.started) <= k + 2
        assert record.running == 0       # no subject is left running

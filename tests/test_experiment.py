"""generate_dataset: subject order, the kept streams, the empty dataset, and
its stop at the first failing subject; model.score: one verdict rule for
manifold models."""
import numpy as np
import pytest

from cvsqi import experiment, manifold
from cvsqi.errors import InvalidField, ValidationError
from cvsqi.forward import synthesize_stream
from cvsqi.preprocess import (calibration_from_stream, cycles_from_stream,
                              normalize_dataset)

DURATION_MS = 25_000      # just past the 20 s calibration window


class Recorder:
    """Wraps synthesize_stream: records the subjects started and raises
    InvalidField for one subject."""

    def __init__(self, fail_sid):
        self.fail_sid = fail_sid
        self.started = []

    def __call__(self, scenario):
        self.started.append(scenario.subject_id)
        if scenario.subject_id == self.fail_sid:
            raise InvalidField(f"subject {scenario.subject_id} fails")
        return synthesize_stream(scenario)


class TestGenerateDataset:
    def test_empty_dataset(self):
        ds = experiment.generate_dataset(3, 0, DURATION_MS, keep_streams=True)
        assert ds.cycles == [] and ds.calibrations == {} and ds.streams == {}

    @pytest.mark.parametrize("n_subjects", [1, 3])
    def test_subjects_in_order(self, n_subjects):
        ds = experiment.generate_dataset(3, n_subjects, DURATION_MS)
        sids = [f"s{i:02d}" for i in range(n_subjects)]
        assert list(ds.calibrations) == sids and ds.streams == {}
        # subject after subject, each subject's cycles in time order
        order = [(sids.index(c.subject_id), c.t_start_ms) for c in ds.cycles]
        assert order == sorted(order)
        assert {c.subject_id for c in ds.cycles} == set(sids)

    def test_kept_streams_are_the_synthesized_ones(self):
        ds = experiment.generate_dataset(3, 3, DURATION_MS, keep_streams=True)
        assert list(ds.streams) == list(ds.calibrations)
        for i, (sid, kept) in enumerate(ds.streams.items()):
            scenario = experiment.default_subject_scenario(3, i, DURATION_MS)
            stream = synthesize_stream(scenario)
            assert scenario.subject_id == sid
            for got, want in zip(kept[:3], (stream.t_ms, stream.cvs, stream.r_peaks)):
                assert np.array_equal(got, want)
            assert kept.cycle_labels == stream.cycle_labels
            # the subject's cycles and calibration window come from that stream
            cycles = [c for c in ds.cycles if c.subject_id == sid]
            want = cycles_from_stream(kept, sid)
            assert [(c.t_start_ms, c.label) for c in cycles] == \
                [(c.t_start_ms, c.label) for c in want]
            assert all(np.array_equal(c.samples, w.samples) for c, w in zip(cycles, want))
            assert np.array_equal(ds.calibrations[sid].samples,
                                  calibration_from_stream(kept, sid).samples)

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_failure_propagates_and_stops_the_queue(self, monkeypatch, k):
        record = Recorder(fail_sid=f"s{k:02d}")
        monkeypatch.setattr(experiment, "synthesize_stream", record)
        with pytest.raises(InvalidField, match=f"subject s{k:02d} fails"):
            experiment.generate_dataset(0, 6, DURATION_MS)
        assert record.started == [f"s{i:02d}" for i in range(k + 1)]


def mid_pool_model(kind, x):
    """A PCA fit on x, or an untrained VAE, thresholded mid-way through x's residuals."""
    model = manifold.pca_fit(x) if kind == "pca" else manifold.build_vae(kind, seed=0)
    r = np.sort(manifold.residuals(model, x))
    model.threshold_d = float(r[len(r) // 2 - 1: len(r) // 2 + 1].mean())
    return model


@pytest.fixture(scope="module")
def cycle_matrix():
    ds = experiment.generate_dataset(0, n_subjects=2, duration_ms=60_000)
    return normalize_dataset(ds.cycles, "interp", "subject", ds.calibrations)[0]


class TestVerdictRule:
    @pytest.mark.parametrize("kind", ["pca", "bcvae"])
    def test_assess_row_by_row_is_the_batch_verdict(self, cycle_matrix, kind):
        model = mid_pool_model(kind, cycle_matrix)
        verdicts = model.score(cycle_matrix)[1]
        assert 0 < verdicts.sum() < len(verdicts)
        assert [manifold.assess(model, x) for x in cycle_matrix] == verdicts.tolist()

    @pytest.mark.parametrize("kind", ["pca", "bcvae"])
    def test_unset_threshold_one_error(self, cycle_matrix, kind):
        model = mid_pool_model(kind, cycle_matrix)
        model.threshold_d = None
        with pytest.raises(ValidationError, match="^manifold model has no threshold; "
                                                 "run `threshold` first$") as batch:
            model.score(cycle_matrix)
        with pytest.raises(ValidationError, match="^manifold model has no threshold; "
                                                 "run `threshold` first$") as single:
            manifold.assess(model, cycle_matrix[0])
        assert str(batch.value) == str(single.value)

"""Desk-scale synthetic experiment: dataset generation, splits and model runs.

The default dataset mimics the clinical class mix (~80/10/10
normal/ambiguous/motion) across several subjects with widely varying
cardiogenic gain, so that subject-specific scale normalization matters and its
ablation measurably degrades classifier AUC.  iter_subjects synthesizes
the subjects one at a time: gen writes each as it comes, and generate_dataset
collects them.

run_discriminative and run_manifold each train one model on prepared splits
and report its test metrics from model.score, the verdict rule that the CLI
applies too; run_manifold fits and thresholds through manifold.train_kind and
set_threshold, as the CLI does.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import discriminative, manifold
from .evaluation import evaluate_scores, split_by_subject
from .forward import MotionEvent, SynthScenario, beat_budget, check_duration, synthesize_stream
from .labels import QualityLabel
from .nn import DEFAULT_LR
from .preprocess import (CALIBRATION_MS, CalibrationWindow, CvsCycle, CvsStream,
                         calibration_from_stream, cycles_from_stream,
                         normalize_dataset)


DEFAULT_DURATION_MS = 110_000   # one synthetic subject's recording
DEFAULT_SUBJECTS = 20           # subjects in a generated dataset


def _subject_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def default_subject_scenario(seed: int, index: int,
                             duration_ms: int = DEFAULT_DURATION_MS) -> SynthScenario:
    """One subject's scenario: jittered RR, log-uniform gain, scheduled events."""
    check_duration(duration_ms)                # before the RR list is drawn
    rng = np.random.default_rng([seed, index, 7])
    base_rr = int(rng.integers(65, 96)) * 10
    rr = (base_rr + rng.integers(-3, 4, size=beat_budget(duration_ms)) * 10).tolist()

    gain = float(10 ** rng.uniform(math.log10(0.2), math.log10(2.5)))

    events = []
    t = CALIBRATION_MS + 1000
    while t < duration_ms - 4000:
        dur = int(rng.integers(8, 27)) * 100
        if rng.uniform() < 0.42:
            amp = float(rng.uniform(0.55, 1.45))   # ambiguous band
        else:
            amp = float(rng.uniform(1.7, 2.6))     # clearly motion
        u = rng.uniform()
        if u < 0.6:     # amplitude artifact: no shape cue, needs the scale reference
            shape = "sway"
        else:
            shape = ["step", "ramp", "burst"][int(rng.integers(0, 3))]
        events.append(MotionEvent(start_ms=t, duration_ms=dur, amplitude=amp,
                                  shape=shape))
        t += dur + int(rng.integers(60, 121)) * 100

    return SynthScenario(subject_seed=_subject_seed(seed, index),
                         duration_ms=duration_ms,
                         rr_intervals_ms=rr, motion_events=events, gain=gain,
                         subject_id=f"s{index:02d}")


class Subject(NamedTuple):
    """One synthesized subject: the scalar recording and what is cut from it."""

    subject_id: str
    stream: CvsStream                       # the scalar recording
    cycles: list[CvsCycle]                  # contiguous slices of stream.cvs
    calibration: CalibrationWindow | None   # None: a recording under 20 s


def iter_subjects(seed: int, n_subjects: int,
                  duration_ms: int = DEFAULT_DURATION_MS) -> Iterator[Subject]:
    """Synthesize n_subjects recordings, one per step, in subject order.

    Subject k comes from its own (seed, k).  Its cycles start from 20 s on,
    and a duration under 20 s raises MissingCalibration; if subject k raises,
    no later subject starts.
    """
    for i in range(n_subjects):
        scenario = default_subject_scenario(seed, i, duration_ms)
        sid = scenario.subject_id
        synth = synthesize_stream(scenario)
        # the scalar recording only: the (n,) motion CVS is not kept
        stream = CvsStream(synth.t_ms, synth.cvs, synth.r_peaks, synth.cycle_labels)
        yield Subject(sid, stream, cycles_from_stream(stream, sid),
                      calibration_from_stream(stream, sid))


@dataclass
class SyntheticDataset:
    cycles: list[CvsCycle]
    calibrations: dict[str, CalibrationWindow]
    streams: dict[str, CvsStream] = field(default_factory=dict)   # with keep_streams

    def class_fractions(self) -> dict[str, float]:
        n = len(self.cycles)
        counts = {lab: 0 for lab in QualityLabel}
        for c in self.cycles:
            counts[c.label] += 1
        return {lab.value: counts[lab] / n for lab in QualityLabel}


def generate_dataset(seed: int, n_subjects: int = DEFAULT_SUBJECTS,
                     duration_ms: int = DEFAULT_DURATION_MS,
                     keep_streams: bool = False) -> SyntheticDataset:
    """The subjects of iter_subjects, collected; keep_streams keeps each CvsStream."""
    ds = SyntheticDataset(cycles=[], calibrations={})
    for sid, stream, cycles, calibration in iter_subjects(seed, n_subjects, duration_ms):
        ds.cycles.extend(cycles)
        ds.calibrations[sid] = calibration
        if keep_streams:
            ds.streams[sid] = stream
    return ds


def prepare_splits(dataset: SyntheticDataset, scheme: str, scale_mode: str,
                   seed: int):
    """Subject-disjoint 80/10/10 split, each normalized under one configuration."""
    return [normalize_dataset(part, scheme=scheme, scale_mode=scale_mode,
                              calibrations=dataset.calibrations)
            for part in split_by_subject(dataset.cycles, seed=seed)]


def run_discriminative(splits, arch: str,
                       epochs: int = discriminative.DEFAULT_EPOCHS, seed: int = 0):
    """Train one discriminative model on prepared splits; returns (model, report)."""
    (x_tr, y_tr, _), (x_va, _, yev_va), (x_te, _, yev_te) = splits
    model = discriminative.build(arch, seed=seed)
    discriminative.train(model, x_tr, y_tr, x_va, yev_va,
                         epochs=epochs, lr=DEFAULT_LR, seed=seed)
    return model, evaluate_scores(*model.score(x_te), yev_te)


def run_manifold(splits, kind: str, beta: float | None = None,
                 epochs: int = manifold.DEFAULT_EPOCHS, seed: int = 0):
    """Train one manifold model on the train positives, threshold it on train+val.

    Validation positives pick the VAE epoch; beta None is the kind's
    manifold.DEFAULT_BETA.  Returns (model, report).
    """
    (x_tr, _, yev_tr), (x_va, _, yev_va), (x_te, _, yev_te) = splits
    pos = yev_tr == 1
    model, _ = manifold.train_kind(kind, x_tr[pos], yev_tr[pos], beta=beta,
                                   epochs=epochs, seed=seed,
                                   x_val_pos=x_va[yev_va == 1])
    d, j = manifold.set_threshold(model, np.concatenate([x_tr, x_va]),
                                  np.concatenate([yev_tr, yev_va]))
    report = evaluate_scores(*model.score(x_te), yev_te)
    report.update({"threshold": d, "youden_j_trainval": j})
    return model, report

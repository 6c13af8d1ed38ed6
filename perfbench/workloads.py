"""The three workloads: set-up, one timed operation, output checks, figures.

Every input comes from the workload seed.  The program is called through
its public functions and through ``cli.main``, always by module attribute, so
that the traced run sees each call.

- train:  beta-ConvVAE training, threshold and test scoring (model developer).
- assess: one recording scored by five models, through ``cvsqi assess`` on
          the stream file and one cycle at a time (clinician).
- gen:    ``cvsqi gen`` for a few subjects (model developer, data).
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cvsqi import (cli, dataio, discriminative, experiment, forward, manifold,
                   model_io, preprocess)
from opbench import TRAIN_BATCH

# train
TRAIN_EPOCHS = 2
TRAIN_BETA = 0.5
TRAIN_AUC_FLOOR = 0.9
# Fixed-size samples of the normal train and validation cycles, so that the
# work of one operation does not depend on the seed.
TRAIN_CYCLES = 1024
VAL_CYCLES = 100
# assess
SEGMENT_MS = 120_000
SEGMENT_MEAN_RR_MS = 800  # every piece gets this mean RR, fixing the cycle count
RECORDING_SEGMENTS = 5    # the assessed recording: 10 minutes
FIT_SEGMENTS = 2          # the recording that fits PCA and picks thresholds
MODELS = ("lr", "mlp1", "vgg3", "pca", "bcvae")
PCA_AUC_FLOOR = 0.8
SCORE_RTOL, SCORE_ATOL = 1e-9, 1e-12
# gen
GEN_SUBJECTS = 4


def rank_auc(scores, labels) -> float:
    """Area under the ROC curve as the Mann-Whitney rank statistic.

    Higher score means more likely positive (label 1); tied scores get their
    average rank, so a tied positive-negative pair counts one half.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _close(a, b) -> bool:
    return np.allclose(a, b, rtol=SCORE_RTOL, atol=SCORE_ATOL)


# --- train ---

@dataclass
class TrainState:
    seed: int
    pos_train: np.ndarray
    pos_val: np.ndarray
    pool_x: np.ndarray
    pool_y: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def setup_train(seed: int, work: Path) -> TrainState:
    dataset = experiment.generate_dataset(seed)
    (x_tr, _, y_tr), (x_va, _, y_va), (x_te, _, y_te) = experiment.prepare_splits(
        dataset, scheme="interp", scale_mode="subject", seed=seed)
    rng = np.random.default_rng(seed)
    pos_train, pos_val = x_tr[y_tr == 1], x_va[y_va == 1]
    return TrainState(seed=seed,
                      pos_train=pos_train[rng.permutation(len(pos_train))[:TRAIN_CYCLES]],
                      pos_val=pos_val[rng.permutation(len(pos_val))[:VAL_CYCLES]],
                      pool_x=np.concatenate([x_tr, x_va]),
                      pool_y=np.concatenate([y_tr, y_va]), x_test=x_te, y_test=y_te)


def op_train(st: TrainState) -> dict:
    t0 = time.perf_counter()
    model = manifold.build_vae("bcvae", seed=st.seed, beta=TRAIN_BETA)
    manifold.vae_train(model, st.pos_train, np.ones(len(st.pos_train), dtype=np.int64),
                       epochs=TRAIN_EPOCHS, lr=1e-3, seed=st.seed,
                       x_val_pos=st.pos_val)
    d, _ = manifold.select_threshold(manifold.residuals(model, st.pool_x), st.pool_y)
    model.threshold_d = d
    r_test = manifold.residuals(model, st.x_test)
    verdicts = np.array([manifold.assess(model, x) for x in st.x_test])
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "audit": dict(model.train_audit), "d": d,
            "r_test": r_test, "verdicts": verdicts,
            "auc": rank_auc(-r_test, st.y_test)}


def check_train(st: TrainState, rec: dict) -> list[str]:
    problems = []
    audit, d, r = rec["audit"], rec["d"], rec["r_test"]
    if audit.get("negatives_in_updates") != 0:
        problems.append(f"negatives entered updates: {audit}")
    want = math.ceil(len(st.pos_train) / TRAIN_BATCH) * TRAIN_EPOCHS
    if audit.get("updates") != want:
        problems.append(f"{audit.get('updates')} updates, expected {want}")
    if not (math.isfinite(d) and d >= 0):
        problems.append(f"threshold {d} is not finite and >= 0")
    # a verdict may differ from the batch rule only where r is d up to rounding
    off = (rec["verdicts"] != (r <= d)) & ~np.isclose(r, d, rtol=SCORE_RTOL, atol=0)
    if off.any():
        problems.append(f"{int(off.sum())} verdicts differ from r <= d")
    if not rec["auc"] >= TRAIN_AUC_FLOOR:
        problems.append(f"test AUC {rec['auc']:.4f} below {TRAIN_AUC_FLOOR}")
    return problems


def figures_train(records) -> list[tuple]:
    return [("train.wall_s", _median([r["wall_s"] for r in records]), "s"),
            ("train.test_auc", _median([r["auc"] for r in records]), "auc")]


# --- assess: one recording, five models ---

@dataclass
class Recording:
    t_ms: np.ndarray
    x: np.ndarray
    r_peaks: np.ndarray
    labels: list


def _recording(seed: int, first_index: int, segments: int) -> Recording:
    """One subject's recording joined from SEGMENT_MS synthetic pieces.

    Every piece uses the gain of the first, so the whole recording shares the
    scale reference of its first 20 s, and its RR intervals are shifted to
    one mean.  A piece ends at its last R-peak, where the next piece begins
    with its own first R-peak.
    """
    gain = experiment.default_subject_scenario(seed, first_index, SEGMENT_MS).gain
    t_parts, x_parts, peaks, labels = [], [], [], []
    offset = 0
    for i in range(segments):
        scenario = experiment.default_subject_scenario(seed, first_index + i, SEGMENT_MS)
        rr = np.asarray(scenario.rr_intervals_ms)
        shift = SEGMENT_MEAN_RR_MS - int(round(rr.mean() / 10.0)) * 10
        scenario = dataclasses.replace(scenario, gain=gain, subject_id="rec",
                                       rr_intervals_ms=tuple((rr + shift).tolist()))
        s = forward.synthesize_stream(scenario)
        last = i == segments - 1
        stop = int(s.r_peaks[-1]) // preprocess.SAMPLE_MS + (1 if last else 0)
        t_parts.append(s.t_ms[:stop] + offset)
        x_parts.append(s.cvs[:stop])
        peaks.append((s.r_peaks if last else s.r_peaks[:-1]) + offset)
        labels += s.cycle_labels
        offset += int(s.r_peaks[-1])
    return Recording(np.concatenate(t_parts), np.concatenate(x_parts),
                     np.concatenate(peaks), labels)


def _write_stream(rec: Recording, path: Path) -> None:
    """The scalar stream format of dataio: t_ms, x, R-peak flag, label code."""
    peak_set = set(rec.r_peaks.tolist())
    codes = dict(zip(rec.r_peaks[:-1].tolist(), (lab.code for lab in rec.labels)))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for t, x in zip(rec.t_ms.tolist(), rec.x.tolist()):
            f.write(f"{t},{x!r},{int(t in peak_set)},{codes.get(t, -1)}\n")


def _cycles(rec: Recording):
    """Cycles in stream order and the subject scale of the first 20 s."""
    cycles = preprocess.segment_cycles(list(zip(rec.t_ms.tolist(), rec.x.tolist())),
                                       rec.r_peaks, subject_id="rec", labels=rec.labels)
    cal = preprocess.CalibrationWindow(
        subject_id="rec", samples=rec.x[:preprocess.CALIBRATION_SAMPLES])
    return cycles, preprocess.subject_scale_factor(cal)


def _scores(model, x: np.ndarray) -> np.ndarray:
    """One score per row, as ``cvsqi assess`` reports it: higher means normal."""
    if isinstance(model, discriminative.DiscriminativeModel):
        return discriminative.forward(model, x)
    return -manifold.residuals(model, x)


def _verdict_rule(model, scores: np.ndarray) -> np.ndarray:
    """1 (normal) or 0 per score, by the rule ``cvsqi assess`` applies."""
    if isinstance(model, discriminative.DiscriminativeModel):
        return (scores >= 0.5).astype(int)
    return (-scores <= model.threshold_d).astype(int)


@dataclass
class RecordingState:
    work: Path
    stream: Path
    model_paths: dict
    models: dict              # as loaded back from their files
    cycles: list
    scale: float
    starts: np.ndarray
    labels: np.ndarray        # eval labels, 1 = normal
    reference: dict           # model -> scores of all cycles in one batch


def setup_recording(seed: int, work: Path) -> RecordingState:
    rec = _recording(seed, 100, RECORDING_SEGMENTS)
    stream = work / "recording.csv"
    _write_stream(rec, stream)

    fit_cycles, fit_scale = _cycles(_recording(seed, 200, FIT_SEGMENTS))
    x_fit = np.stack([preprocess.normalize_cycle(c, "interp", fit_scale).values
                      for c in fit_cycles])
    y_fit = np.array([c.label.eval_value for c in fit_cycles])
    built = {arch: discriminative.build(arch, seed=seed) for arch in MODELS[:3]}
    built["pca"] = manifold.pca_fit(x_fit[y_fit == 1])
    built["bcvae"] = manifold.build_vae("bcvae", seed=seed)
    for name in ("pca", "bcvae"):
        r = manifold.residuals(built[name], x_fit)
        built[name].threshold_d = manifold.select_threshold(r, y_fit)[0]

    paths, models = {}, {}
    for name, model in built.items():
        paths[name] = work / f"{name}.json"
        model_io.save_model(model, str(paths[name]), norm_scheme="interp",
                            scale_mode="subject")
        models[name] = model_io.load_model(str(paths[name]))[0]

    cycles, scale = _cycles(rec)
    x = np.stack([preprocess.normalize_cycle(c, "interp", scale).values for c in cycles])
    return RecordingState(
        work=work, stream=stream, model_paths=paths, models=models, cycles=cycles,
        scale=scale, starts=np.array([c.t_start_ms for c in cycles]),
        labels=np.array([c.label.eval_value for c in cycles]),
        reference={name: _scores(m, x) for name, m in built.items()})


def _check_scores(st: RecordingState, mode: str, name: str,
                  starts, verdicts, scores) -> list[str]:
    """One model's rows: one per cycle, in stream order, finite, as the batch."""
    label = f"{mode} {name}"
    n = len(st.cycles)
    if len(scores) != n:
        return [f"{label}: {len(scores)} rows for {n} cycles"]
    if not np.array_equal(starts, st.starts):
        return [f"{label}: rows are not the cycles in stream order"]
    if not np.all(np.isfinite(scores)):
        return [f"{label}: non-finite scores"]
    problems = []
    if not np.array_equal(verdicts, _verdict_rule(st.models[name], scores)):
        problems.append(f"{label}: verdicts disagree with the scores")
    if not _close(scores, st.reference[name]):
        problems.append(f"{label}: scores differ from the batch reference")
    return problems


def _file_mode(st: RecordingState) -> tuple[dict, dict]:
    """``cvsqi assess`` on the stream file, once per model."""
    walls, outputs = {}, {}
    for name in MODELS:
        out = st.work / f"verdicts-{name}.csv"
        argv = ["assess", "--model", str(st.model_paths[name]),
                "--stream", str(st.stream), "--out", str(out)]
        t0 = time.perf_counter()
        code = cli.main(argv)
        walls[name] = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cvsqi assess exited {code} for {name}")
        rows = np.loadtxt(out, delimiter=",", ndmin=2)
        outputs[name] = (rows[:, 0].astype(np.int64), rows[:, 1].astype(int), rows[:, 2])
    return walls, outputs


def _online_mode(st: RecordingState) -> tuple[dict, dict]:
    """Each cycle, in stream order, normalized and scored alone."""
    n = len(st.cycles)
    latency, outputs = {}, {}
    for name in MODELS:
        model = st.models[name]
        times, scores = np.empty(n), np.empty(n)
        for j, cycle in enumerate(st.cycles):
            t0 = time.perf_counter()
            vec = preprocess.normalize_cycle(cycle, "interp", st.scale).values
            scores[j] = _scores(model, vec[None, :])[0]
            times[j] = time.perf_counter() - t0
        latency[name] = times
        outputs[name] = (st.starts, _verdict_rule(model, scores), scores)
    return latency, outputs


def op_assess(st: RecordingState) -> dict:
    t0 = time.perf_counter()
    walls, files = _file_mode(st)
    t1 = time.perf_counter()
    latency, online = _online_mode(st)
    t2 = time.perf_counter()
    return {"wall_s": t2 - t0, "file_s": walls, "online_s": t2 - t1,
            "latency": latency, "file": files, "online": online,
            "pca_auc": rank_auc(files["pca"][2], st.labels)}


def check_assess(st: RecordingState, rec: dict) -> list[str]:
    problems = []
    for mode in ("file", "online"):
        for name, (starts, verdicts, scores) in rec[mode].items():
            problems += _check_scores(st, mode, name, starts, verdicts, scores)
    for name in MODELS:
        if not _close(rec["file"][name][2], rec["online"][name][2]):
            problems.append(f"{name}: file-mode scores differ from the online scores")
    if not rec["pca_auc"] >= PCA_AUC_FLOOR:
        problems.append(f"pca AUC {rec['pca_auc']:.4f} below {PCA_AUC_FLOOR}")
    return problems


def figures_assess(records) -> list[tuple]:
    n = len(records[0]["file"]["lr"][0])
    out = [(f"assess.{name}.cycles_per_s",
            _median([n / r["file_s"][name] for r in records]), "1/s") for name in MODELS]
    out.append(("assess.pca.auc", _median([r["pca_auc"] for r in records]), "auc"))
    out.append(("online.wall_s", _median([r["online_s"] for r in records]), "s"))
    for name in MODELS:
        us = np.concatenate([r["latency"][name] for r in records]) * 1e6
        out += [(f"online.{name}.p50_us", float(np.percentile(us, 50)), "us"),
                (f"online.{name}.p99_us", float(np.percentile(us, 99)), "us")]
    return out + [("online.samples_per_model", float(n * len(records)), "count")]


# --- gen ---

@dataclass
class GenState:
    work: Path
    seed: int
    cycles: list              # the in-process reference
    calibrations: dict
    streams: dict             # subject id -> (t_ms, cvs, r_peaks, label codes)


def setup_gen(seed: int, work: Path) -> GenState:
    ds = experiment.generate_dataset(seed, n_subjects=GEN_SUBJECTS, keep_streams=True)
    streams = {sid: (s.t_ms, s.cvs, s.r_peaks, [lab.code for lab in s.cycle_labels])
               for sid, s in ds.streams.items()}
    return GenState(work, seed, ds.cycles, ds.calibrations, streams)


def op_gen(st: GenState) -> dict:
    base = st.work / "gen"
    argv = ["gen", "--seed", str(st.seed), "--subjects", str(GEN_SUBJECTS),
            "--out-cycles", f"{base}.cycles", "--out-calib", f"{base}.calib",
            "--out-stream", f"{base}.stream"]
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"cvsqi gen exited {code}")
    return {"wall_s": wall, "base": base, "printed": printed.getvalue()}


def check_gen(st: GenState, rec: dict) -> list[str]:
    base = rec["base"]
    problems = []
    labels = Counter(c.label.value for c in st.cycles)
    printed = {}
    for line in rec["printed"].splitlines():
        key, _, rest = line.strip().partition(" ")
        printed[key.rstrip(":")] = int(rest.split()[0]) if rest else None
    want = {"cycles": len(st.cycles), **{lab: labels.get(lab, 0)
                                          for lab in ("normal", "ambiguous", "motion")}}
    if any(printed.get(k) != v for k, v in want.items()):
        problems.append(f"printed counts {printed} differ from {want}")

    got = dataio.read_cycles(f"{base}.cycles")
    same = len(got) == len(st.cycles) and all(
        (a.subject_id, a.t_start_ms, a.label) == (b.subject_id, b.t_start_ms, b.label)
        and np.array_equal(a.samples, b.samples) for a, b in zip(got, st.cycles))
    if not same:
        problems.append("cycle file does not read back as the generated cycles")
    cal = dataio.read_calibrations(f"{base}.calib")
    if sorted(cal) != sorted(st.calibrations) or not all(
            np.array_equal(cal[k].samples, st.calibrations[k].samples) for k in cal):
        problems.append("calibration file does not read back exactly")
    for sid, (t_ms, cvs, peaks, codes) in st.streams.items():
        t2, x2, p2, labels2 = dataio.read_stream(f"{base}.stream.{sid}")
        if not (np.array_equal(t2, t_ms) and np.array_equal(x2, cvs)
                and np.array_equal(p2, peaks) and [l.code for l in labels2] == codes):
            problems.append(f"stream file of {sid} does not read back exactly")
    return problems


def figures_gen(records) -> list[tuple]:
    return [("gen.wall_s", _median([r["wall_s"] for r in records]), "s")]


@dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    check: object
    figures: object


WORKLOADS = {
    "train": Workload(setup_train, op_train, check_train, figures_train),
    "assess": Workload(setup_recording, op_assess, check_assess, figures_assess),
    "gen": Workload(setup_gen, op_gen, check_gen, figures_gen),
}

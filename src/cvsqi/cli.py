"""Command-line workflows: gen, split, train, train-manifold, threshold,
evaluate, assess, bench.

Exit codes: 0 success, 2 validation error, 3 I/O error.  A JSON config file
named by the CVSQI_CONFIG environment variable supplies default flag values.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import dataio, discriminative, experiment, manifold, model_io
from .errors import CvsqiError, IoError, MissingCalibration, ValidationError
from .evaluation import split_by_subject
from .experiment import evaluate_scores, score
from .forward import MotionEvent, SynthScenario, synthesize_stream
from .labels import QualityLabel
from .nn import DEFAULT_LR
from .preprocess import (SCALE_MODES, SCHEMES, calibration_from_stream,
                         cycles_from_stream, normalize_cycle, normalize_dataset,
                         subject_scale_factor)

CONFIG_ENV = "CVSQI_CONFIG"

# flag defaults that a config file may override
_CONFIG_KEYS = ("seed", "norm", "scale", "epochs", "lr", "arch", "kind", "beta")


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return {k: v for k, v in cfg.items() if k in _CONFIG_KEYS}


# --- scenario files ---

def scenario_from_file(path: str) -> SynthScenario:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid scenario JSON: {exc}") from exc
    events = tuple(MotionEvent(**ev) for ev in doc.pop("motion_events", []))
    try:
        return SynthScenario(motion_events=events, **doc)
    except TypeError as exc:
        raise ValidationError(f"{path}: bad scenario field: {exc}") from exc


def _load_calibrations(path: str | None):
    return dataio.read_calibrations(path) if path else None


# --- commands ---

def cmd_gen(args) -> int:
    if args.subjects < 1:
        raise ValidationError(f"--subjects must be at least 1, got {args.subjects}")
    if args.scenario:
        scenario = scenario_from_file(args.scenario)
        sid = scenario.subject_id
        stream = synthesize_stream(scenario)
        try:
            calibration = calibration_from_stream(stream, sid)
        except MissingCalibration:   # a scenario shorter than 20 s
            calibration = None
        subjects = [experiment.Subject(
            sid, stream, cycles_from_stream(stream, sid, skip_calibration=False),
            calibration)]
    else:
        subjects = experiment.iter_subjects(args.seed, args.subjects, args.duration_ms)

    several = not args.scenario and args.subjects > 1

    def stream_path(sid):
        # one stream file per subject, suffixed by its id when there are several
        return f"{args.out_stream}.{sid}" if several else args.out_stream

    counts = dataio.write_subjects(subjects, args.out_cycles, args.out_calib,
                                   stream_path if args.out_stream else None)
    total = sum(counts.values())
    n = max(total, 1)
    print(f"cycles: {total}")
    for lab in QualityLabel:
        print(f"  {lab.value:<16} {counts[lab]:>6}  ({100.0 * counts[lab] / n:.2f}%)")
    return 0


def cmd_split(args) -> int:
    cycles = dataio.read_cycles(args.cycles)
    train, val, test = split_by_subject(cycles, seed=args.seed)
    dataio.write_cycle_files([(train, args.out_train), (val, args.out_val),
                              (test, args.out_test)])
    total = len(cycles)
    for name, part in (("train", train), ("val", val), ("test", test)):
        sids = sorted({c.subject_id for c in part})
        print(f"{name}: {len(part)} cycles ({100.0 * len(part) / total:.1f}%), "
              f"subjects {' '.join(sids)}")
    return 0


def cmd_train(args) -> int:
    calibrations = _load_calibrations(args.calib)
    x_tr, y_tr, _ = normalize_dataset(dataio.read_cycles(args.train),
                                      args.norm, args.scale, calibrations)
    x_va, _, yev_va = normalize_dataset(dataio.read_cycles(args.val),
                                        args.norm, args.scale, calibrations)
    model = discriminative.build(args.arch, seed=args.seed)
    history = discriminative.train(model, x_tr, y_tr, x_va, yev_va,
                                   epochs=args.epochs, lr=args.lr, seed=args.seed)
    model_io.save_model(model, args.out, norm_scheme=args.norm, scale_mode=args.scale)
    print(f"trained {args.arch}: best val AUC "
          f"{model.training_meta['best_val_auc']:.4f} "
          f"(final loss {history['train_loss'][-1]:.4f}) -> {args.out}")
    return 0


def cmd_train_manifold(args) -> int:
    calibrations = _load_calibrations(args.calib)
    cycles = dataio.read_cycles(args.pos_train)
    x_pos, _, yev = normalize_dataset(cycles, args.norm, args.scale, calibrations)
    x_val = None
    if args.val and args.kind in manifold.VAE_KINDS:   # PCA has no validation epochs
        manifold.require_positives(yev)   # the purity error before any --val read
        val_cycles = [c for c in dataio.read_cycles(args.val)
                      if c.label is QualityLabel.NORMAL]
        if val_cycles:
            x_val, _, _ = normalize_dataset(val_cycles, args.norm, args.scale,
                                            calibrations)
    model, history = manifold.train_kind(args.kind, x_pos, yev, beta=args.beta,
                                         epochs=args.epochs, lr=args.lr,
                                         seed=args.seed, x_val_pos=x_val)
    if history:
        print(f"final train loss {history['train_loss'][-1]:.4f}")
    model_io.save_model(model, args.out, norm_scheme=args.norm, scale_mode=args.scale)
    print(f"trained {args.kind} on {x_pos.shape[0]} positive cycles -> {args.out}")
    return 0


def cmd_threshold(args) -> int:
    model, prep = model_io.load_model(args.model)
    if not hasattr(model, "threshold_d"):
        raise ValidationError("threshold selection applies to manifold models only")
    calibrations = _load_calibrations(args.calib)
    cycles = dataio.read_cycles(args.scored)
    x, _, yev = normalize_dataset(cycles, prep["norm_scheme"], prep["scale_mode"],
                                  calibrations)
    d, j = manifold.set_threshold(model, x, yev)
    model_io.save_model(model, args.model, norm_scheme=prep["norm_scheme"],
                        scale_mode=prep["scale_mode"])
    print(f"threshold d = {d:.6g} (Youden J = {j:.4f}) written to {args.model}")
    return 0


def cmd_evaluate(args) -> int:
    model, prep = model_io.load_model(args.model)
    calibrations = _load_calibrations(args.calib)
    cycles = dataio.read_cycles(args.test)
    x, _, yev = normalize_dataset(cycles, prep["norm_scheme"], prep["scale_mode"],
                                  calibrations)
    report = evaluate_scores(*score(model, x), yev)

    name = getattr(model, "architecture", getattr(model, "kind", "model"))
    cols = ("accuracy", "ppv", "npv", "sensitivity", "specificity", "auc")
    values = {c: report[c] for c in cols}
    print(f"{'model':<10}" + "".join(f"{c:>13}" for c in cols))
    row = "".join(f"{values[c]:>13.4f}" if values[c] is not None else f"{'n/a':>13}"
                  for c in cols)
    print(f"{name:<10}" + row)
    if report["undefined"]:
        print(f"undefined metrics (zero denominator): {', '.join(report['undefined'])}")

    if args.out:
        record = {"model": name, "n_test": len(cycles), "metrics": values,
                  "undefined": report["undefined"], "preprocessing": prep}
        dataio.atomic_write(args.out, [json.dumps(record, indent=1)])
    return 0


def cmd_assess(args) -> int:
    model, prep = model_io.load_model(args.model)
    scheme = model_io.check_scheme(prep, args.norm)
    if scheme is None:
        raise ValidationError("model file does not record a normalization scheme")
    scale_mode = prep.get("scale_mode", "subject")

    stream = dataio.read_stream(args.stream)
    calibrations = None
    if scale_mode == "subject":
        calibrations = {"stream": calibration_from_stream(stream, "stream")}
    cycles = cycles_from_stream(stream, "stream", skip_calibration=False)
    lines = []
    if cycles:   # the whole recording as one batch, rows in stream order
        vectors, _, _ = normalize_dataset(cycles, scheme, scale_mode, calibrations)
        scores, verdicts = score(model, vectors)
        lines = [f"{c.t_start_ms},{v},{s!r}" for c, v, s
                 in zip(cycles, verdicts.tolist(), scores.tolist())]
    if args.out:
        dataio.atomic_write(args.out, lines)
    else:
        for line in lines:
            print(line)
    return 0


def bench_models(named_models, cycles, repeats: int = 1) -> list[dict]:
    """Per-cycle wall-clock latency (normalize + forward + verdict) per model.

    cycles is a list of (CvsCycle, scale, scheme) ready for assessment.
    Returns one LatencyReport record per model.
    """
    if len(cycles) < 1000:
        raise ValidationError(f"benchmark needs >= 1000 cycles, got {len(cycles)}")
    reports = []
    for name, model in named_models:
        # warm start: one full pass outside timing
        for c, s, scheme in cycles[:10]:
            score(model, normalize_cycle(c, scheme, s).values[None, :])
        times = np.empty(len(cycles) * repeats)
        i = 0
        for _ in range(repeats):
            for c, s, scheme in cycles:
                t0 = time.perf_counter()
                vec = normalize_cycle(c, scheme, s).values
                score(model, vec[None, :])
                times[i] = time.perf_counter() - t0
                i += 1
        us = times * 1e6
        reports.append({
            "model": name,
            "n_samples": int(us.size),
            "mean_us": float(us.mean()),
            "median_us": float(np.median(us)),
            "p99_us": float(np.percentile(us, 99)),
        })
    return reports


def _bench_cycles(n_cycles: int, seed: int):
    """Synthetic assessment-ready cycles for benchmarking."""
    rng = np.random.default_rng(seed)
    out = []
    subjects = 0
    while len(out) < n_cycles:
        scenario = experiment.default_subject_scenario(seed, subjects,
                                                       duration_ms=60_000)
        stream = synthesize_stream(scenario)
        s = subject_scale_factor(calibration_from_stream(stream, scenario.subject_id))
        for c in cycles_from_stream(stream, scenario.subject_id):
            out.append((c, s, "interp"))
        subjects += 1
    rng.shuffle(out)
    return out[:n_cycles]


def cmd_bench(args) -> int:
    named = []
    if args.models:
        for path in args.models:
            model, prep = model_io.load_model(path)
            name = getattr(model, "architecture", getattr(model, "kind", path))
            named.append((name, model))
    else:
        for arch in discriminative.ARCHITECTURES:
            named.append((arch, discriminative.build(arch, seed=args.seed)))
        for kind in manifold.VAE_KINDS:
            m = manifold.build_vae(kind, seed=args.seed)
            m.threshold_d = 1.0
            named.append((kind, m))

    cycles = _bench_cycles(args.n_cycles, args.seed)
    reports = bench_models(named, cycles)
    print(f"{'model':<10}{'mean us':>12}{'median us':>12}{'p99 us':>12}{'n':>8}")
    for r in reports:
        print(f"{r['model']:<10}{r['mean_us']:>12.1f}{r['median_us']:>12.1f}"
              f"{r['p99_us']:>12.1f}{r['n_samples']:>8}")
    return 0


# --- argument parsing ---

def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsqi",
        description="Per-cardiac-cycle signal quality indexing for EIT volume signals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic cycle dataset")
    p.add_argument("--scenario", help="JSON scenario file for one subject")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subjects", type=int, default=20)
    p.add_argument("--duration-ms", type=int, default=experiment.DEFAULT_DURATION_MS)
    p.add_argument("--out-cycles", required=True)
    p.add_argument("--out-calib")
    p.add_argument("--out-stream")

    p = sub.add_parser("split", help="subject-disjoint 80/10/10 split")
    p.add_argument("--cycles", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.add_argument("--out-test", required=True)

    p = sub.add_parser("train", help="train a discriminative classifier")
    p.add_argument("--arch", choices=discriminative.ARCHITECTURES, default="vgg3")
    p.add_argument("--norm", choices=SCHEMES, default="interp")
    p.add_argument("--scale", choices=SCALE_MODES, default="subject")
    p.add_argument("--calib")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--epochs", type=int, default=discriminative.DEFAULT_EPOCHS)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-manifold", help="train a manifold model on positives")
    p.add_argument("--kind", choices=manifold.MANIFOLD_KINDS, default="bcvae")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--norm", choices=SCHEMES, default="interp")
    p.add_argument("--scale", choices=SCALE_MODES, default="subject")
    p.add_argument("--calib")
    p.add_argument("--pos-train", required=True)
    p.add_argument("--val")
    p.add_argument("--epochs", type=int, default=manifold.DEFAULT_EPOCHS)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("threshold", help="select and persist the residual threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--scored", required=True,
                   help="labeled cycle dataset the model scores itself")
    p.add_argument("--calib")

    p = sub.add_parser("evaluate", help="metrics table on a labeled test set")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--calib")
    p.add_argument("--out", help="machine-readable JSON record")

    p = sub.add_parser("assess", help="per-cycle verdict stream for a CVS recording")
    p.add_argument("--model", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--norm", choices=SCHEMES, default=None,
                   help="must match the scheme recorded in the model file")
    p.add_argument("--out")

    p = sub.add_parser("bench", help="per-cycle inference latency report")
    p.add_argument("--models", nargs="*", default=None,
                   help="model files; default benches freshly built models")
    p.add_argument("--n-cycles", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    if defaults:
        for p in sub.choices.values():
            known = {k: v for k, v in defaults.items()
                     if any(a.dest == k for a in p._actions)}
            p.set_defaults(**known)
    return parser


@functools.lru_cache(maxsize=8)
def _parser(config_json: str) -> argparse.ArgumentParser:
    """One parser per distinct config, reused by every later main() call."""
    return build_parser(json.loads(config_json))


def main(argv=None) -> int:
    try:
        args = _parser(json.dumps(_load_config(), sort_keys=True)).parse_args(argv)
        # looked up per call, not stored in the cached parser, so a cmd_*
        # function replaced on this module (a profiling wrapper) is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (FileNotFoundError, PermissionError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CvsqiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

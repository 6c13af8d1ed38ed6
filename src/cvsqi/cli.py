"""Command-line workflows: gen, split, train, train-manifold, threshold,
evaluate, assess, and bench, whose code is cvsqi.bench's.

Exit codes: 0 success, 2 validation error, 3 I/O error.  A command reads its
settings from its flags alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import dataio, discriminative, experiment, manifold, model_io
from .bench import BENCH_MIN_CYCLES, _bench_cycles, bench_models, cmd_bench
from .errors import CvsqiError, IoError, MissingCalibration, ValidationError
from .evaluation import METRICS, evaluate_scores, split_by_subject
from .forward import synthesize_stream
from .labels import QualityLabel
from .model_io import scenario_from_file
from .nn import DEFAULT_LR
from .preprocess import (DEFAULT_SCALE_MODE, DEFAULT_SCHEME, SCALE_MODES, SCHEMES,
                         calibration_from_stream, cycles_from_stream, normalize_dataset)


def _load_calibrations(path: str | None):
    return dataio.read_calibrations(path) if path else None


# --- commands ---

def cmd_gen(args) -> int:
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
    scorer = model_io.load_model(args.model)
    if scorer.model.family != "manifold":
        raise ValidationError("threshold selection applies to manifold models only")
    calibrations = _load_calibrations(args.calib)
    x, _, yev = scorer.normalize(dataio.read_cycles(args.scored), calibrations)
    d, j = manifold.set_threshold(scorer.model, x, yev)
    model_io.save_model(scorer.model, args.model, **scorer.preprocessing)
    print(f"threshold d = {d:.6g} (Youden J = {j:.4f}) written to {args.model}")
    return 0


def cmd_evaluate(args) -> int:
    scorer = model_io.load_model(args.model)
    calibrations = _load_calibrations(args.calib)
    cycles = dataio.read_cycles(args.test)
    x, _, yev = scorer.normalize(cycles, calibrations)
    report = evaluate_scores(*scorer.model.score(x), yev)

    values = {c: report[c] for c in METRICS}
    print(f"{'model':<10}" + "".join(f"{c:>13}" for c in METRICS))
    row = "".join(f"{v:>13.4f}" if v is not None else f"{'n/a':>13}" for v in values.values())
    print(f"{scorer.model.name:<10}" + row)
    if report["undefined"]:
        print(f"undefined metrics (zero denominator): {', '.join(report['undefined'])}")

    if args.out:
        record = {"model": scorer.model.name, "n_test": len(cycles), "metrics": values,
                  "undefined": report["undefined"], "preprocessing": scorer.preprocessing}
        dataio.atomic_write(args.out, [json.dumps(record, indent=1)])
    return 0


def cmd_assess(args) -> int:
    scorer = model_io.load_model(args.model)
    stream = dataio.read_stream(args.stream)
    calibrations = None
    if scorer.preprocessing["scale_mode"] == "subject":
        calibrations = {"stream": calibration_from_stream(stream, "stream")}
    cycles = cycles_from_stream(stream, "stream", skip_calibration=False)
    lines = []
    if cycles:   # the whole recording as one batch, rows in stream order
        vectors, _, _ = scorer.normalize(cycles, calibrations)
        scores, verdicts = scorer.model.score(vectors)
        lines = [f"{c.t_start_ms},{v},{s!r}" for c, v, s
                 in zip(cycles, verdicts.tolist(), scores.tolist())]
    if args.out:
        dataio.atomic_write(args.out, lines)
    else:
        for line in lines:
            print(line)
    return 0


# --- argument parsing ---

def _seed(text: str) -> int:
    """The type of every --seed flag: numpy's generators take no negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """The type of every --subjects, of bench's --n-cycles and of the
    experiment runner's --epochs: a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsqi",
        description="Per-cardiac-cycle signal quality indexing for EIT volume signals")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)   # the --seed of each seeded command
    seeded.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("gen", parents=[seeded], help="generate a synthetic cycle dataset")
    p.add_argument("--scenario", help="JSON scenario file for one subject")
    p.add_argument("--subjects", type=_count, default=experiment.DEFAULT_SUBJECTS)
    p.add_argument("--duration-ms", type=int, default=experiment.DEFAULT_DURATION_MS)
    p.add_argument("--out-cycles", required=True)
    p.add_argument("--out-calib")
    p.add_argument("--out-stream")

    p = sub.add_parser("split", parents=[seeded], help="subject-disjoint 80/10/10 split")
    p.add_argument("--cycles", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.add_argument("--out-test", required=True)

    def training_flags(p, epochs: int):      # the flags train and train-manifold share
        p.add_argument("--norm", choices=SCHEMES, default=DEFAULT_SCHEME)
        p.add_argument("--scale", choices=SCALE_MODES, default=DEFAULT_SCALE_MODE)
        p.add_argument("--calib")
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--lr", type=float, default=DEFAULT_LR)
        p.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[seeded], help="train a discriminative classifier")
    p.add_argument("--arch", choices=discriminative.ARCHITECTURES, default="vgg3")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    training_flags(p, discriminative.DEFAULT_EPOCHS)

    p = sub.add_parser("train-manifold", parents=[seeded],
                       help="train a manifold model on positives")
    p.add_argument("--kind", choices=manifold.MANIFOLD_KINDS, default="bcvae")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--pos-train", required=True)
    p.add_argument("--val")
    training_flags(p, manifold.DEFAULT_EPOCHS)

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
    p.add_argument("--out")

    p = sub.add_parser("bench", parents=[seeded], help="per-cycle inference latency report")
    p.add_argument("--models", nargs="+", help="model files; default: ten new models")
    p.add_argument("--n-cycles", type=_count, default=BENCH_MIN_CYCLES)
    p.add_argument("--out", help="JSON record (BENCH_<label>.json): the environment, "
                                 "these latencies and the training step times")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser, built by the first main() call and reused by every
    later one: a build takes 1.3 ms, against 50 ms for a whole gen of four
    subjects."""
    return build_parser()


def exit_code(command, *args) -> int:
    """command(*args), or on an error one error: line and exit 3 (I/O) or 2."""
    try:
        return command(*args)
    except (OSError, CvsqiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (OSError, IoError)) else 2


def main(argv=None) -> int:
    def command():
        args = _parser().parse_args(argv)
        # looked up per call, not stored in the cached parser, so a cmd_*
        # function replaced on this module (a profiling wrapper) is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    return exit_code(command)


if __name__ == "__main__":
    sys.exit(main())

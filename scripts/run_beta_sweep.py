"""Sweep the KL weight beta for the convolutional VAE and log per-beta metrics."""
import argparse
import json
import sys

from cvsqi import experiment, manifold
from cvsqi.cli import _count, _seed
from cvsqi.errors import CvsqiError, IoError

BETAS = (1 / 3, 1 / 2, 1.0, 2.0, 3.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--subjects", type=_count, default=experiment.DEFAULT_SUBJECTS)
    ap.add_argument("--kind", choices=manifold.VAE_KINDS, default="bcvae")
    ap.add_argument("--epochs", type=int, default=manifold.DEFAULT_EPOCHS)
    ap.add_argument("--betas", type=float, nargs="*", default=list(BETAS))
    ap.add_argument("--out", help="write the sweep log as JSON")
    args = ap.parse_args(argv)
    try:
        run(args)
    except (OSError, IoError) as exc:      # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CvsqiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run(args) -> None:
    dataset = experiment.generate_dataset(args.seed, n_subjects=args.subjects)
    splits = experiment.prepare_splits(dataset, "interp", "subject", args.seed)

    rows = []
    print(f"{'beta':>8}{'auc':>10}{'accuracy':>10}{'threshold':>12}")
    for beta in args.betas:
        _, rep = experiment.run_manifold(splits, kind=args.kind, beta=beta,
                                         epochs=args.epochs, seed=args.seed)
        rows.append({"beta": beta, "auc": rep["auc"],
                     "accuracy": rep["accuracy"], "threshold": rep["threshold"]})
        print(f"{beta:>8.3f}{rep['auc']:>10.4f}{rep['accuracy']:>10.4f}"
              f"{rep['threshold']:>12.4g}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())

"""Headline synthetic experiment: VGG16-3 vs beta-ConvVAE plus the scale ablation.

Generates a multi-subject dataset, trains both model families on a
subject-disjoint split, then retrains the classifier without scale
normalization to measure the AUC degradation.
"""
import argparse
import json
import sys
import time

from cvsqi import discriminative, experiment, manifold, preprocess
from cvsqi.cli import _count, _seed
from cvsqi.errors import CvsqiError, IoError


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--subjects", type=_count, default=experiment.DEFAULT_SUBJECTS)
    ap.add_argument("--scheme", choices=preprocess.SCHEMES, default="interp")
    ap.add_argument("--vgg-epochs", type=int, default=discriminative.DEFAULT_EPOCHS)
    ap.add_argument("--vae-epochs", type=int, default=manifold.DEFAULT_EPOCHS)
    ap.add_argument("--skip-ablation", action="store_true")
    ap.add_argument("--out", help="write the full report as JSON")
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
    t0 = time.perf_counter()
    dataset = experiment.generate_dataset(args.seed, n_subjects=args.subjects)
    splits = experiment.prepare_splits(dataset, args.scheme, "subject", args.seed)
    _, vgg3 = experiment.run_discriminative(splits, arch="vgg3",
                                            epochs=args.vgg_epochs, seed=args.seed)
    _, bcvae = experiment.run_manifold(splits, kind="bcvae",
                                       epochs=args.vae_epochs, seed=args.seed)
    report = {"fractions": dataset.class_fractions(),
              "n_cycles": len(dataset.cycles), "vgg3": vgg3, "bcvae": bcvae,
              "scale_mode": "subject", "scheme": args.scheme}
    fr = report["fractions"]
    print(f"dataset: {report['n_cycles']} cycles "
          f"({100 * fr['normal']:.1f}/{100 * fr['ambiguous']:.1f}/"
          f"{100 * fr['motion']:.1f} normal/ambiguous/motion)")
    print(f"vgg3   test AUC {report['vgg3']['auc']:.4f}  "
          f"accuracy {report['vgg3']['accuracy']:.4f}")
    print(f"bcvae  test AUC {report['bcvae']['auc']:.4f}  "
          f"threshold {report['bcvae']['threshold']:.4g}")

    if not args.skip_ablation:
        splits_u = experiment.prepare_splits(dataset, args.scheme, "none", args.seed)
        _, unscaled = experiment.run_discriminative(splits_u, arch="vgg3",
                                                    epochs=args.vgg_epochs,
                                                    seed=args.seed)
        gap = report["vgg3"]["auc"] - unscaled["auc"]
        print(f"ablation: unscaled vgg3 AUC {unscaled['auc']:.4f} "
              f"(degradation {gap:+.4f})")
        report["ablation"] = {"unscaled_auc": unscaled["auc"], "auc_gap": gap}

    # the whole run: generation, both models and the ablation retrain
    report["elapsed_s"] = time.perf_counter() - t0
    print(f"elapsed {report['elapsed_s']:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())

"""The model comparison on a synthetic dataset: one table of test metrics.

Generates the dataset once, makes one subject-disjoint split per scale mode
(experiment.prepare_splits), and trains each of --models on it: an
architecture through experiment.run_discriminative, a manifold kind through
run_manifold, a VAE kind once per --betas value.  Unless --skip-ablation, the
discriminative models are trained again without scale normalization, and the
AUC each loses is printed.  Exit codes are the cvsqi commands' (cli.exit_code).
"""
import argparse
import json
import sys
import time

from cvsqi import cli, dataio, discriminative, experiment, manifold, preprocess
from cvsqi.evaluation import METRICS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=cli._seed, default=0)
    ap.add_argument("--subjects", type=cli._count, default=experiment.DEFAULT_SUBJECTS)
    ap.add_argument("--scheme", choices=preprocess.SCHEMES, default=preprocess.DEFAULT_SCHEME)
    ap.add_argument("--models", nargs="+", default=["vgg3", "bcvae"],
                    choices=discriminative.ARCHITECTURES + manifold.MANIFOLD_KINDS)
    ap.add_argument("--epochs", type=cli._count,
                    help="default: each family's DEFAULT_EPOCHS")
    ap.add_argument("--betas", type=float, nargs="+",
                    help="VAE KL weights; default: each kind's DEFAULT_BETA")
    ap.add_argument("--skip-ablation", action="store_true")
    ap.add_argument("--out", help="write the report table as JSON")
    return cli.exit_code(run, ap.parse_args(argv))


def _train(splits, name, beta, args) -> dict:
    """The test metrics of one model trained on splits."""
    if name in discriminative.ARCHITECTURES:
        epochs = discriminative.DEFAULT_EPOCHS if args.epochs is None else args.epochs
        return experiment.run_discriminative(splits, name, epochs=epochs, seed=args.seed)[1]
    epochs = manifold.DEFAULT_EPOCHS if args.epochs is None else args.epochs
    return experiment.run_manifold(splits, name, beta=beta, epochs=epochs, seed=args.seed)[1]


def run(args) -> int:
    """Print the report table, and write it to --out if given.  The report's
    temp file is made before anything is generated, so an --out that cannot
    be written fails first; it is renamed into place at the end."""
    with dataio.replacing() as open_temp:
        out = open_temp(args.out) if args.out else None
        report = _report(args)
        if out:
            out.write(json.dumps(report, indent=1) + "\n")
    return 0


def _report(args) -> dict:
    """The report's header and rows, printed as they come."""
    t0 = time.perf_counter()
    dataset = experiment.generate_dataset(args.seed, n_subjects=args.subjects)
    header = {"seed": args.seed, "subjects": args.subjects, "scheme": args.scheme,
              "n_cycles": len(dataset.cycles), "fractions": dataset.class_fractions()}
    print(f"dataset: {header['n_cycles']} cycles ("
          + "/".join(f"{100 * f:.1f}" for f in header["fractions"].values())
          + " normal/ambiguous/motion)")
    print(f"{'model':<8}{'scale':>8}{'beta':>8}" + "".join(f"{c:>12}" for c in METRICS)
          + f"{'threshold':>12}")

    ablated = [] if args.skip_ablation else [
        m for m in args.models if m in discriminative.ARCHITECTURES]
    rows = []
    for scale_mode, models in ((preprocess.DEFAULT_SCALE_MODE, args.models),
                               ("none", ablated)):
        if not models:
            continue
        splits = experiment.prepare_splits(dataset, args.scheme, scale_mode, args.seed)
        for name in models:
            betas = ((args.betas or [manifold.DEFAULT_BETA[name]])
                     if name in manifold.VAE_KINDS else [None])
            for beta in betas:
                row = {"model": name, "scale_mode": scale_mode, "beta": beta,
                       **_train(splits, name, beta, args)}
                rows.append(row)
                print(f"{name:<8}{scale_mode:>8}{_cell(beta, 8, '.3g')}"
                      + "".join(_cell(row[c], 12, ".4f") for c in METRICS)
                      + _cell(row.get("threshold"), 12, ".4g"))

    scaled_auc = {r["model"]: r["auc"] for r in rows if r["scale_mode"] != "none"}
    for r in rows:
        if r["scale_mode"] == "none" and None not in (scaled_auc[r["model"]], r["auc"]):
            print(f"ablation: {r['model']} AUC {scaled_auc[r['model']]:.4f} scaled, "
                  f"{r['auc']:.4f} unscaled (gap {scaled_auc[r['model']] - r['auc']:+.4f})")
    # the whole run: generation, every model and the ablation retrains
    header["elapsed_s"] = time.perf_counter() - t0
    print(f"elapsed {header['elapsed_s']:.1f} s")
    return {"header": header, "rows": rows}


def _cell(value, width: int, spec: str) -> str:
    return f"{'-' if value is None else format(value, spec):>{width}}"


if __name__ == "__main__":
    sys.exit(main())

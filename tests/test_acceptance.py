"""Acceptance gate: one test per criterion, with pinned tolerances.

The heavy end-to-end artifacts (dataset, trained models) are built once in a
module-scoped fixture and shared by the criteria that consume them.
"""
import time

import numpy as np
import pytest

from conftest import SEEDS
from cvsqi import autodiff as ad
from cvsqi import cli, discriminative as dm
from cvsqi import experiment, manifold as mf
from cvsqi.autodiff import Var
from cvsqi.evaluation import roc_auc, split_by_subject
from cvsqi.nn import receptive_field, shape_trace
from gradcheck import fd_grad, fd_grad_sampled, rel_err

NETWORK_TOL = 1e-4
ELEMENTWISE_TOL = 1e-6
ORACLE_TOL = 1e-12


# --- criterion 1: gradient correctness ---

def _check_params_against_fd(params, loss_fn, rng, n_coords=20,
                             tol=NETWORK_TOL):
    """Sample n_coords parameter coordinates across tensors and compare
    analytic gradients against central finite differences."""
    pvars = params.as_vars()
    loss = loss_fn(pvars)
    ad.backward(loss)

    names = sorted(params.values)
    sizes = np.array([params.values[n].size for n in names])
    flat_total = int(sizes.sum())
    picks = rng.choice(flat_total, size=min(n_coords, flat_total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = 0.0
    for flat_idx in picks:
        ti = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[ti]
        local = int(flat_idx - offsets[ti])
        analytic = pvars[name].grad.reshape(-1)[local]
        fd = fd_grad_sampled(lambda: float(loss_fn(params.as_vars()).value),
                             params.values[name], [local])[0]
        worst = max(worst, rel_err(np.array([analytic]), np.array([fd])))
    assert worst < tol, f"max relative gradient error {worst:.3g}"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # elementwise ops at the tighter tolerance
    x = rng.uniform(0.2, 2.0, size=(4, 5))
    for op in (ad.exp, ad.log, ad.square, ad.sigmoid, ad.relu):
        xv = Var(x)
        loss = ad.sum_(op(xv))
        ad.backward(loss)
        fd = fd_grad(lambda op=op: float(ad.sum_(op(Var(x))).value), x)
        assert rel_err(xv.grad, fd) < ELEMENTWISE_TOL

    # every trainable discriminative architecture under its training loss
    xb = rng.normal(size=(6, 150))
    yb = rng.choice([0.0, 0.25, 1.0], size=6)
    weights = dm.ClassWeights(0.3, 0.7)
    for arch in dm.ARCHITECTURES:
        model = dm.build(arch, seed=1)

        def loss_fn(pvars, model=model):
            pred = dm._forward_var(model, xb, pvars)
            return dm._weighted_ce_loss(pred, yb, weights)
        _check_params_against_fd(model.params, loss_fn, rng)

    # both VAE families under the reparameterized training loss
    noise = rng.standard_normal((6, 10))
    for kind in ("vae", "cvae"):
        model = mf.build_vae(kind, seed=1)

        def loss_fn(pvars, model=model):
            return mf._vae_loss(model, xb, pvars, noise)
        _check_params_against_fd(model.params, loss_fn, rng)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f} s"


# --- criterion 2: architecture fidelity ---

def test_criterion_2_architecture_fidelity():
    assert shape_trace(dm.architecture_descriptor("vgg5"), (150, 1)) == [
        (150, 1),
        (150, 4), (150, 4), (75, 4),
        (75, 8), (75, 8), (37, 8),
        (37, 16), (37, 16), (18, 16),
        (18, 32), (18, 32), (9, 32),
        (9, 64), (9, 64),
        (576,), (576,), (1,),
    ]
    assert shape_trace(dm.architecture_descriptor("mlp1"), (150,)) == [
        (150,), (150,), (300,), (300,), (150,), (150,), (150,), (1,)]
    assert shape_trace(dm.architecture_descriptor("mlp2"), (150,)) == [
        (150,), (150,), (150,), (100,), (50,), (25,), (10,), (1,)]

    lengths = [150]
    for _ in range(4):
        lengths.append(lengths[-1] // 2)
    assert lengths == [150, 75, 37, 18, 9]

    assert receptive_field(dm.architecture_descriptor("vgg3")) == 32
    assert receptive_field(dm.architecture_descriptor("vgg4")) == 68
    assert receptive_field(dm.architecture_descriptor("vgg5")) == 140


# --- criterion 3: oracle equivalence ---

def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(0)

    # AUC vs Mann-Whitney pair counting, 100 random instances of size <= 200
    from test_evaluation import mann_whitney_auc
    for _ in range(100):
        n = int(rng.integers(4, 201))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels)
        assert abs(auc - mann_whitney_auc(scores, labels)) < ORACLE_TOL

    # Youden threshold vs a dense grid sweep
    for _ in range(20):
        n = int(rng.integers(6, 80))
        r = rng.uniform(0, 3, size=n)
        y = rng.integers(0, 2, size=n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        _, j = mf.select_threshold(r, y)
        grid = np.linspace(r.min() - 1, r.max() + 1, 100_000)
        accept = r[None, :] <= grid[:, None]
        tp = (accept & (y == 1)).sum(axis=1)
        tn = (~accept & (y == 0)).sum(axis=1)
        j_grid = (tp / (y == 1).sum() + tn / (y == 0).sum() - 1.0).max()
        assert abs(j - j_grid) < ORACLE_TOL

    # PCA subspace projector vs dense eigendecomposition of the covariance
    for _ in range(5):
        x = rng.normal(size=(30, 150))
        model = mf.pca_fit(x)
        proj = model.components.T @ model.components
        centered = x - x.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered)
        top = evecs[:, np.argsort(evals)[::-1][:10]]
        assert np.max(np.abs(proj - top @ top.T)) < 1e-8

    # conv and dense forwards vs nested-loop oracles
    from test_autodiff import conv_oracle
    for stride in (1, 2):
        x = rng.normal(size=(2, 13, 3))
        kern = rng.normal(size=(3, 3, 4))
        b = rng.normal(size=4)
        out = ad.conv1d(Var(x), Var(kern), Var(b), stride=stride).value
        assert np.max(np.abs(out - conv_oracle(x, kern, b, stride))) < ORACLE_TOL

    xd = rng.normal(size=(5, 9))
    w = rng.normal(size=(4, 9))
    bd = rng.normal(size=4)
    out = ad.dense(Var(xd), Var(w), Var(bd)).value
    expected = np.array([[bd[o] + sum(xd[n, i] * w[o, i] for i in range(9))
                          for o in range(4)] for n in range(5)])
    assert np.max(np.abs(out - expected)) < ORACLE_TOL


# --- criteria 4, 5, 7: the shared end-to-end run ---

@pytest.fixture(scope="module")
def e2e():
    t0 = time.perf_counter()
    dataset = experiment.generate_dataset(0)
    splits_scaled = experiment.prepare_splits(dataset, "interp", "subject", 0)
    splits_unscaled = experiment.prepare_splits(dataset, "interp", "none", 0)
    _, vgg_scaled = experiment.run_discriminative(splits_scaled, arch="vgg3",
                                                  epochs=15, seed=0)
    _, vgg_unscaled = experiment.run_discriminative(splits_unscaled, arch="vgg3",
                                                    epochs=15, seed=0)
    vae_model, vae_report = experiment.run_manifold(splits_scaled, kind="bcvae",
                                                    beta=0.5, epochs=40, seed=0)
    return {
        "dataset": dataset,
        "vgg_scaled": vgg_scaled,
        "vgg_unscaled": vgg_unscaled,
        "vae_model": vae_model,
        "vae_report": vae_report,
        "elapsed_s": time.perf_counter() - t0,
    }


def test_criterion_4_synthetic_end_to_end(e2e):
    dataset = e2e["dataset"]
    assert len(dataset.cycles) >= 2000
    fr = dataset.class_fractions()
    assert abs(fr["normal"] - 0.80) < 0.05
    assert abs(fr["ambiguous"] - 0.10) < 0.05
    assert abs(fr["motion"] - 0.10) < 0.05

    train, val, test = split_by_subject(dataset.cycles, seed=0)
    sets = [{c.subject_id for c in p} for p in (train, val, test)]
    assert not (sets[0] & sets[1]) and not (sets[0] & sets[2])
    assert not (sets[1] & sets[2])
    total = len(dataset.cycles)
    assert abs(len(train) / total - 0.8) < 0.1
    assert abs(len(val) / total - 0.1) < 0.07
    assert abs(len(test) / total - 0.1) < 0.07

    assert e2e["vgg_scaled"]["auc"] >= 0.90
    assert e2e["vae_report"]["auc"] >= 0.88
    assert e2e["elapsed_s"] < 15 * 60


def test_criterion_5_manifold_purity(e2e):
    audit = e2e["vae_model"].train_audit
    assert audit["negatives_in_updates"] == 0
    assert audit["updates"] > 0
    assert audit["samples_seen"] > 0


def test_criterion_7_scale_normalization_ablation(e2e):
    gap = e2e["vgg_scaled"]["auc"] - e2e["vgg_unscaled"]["auc"]
    assert gap >= 0.03, (
        f"scaled {e2e['vgg_scaled']['auc']:.4f} vs "
        f"unscaled {e2e['vgg_unscaled']['auc']:.4f} (gap {gap:.4f})")


# --- criterion 6: real-time bound ---

def test_criterion_6_real_time_bound(capsys):
    named = [(arch, dm.build(arch, seed=0)) for arch in dm.ARCHITECTURES]
    for kind in ("vae", "bvae", "cvae", "bcvae"):
        model = mf.build_vae(kind, seed=0)
        model.threshold_d = 1.0
        named.append((kind, model))
    cycles = cli._bench_cycles(1000, seed=0)
    reports = cli.bench_models(named, cycles)
    for r in reports:
        assert r["median_us"] < 10_000.0, (
            f"{r['model']} median {r['median_us']:.1f} us exceeds 10 ms")
    # informational target, reported but not gating
    with capsys.disabled():
        for r in reports:
            if r["model"] in ("lr", "mlp1", "mlp2"):
                status = "meets" if r["median_us"] < 100.0 else "misses"
                print(f"[bench] {r['model']}: median {r['median_us']:.1f} us "
                      f"({status} the 100 us target)")


# --- criterion 8: invariant suites run on three distinct seeds ---

def test_criterion_8_invariants_on_three_seeds(request):
    """The module invariants are seed-parametrized property tests.

    Every test that takes the `seed` fixture runs once per seed; this check
    pins the contract that there are exactly three distinct seeds and that the
    suite actually contains seeded property tests for every module.
    """
    assert len(set(SEEDS)) == 3
    import test_autodiff, test_dataio, test_discriminative, test_evaluation
    import test_forward, test_manifold, test_model_io, test_nn, test_preprocess
    modules = (test_forward, test_preprocess, test_autodiff, test_nn,
               test_discriminative, test_manifold, test_evaluation,
               test_dataio, test_model_io)
    import inspect
    for mod in modules:
        # the classes pytest collects, not every class a test module imports
        seeded = [name for name, obj in vars(mod).items()
                  if inspect.isclass(obj) and name.startswith("Test")
                  for mname, m in vars(obj).items()
                  if callable(m) and "seed" in inspect.signature(m).parameters]
        assert seeded, f"{mod.__name__} has no seed-parametrized properties"

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvsqi import manifold as mf
from cvsqi.autodiff import Var
from cvsqi.errors import SingleClassDataset, ValidationError
from cvsqi.nn import forward_layers
from gradcheck import fd_grad_sampled, rel_err


class TestPca:
    def test_axis_aligned_variance(self):
        rng = np.random.default_rng(0)
        e3 = np.zeros(150)
        e3[3] = 1.0
        x = np.outer(rng.normal(size=40), e3)
        model = mf.pca_fit(x, k=10)
        v1 = model.components[0]
        assert abs(abs(v1 @ e3) - 1.0) < 1e-10

    def test_orthonormal_components(self, seed):
        rng = np.random.default_rng(seed)
        model = mf.pca_fit(rng.normal(size=(30, 150)))
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10

    def test_projector_matches_dense_eigendecomposition(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 150))
        model = mf.pca_fit(x)
        proj = model.components.T @ model.components
        # independent route: eigendecomposition of the covariance matrix
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / x.shape[0]
        evals, evecs = np.linalg.eigh(cov)
        top = evecs[:, np.argsort(evals)[::-1][:10]]
        proj_oracle = top @ top.T
        assert np.max(np.abs(proj - proj_oracle)) < 1e-8

    def test_isotropic_variances_similar(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10_000, 20))
        x = np.pad(x, ((0, 0), (0, 130)))   # isotropic in the leading block
        model = mf.pca_fit(x)
        centered = x - x.mean(axis=0)
        var = np.var(centered @ model.components.T, axis=0)
        assert var.max() / var.min() < 1.5

    def test_insufficient_samples(self):
        with pytest.raises(ValidationError, match="^need at least 10 samples, got 5$"):
            mf.pca_fit(np.zeros((5, 150)))

    def test_reconstruction_on_subspace(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 150))
        model = mf.pca_fit(x)
        probe = model.mean + rng.normal(size=10) @ model.components
        recon = model.reconstruct(probe[None, :])
        assert np.max(np.abs(recon - probe)) < 1e-10

    def test_orthogonal_input_maps_to_mean(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 150))
        model = mf.pca_fit(x)
        probe = rng.normal(size=150)
        probe -= model.components.T @ (model.components @ probe)
        recon = model.reconstruct((model.mean + probe)[None, :])[0]
        assert np.max(np.abs(recon - model.mean)) < 1e-10

    def test_projection_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 150))
        model = mf.pca_fit(x)
        probe = rng.normal(size=(5, 150))
        once = model.reconstruct(probe)
        twice = model.reconstruct(once)
        assert np.max(np.abs(once - twice)) < 1e-10

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 150)) @ np.diag(np.linspace(2, 0.1, 150))
        errs = []
        for k in range(1, 11):
            model = mf.pca_fit(x, k=k)
            errs.append(float(np.sum((x - model.reconstruct(x)) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(errs[:-1], errs[1:]))


class TestVaeArchitecture:
    @pytest.mark.parametrize("kind", ["vae", "bvae", "cvae", "bcvae"])
    def test_latent_is_ten(self, kind, seed):
        model = mf.build_vae(kind, seed=seed)
        x = np.random.default_rng(seed).normal(size=(4, 150))
        h = forward_layers(model.enc, model.params.values, x, prefix="enc.")
        assert h.shape == (4, 20)                # mu and log sigma, ten each
        assert model.reconstruct(x).shape == (4, 150)

    def test_default_betas(self):
        assert mf.build_vae("vae", seed=0).beta == 1.0
        assert mf.build_vae("bvae", seed=0).beta == 0.5
        assert mf.build_vae("bcvae", seed=0).beta == 0.5

    @pytest.mark.parametrize("beta", [np.nan, np.inf, 0.0, -5.0])
    def test_beta_not_positive_and_finite_rejected(self, beta):
        with pytest.raises(ValidationError, match="^beta must be a positive finite "
                                                  "number, got "):
            mf.build_vae("bvae", seed=0, beta=beta)

    def test_conv_decoder_length_chain(self):
        dec = mf._conv_vae_descriptors()[1]
        out_lens = [l["out_len"] for l in dec if l["type"] == "deconv"]
        assert out_lens == [19, 38, 75, 150]


class TestVaeForward:
    def test_inference_deterministic(self, seed):
        model = mf.build_vae("vae", seed=seed)
        x = np.random.default_rng(seed).normal(size=(3, 150))
        assert np.array_equal(model.reconstruct(x), model.reconstruct(x))

    def test_reparameterized_gradient_matches_fd(self):
        model = mf.build_vae("vae", seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 150))
        noise = rng.standard_normal((4, 10))
        name = "enc.layer3.W"
        arr = model.params.values[name]
        coords = rng.choice(arr.size, size=10, replace=False)

        pvars = model.params.as_vars()
        loss = mf._vae_loss(model, x, pvars, noise)
        import cvsqi.autodiff as ad
        ad.backward(loss)
        analytic = pvars[name].grad.reshape(-1)[coords]

        def f():
            return float(mf._vae_loss(model, x, model.params.as_vars(),
                                      noise).value)
        fd = fd_grad_sampled(f, arr, coords)
        assert rel_err(analytic, fd) < 1e-4


class TestKl:
    def test_gradient_matches_fd(self, seed):
        # KL as implemented inside the training loss, against FD in log sigma
        rng = np.random.default_rng(seed)
        mu0 = rng.normal(size=(2, 10))
        ls0 = rng.normal(size=(2, 10)) * 0.3
        import cvsqi.autodiff as ad

        def build(mu_arr, ls_arr):
            mu, ls = Var(mu_arr), Var(ls_arr)
            kl = ad.scale(ad.sum_(ad.add(ad.sub(
                ad.add(ad.square(mu), ad.exp(ad.scale(ls, 2.0))),
                ad.scale(ls, 2.0)), Var(-np.ones((2, 10))))), 0.5)
            return mu, ls, kl

        mu, ls, kl = build(mu0, ls0)
        ad.backward(kl)
        from gradcheck import fd_grad
        fd_mu = fd_grad(lambda: float(build(mu0, ls0)[2].value), mu0)
        fd_ls = fd_grad(lambda: float(build(mu0, ls0)[2].value), ls0)
        assert rel_err(mu.grad, fd_mu) < 1e-6
        assert rel_err(ls.grad, fd_ls) < 1e-6


def normal_cycles(rng, n):
    template = np.sin(np.linspace(0, np.pi, 150)) ** 2
    return template[None, :] + 0.05 * rng.normal(size=(n, 150))


class TestVaeTrain:
    def test_loss_halves_on_synthetic_normals(self):
        rng = np.random.default_rng(0)
        x = normal_cycles(rng, 120)
        model = mf.build_vae("vae", seed=0)
        hist = mf.vae_train(model, x, np.ones(120, dtype=int), epochs=25,
                            lr=1e-3, seed=0)
        assert hist["train_loss"][-1] < 0.5 * hist["train_loss"][0]

    def test_zero_lr_leaves_parameters(self, seed):
        # a zero step is rejected before any update, like every rate that is
        # not a positive finite number
        rng = np.random.default_rng(seed)
        x = normal_cycles(rng, 40)
        model = mf.build_vae("bvae", seed=seed)
        before = model.params.copy_values()
        with pytest.raises(ValidationError, match="^learning rate must be a positive "
                                                  "finite number, got 0.0$"):
            mf.vae_train(model, x, np.ones(40, dtype=int), epochs=2, lr=0.0,
                         seed=seed)
        assert model.params.t == 0 and model.train_audit == {}
        for k, v in before.items():
            assert np.array_equal(model.params.values[k], v)

    def test_negative_samples_rejected(self):
        rng = np.random.default_rng(0)
        x = normal_cycles(rng, 10)
        labels = np.ones(10, dtype=int)
        labels[3] = 0
        model = mf.build_vae("vae", seed=0)
        with pytest.raises(ValidationError,
                           match="^1 non-positive samples in manifold training set$"):
            mf.vae_train(model, x, labels, epochs=1, lr=1e-3)

    def test_audit_counts_zero_negatives(self, seed):
        rng = np.random.default_rng(seed)
        x = normal_cycles(rng, 50)
        model = mf.build_vae("vae", seed=seed)
        mf.vae_train(model, x, np.ones(50, dtype=int), epochs=3, lr=1e-3,
                     seed=seed)
        audit = model.train_audit
        assert audit["negatives_in_updates"] == 0
        assert audit["samples_seen"] == 150
        assert audit["updates"] == 3


class TestTrainKind:
    @pytest.mark.parametrize("kind", mf.MANIFOLD_KINDS)
    def test_negatives_rejected_before_any_fit(self, kind, monkeypatch):
        calls = []
        for name in ("pca_fit", "build_vae", "vae_train"):
            monkeypatch.setattr(mf, name, lambda *a, name=name, **kw: calls.append(name))
        labels = np.ones(20, dtype=int)
        labels[7] = 0
        with pytest.raises(ValidationError,
                           match="^1 non-positive samples in manifold training set$"):
            mf.train_kind(kind, normal_cycles(np.random.default_rng(0), 20), labels,
                          epochs=1)
        assert calls == []

    @pytest.mark.parametrize("kind", ["pca", "bcvae"])
    def test_fits_the_kind(self, kind):
        x = normal_cycles(np.random.default_rng(0), 20)
        model, history = mf.train_kind(kind, x, np.ones(20, dtype=int), epochs=1)
        assert model.kind == kind and model.threshold_d is None
        if kind == "pca":
            assert history == {} and model.training_meta == {"n_train": 20}
        else:
            assert len(history["train_loss"]) == 1
            assert model.train_audit["negatives_in_updates"] == 0


class TestResiduals:
    def test_pca_on_subspace_near_zero(self, seed):
        rng = np.random.default_rng(seed)
        model = mf.pca_fit(rng.normal(size=(30, 150)))
        probe = model.mean + rng.normal(size=10) @ model.components
        assert mf.residuals(model, probe[None])[0] < 1e-8

    def test_nonnegative_and_order_invariant(self, seed):
        rng = np.random.default_rng(seed)
        model = mf.pca_fit(rng.normal(size=(30, 150)))
        x = rng.normal(size=(12, 150))
        r = mf.residuals(model, x)
        assert np.all(r >= 0)
        perm = rng.permutation(12)
        assert np.array_equal(mf.residuals(model, x[perm]), r[perm])
        singles = np.array([mf.residuals(model, xi[None])[0] for xi in x])
        assert np.allclose(singles, r, rtol=1e-12, atol=0)

    def test_normal_cycles_score_below_distorted(self):
        rng = np.random.default_rng(0)
        train_x = normal_cycles(rng, 60)
        model = mf.pca_fit(train_x)
        normal = normal_cycles(rng, 30)
        distorted = normal + 2.0 * rng.normal(size=normal.shape)
        assert (np.median(mf.residuals(model, normal))
                < np.median(mf.residuals(model, distorted)))


def youden_j(accept, y):
    """Sensitivity + specificity - 1 of the accept verdicts (one per row of
    a 2-D accept), the normal label 1 positive; y holds both classes."""
    pos = y == 1
    sensitivity = np.sum(accept & pos, axis=-1) / np.sum(pos)
    specificity = np.sum(~accept & ~pos, axis=-1) / np.sum(~pos)
    return sensitivity + specificity - 1.0


def threshold_grid_oracle(r, y, n_grid=100_000):
    grid = np.linspace(min(r) - 1.0, max(r) + 1.0, n_grid)
    return float(np.max(youden_j(r <= grid[:, None], y)))


def threshold_loop_oracle(r, y):
    """Candidate-by-candidate Youden search: four full-array reductions each."""
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    distinct = np.unique(r)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    low = distinct[0] / 2.0 if distinct[0] > 0 else -np.inf
    candidates = np.concatenate([[low], mids, distinct[-1:], [np.inf]])
    best_d, best_j = candidates[0], -np.inf
    for d in candidates:
        accept = r <= d
        tp = int(np.sum(accept & (y == 1)))
        tn = int(np.sum(~accept & (y == 0)))
        j = tp / n_pos + tn / n_neg - 1.0
        if j > best_j + 1e-15:
            best_j, best_d = j, d
    return float(max(best_d, 0.0)), float(best_j)


class TestSelectThreshold:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)),
                    min_size=2, max_size=60),
           st.sampled_from([0.25, 0.3, 1.0 / 3.0]))
    def test_matches_loop_oracle_exactly_under_ties(self, pairs, step):
        r = np.array([v * step for v, _ in pairs])
        y = np.array([c for _, c in pairs])
        assume(0 < y.sum() < len(y))
        assert mf.select_threshold(r, y) == threshold_loop_oracle(r, y)

    def test_perfect_separation_midpoint(self):
        r = np.array([0.1, 0.2, 0.9])
        y = np.array([1, 1, 0])
        d, j = mf.select_threshold(r, y)
        assert j == pytest.approx(1.0)
        assert d == pytest.approx(0.55)
        assert np.all((r <= d).astype(int) == y)

    def test_identical_residuals_give_zero_j(self):
        r = np.full(6, 2.0)
        y = np.array([1, 1, 1, 0, 0, 0])
        _, j = mf.select_threshold(r, y)
        assert j == pytest.approx(0.0)

    def test_matches_dense_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0, 3, size=40)
        y = rng.integers(0, 2, size=40)
        if y.sum() in (0, 40):
            y[0] = 1 - y[0]
        d, j = mf.select_threshold(r, y)
        assert abs(j - threshold_grid_oracle(r, y)) < 1e-12
        assert youden_j(r <= d, y) == pytest.approx(j, abs=1e-12)

    def test_threshold_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0, 1, size=20)
        y = rng.integers(0, 2, size=20)
        if y.sum() in (0, 20):
            y[0] = 1 - y[0]
        d, _ = mf.select_threshold(r, y)
        assert d >= 0.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataset):
            mf.select_threshold(np.arange(5.0), np.ones(5, dtype=int))


class TestAssess:
    def make_model(self, d):
        model = mf.PcaModel(mean=np.zeros(150), components=np.eye(150)[:10])
        model.threshold_d = d
        return model

    def test_boundary_inclusive(self):
        model = self.make_model(0.0)
        x = np.zeros(150)   # residual exactly 0 = d
        assert mf.assess(model, x) == 1

    def test_zero_residual_accepted(self, seed):
        rng = np.random.default_rng(seed)
        model = self.make_model(0.5)
        x = np.zeros(150)
        x[:10] = rng.normal(size=10)   # inside the subspace
        assert mf.residuals(model, x[None])[0] < 1e-10
        assert mf.assess(model, x) == 1

    def test_monotone_in_residual(self, seed):
        rng = np.random.default_rng(seed)
        model = self.make_model(1.0)
        tail = rng.normal(size=140)
        tail /= np.linalg.norm(tail)
        verdicts = []
        for scale in np.linspace(0.0, 3.0, 13):
            x = np.zeros(150)
            x[10:] = scale * tail   # residual equals scale exactly
            verdicts.append(mf.assess(model, x))
        # once rejected, larger residuals stay rejected
        assert verdicts == sorted(verdicts, reverse=True)

    def test_threshold_unset(self):
        model = mf.PcaModel(mean=np.zeros(150), components=np.eye(150)[:10])
        with pytest.raises(ValidationError,
                           match="^manifold model has no threshold; run `threshold` first$"):
            mf.assess(model, np.zeros(150))

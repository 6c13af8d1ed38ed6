"""Mixed-precision training: a float32 tape under float64 master weights.

Every op keeps float32 operands in float32, forward and backward, so no
layer upcasts a training step in silence; cast is the one way into the
float64 loss; Adam steps a float32 gradient exactly as its float64 upcast.
Float32 bits depend on the BLAS thread count as float64 bits do, so CI also
runs this file under OPENBLAS_NUM_THREADS=1.
"""
import numpy as np
import pytest

from cvsqi import autodiff as ad
from cvsqi import discriminative, kernels, manifold, nn
from cvsqi.autodiff import Var
from cvsqi.nn import ParamSet, adam_step, forward_layers
from test_autodiff import same_bits

F32 = np.float32


def f32(rng, *shape):
    return rng.normal(size=shape).astype(F32)


def grads_of(build, *arrays):
    """(the output Var, the gradient of each input) of sum(build(*Vars))."""
    xs = [Var(a) for a in arrays]
    out = build(*xs)
    ad.backward(ad.sum_(out))
    return out, [x.grad for x in xs]


# (name, op on Vars, input shapes): every op of the tape
CONVS = [(k, stride, cin) for k in (1, 3) for stride in (1, 2) for cin in (1, 4)]
OPS = [
    ("dense", lambda x, w, b: ad.dense(x, w, b), [(5, 6), (3, 6), (3,)]),
    *[(f"conv1d-k{k}-s{s}-c{c}",
       lambda x, w, b, s=s: ad.conv1d(x, w, b, stride=s), [(2, 9, c), (k, c, 3), (3,)])
      for k, s, c in CONVS],
    *[(f"conv_transpose1d-k{k}-s{s}-c{c}",
       lambda x, w, b, s=s: ad.conv_transpose1d(x, w, b, stride=s, out_len=9),
       [(2, -(-9 // s), c), (k, c, 3), (3,)])
      for k, s, c in CONVS],
    ("maxpool1d", ad.maxpool1d, [(2, 9, 3)]),
    ("relu", ad.relu, [(4, 7)]),
    ("sigmoid", ad.sigmoid, [(4, 7)]),
    ("add", ad.add, [(4, 7), (4, 7)]),
    ("sub", ad.sub, [(4, 7), (4, 7)]),
    ("mul", ad.mul, [(4, 7), (4, 7)]),
    ("scale", lambda a: ad.scale(a, 0.3), [(4, 7)]),
    ("square", ad.square, [(4, 7)]),
    ("exp", ad.exp, [(4, 7)]),
    ("log", lambda a: ad.log(ad.exp(a)), [(4, 7)]),
    ("clip", lambda a: ad.clip(a, -0.5, 0.5), [(4, 7)]),
    ("mean", ad.mean, [(4, 7)]),
    ("reshape", lambda a: ad.reshape(a, (7, 4)), [(4, 7)]),
    ("slice_cols", lambda a: ad.slice_cols(a, 2, 5), [(4, 7)]),
]


class TestFloat32Tape:
    @pytest.mark.parametrize("name,op,shapes", OPS, ids=[o[0] for o in OPS])
    def test_op_keeps_float32_and_matches_float64(self, name, op, shapes):
        rng = np.random.default_rng(len(name))
        arrays = [f32(rng, *shape) for shape in shapes]
        out, grads = grads_of(op, *arrays)
        assert out.value.dtype == F32
        assert [g.dtype for g in grads] == [F32] * len(arrays)
        out64, grads64 = grads_of(op, *[a.astype(np.float64) for a in arrays])
        assert out64.value.dtype == np.float64
        np.testing.assert_allclose(out.value, out64.value, rtol=1e-5, atol=1e-5)
        for g, g64 in zip(grads, grads64):
            np.testing.assert_allclose(g, g64, rtol=1e-5, atol=1e-5)

    def test_var_keeps_float32_and_makes_anything_else_float64(self):
        assert Var(np.ones(3, dtype=F32)).value.dtype == F32
        assert Var(np.float32(2.0)).value.dtype == F32
        for value in (np.ones(3, dtype=np.float16), np.arange(3), [1, 2], 1.5,
                      np.ones(3)):
            assert Var(value).value.dtype == np.float64

    @pytest.mark.parametrize("k,stride,cin", CONVS)
    def test_conv_kernels_keep_float32(self, k, stride, cin):
        rng = np.random.default_rng(k * 10 + stride)
        x = f32(rng, 2, 9, cin)
        cols = kernels.im2col(x, k, stride)
        assert cols.dtype == F32
        assert kernels.col2im(cols.reshape(2, -1, k, cin), stride, 9).dtype == F32

    def test_backward_kernels_keep_float32(self):
        rng = np.random.default_rng(0)
        x, g = f32(rng, 2, 9, 3), f32(rng, 2, 4, 3)
        assert kernels.maxpool1d_bwd(g, x).dtype == F32
        assert kernels.relu_bwd(x, x).dtype == F32

    @pytest.mark.parametrize("name", ["vgg3", "mlp1", "bcvae", "vae"])
    def test_model_forward_and_every_parameter_gradient_stay_float32(self, name):
        # an upcast in any layer would carry float64 into every gradient
        # upstream of it, so one float32 parameter gradient each proves none
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, size=(5, 150)).astype(F32)
        if name in manifold.VAE_KINDS:
            model = manifold.build_vae(name, seed=2)
            pvars = model.params.as_vars(F32)
            h = forward_layers(model.enc, pvars, Var(x), prefix="enc.")
            out = forward_layers(model.dec, pvars, ad.slice_cols(h, 0, manifold.LATENT_DIM),
                                 prefix="dec.")
        else:
            model = discriminative.build(name, seed=2)
            pvars = model.params.as_vars(F32)
            out = discriminative._forward_var(model, x, pvars)
        assert out.value.dtype == F32
        ad.backward(ad.sum_(ad.cast(out, np.float64)))
        assert {k: v.grad.dtype for k, v in pvars.items()} == {k: F32 for k in pvars}

    def test_tape_free_forward_keeps_float32(self):
        model = discriminative.build("vgg3", seed=2)
        params = {k: v.astype(F32) for k, v in model.params.values.items()}
        x = np.random.default_rng(3).normal(size=(4, 150)).astype(F32)
        assert forward_layers(model.descriptor, params, x).dtype == F32


class TestCast:
    def test_value_and_gradient_change_dtype(self):
        x = Var(np.array([1.0, 2.0, 3.0], dtype=F32))
        y = ad.cast(x, np.float64)
        assert y.value.dtype == np.float64 and np.array_equal(y.value, [1.0, 2.0, 3.0])
        ad.backward(ad.sum_(ad.scale(y, 1.0 + 2.0 ** -40)))
        assert x.grad.dtype == F32
        assert np.array_equal(x.grad, np.ones(3, dtype=F32))   # rounded back

    def test_same_dtype_is_the_var_itself(self):
        x = Var(np.ones(3))
        assert ad.cast(x, np.float64) is x


class TestLossHead:
    def test_cross_entropy_is_finite_where_float32_p_rounds_to_one(self):
        # 1 - 1e-12 is 1.0 in float32: without the cast log(1 - p) is log(0)
        p = np.array([1.0, 1.0 - 2.0 ** -24, 0.0, 0.5], dtype=F32)
        assert np.float32(1.0 - discriminative.CLIP_EPS) == 1.0
        pred = Var(p)
        y = np.array([0.0, 0.25, 1.0, 1.0])
        loss = discriminative._weighted_ce_loss(pred, y, discriminative.ClassWeights(0.5, 0.5))
        ad.backward(loss)
        assert loss.value.dtype == np.float64 and np.isfinite(loss.value)
        assert pred.grad.dtype == F32 and np.all(np.isfinite(pred.grad))

    def test_vae_loss_sums_in_float64_with_float32_gradients(self):
        model = manifold.build_vae("bcvae", seed=4)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, size=(6, 150))
        noise = rng.standard_normal((6, manifold.LATENT_DIM))
        pvars = model.params.as_vars(F32)
        loss = manifold._vae_loss(model, x.astype(F32), pvars, noise)
        ad.backward(loss)
        assert loss.value.dtype == np.float64
        assert {v.grad.dtype for v in pvars.values()} == {np.dtype(F32)}
        loss64 = manifold._vae_loss(model, x, model.params.as_vars(), noise)
        assert float(loss.value) == pytest.approx(float(loss64.value), rel=1e-5)


class TestAdam:
    def test_float32_gradients_step_as_their_float64_upcast(self, seed):
        rng = np.random.default_rng(seed)
        shapes = {"w": (3, 4), "b": (4,), "k": (3, 2, 5)}
        values = {k: rng.normal(size=s) for k, s in shapes.items()}
        low, high = ParamSet(values), ParamSet(values)
        for _ in range(3):
            grads = {k: f32(rng, *s) * 10.0 ** rng.integers(-6, 3) for k, s in shapes.items()}
            adam_step(low, grads, 1e-3)
            adam_step(high, {k: g.astype(np.float64) for k, g in grads.items()}, 1e-3)
            for k in shapes:
                assert low.values[k].dtype == low.m[k].dtype == np.float64
                assert same_bits(low.values[k], high.values[k])
                assert same_bits(low.m[k], high.m[k]) and same_bits(low.v[k], high.v[k])


class TestTraining:
    def test_train_dtype_is_float32(self):
        assert nn.TRAIN_DTYPE is np.float32

    def test_fit_hands_batch_loss_float32_parameters_and_keeps_float64_masters(self):
        params = ParamSet({"w": np.zeros(3)})
        seen = []

        def batch_loss(idx, pvars, rng):
            seen.append(pvars["w"].value.dtype)
            return ad.sum_(ad.square(ad.cast(pvars["w"], np.float64)))

        nn.fit(params, 2 * nn.BATCH_ROWS, batch_loss, 2, 0.1, 0)
        assert seen == [F32] * 4
        assert params.values["w"].dtype == np.float64

    def test_as_vars_defaults_to_float64(self):
        params = ParamSet({"w": np.ones(3)})
        var = params.as_vars()["w"]
        assert var.value.dtype == np.float64 and var.value is params.values["w"]

    @pytest.mark.parametrize("name", ["vgg3", "bcvae"])
    def test_float32_training_tracks_float64_training(self, monkeypatch, name):
        def trained():
            rng = np.random.default_rng(7)
            x = rng.uniform(-1.0, 1.0, size=(101, 150))
            if name == "vgg3":
                model = discriminative.build(name, seed=3)
                y = (np.arange(101) % 3 == 0).astype(float)
                discriminative.train(model, x, y, x[:40], y[:40].astype(np.int64),
                                     epochs=2, lr=1e-3, seed=3)
            else:
                model = manifold.build_vae(name, seed=3)
                manifold.vae_train(model, x, np.ones(101, dtype=np.int64), epochs=2,
                                   lr=1e-3, seed=3)
            return model.params.values

        low = trained()
        monkeypatch.setattr(nn, "TRAIN_DTYPE", np.float64)
        high = trained()
        for k in low:
            assert low[k].dtype == np.float64
            np.testing.assert_allclose(low[k], high[k], rtol=0, atol=1e-4)

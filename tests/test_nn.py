import math
import os
import threading
import time

import numpy as np
import pytest

from cvsqi import autodiff as ad
from cvsqi import discriminative, manifold, nn
from cvsqi.autodiff import Var
from cvsqi.errors import ShapeMismatch, ValidationError
from cvsqi.evaluation import roc_auc
from cvsqi.nn import (BATCH_ROWS, ParamSet, adam_step, by_rows, fit, forward_layers,
                      init_params, param_shapes, receptive_field, shape_trace)
from test_autodiff import same_bits

SIMPLE_LAYERS = [
    {"type": "dense", "in": 6, "out": 4, "act": "relu"},
    {"type": "dense", "in": 4, "out": 1, "act": "sigmoid"},
]


def adam_oracle(values, m, v, t, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar-loop re-implementation of one Adam step."""
    out_v, out_m, out_s = {}, {}, {}
    for name, g in grads.items():
        x = values[name].copy().ravel()
        mm = m[name].copy().ravel()
        vv = v[name].copy().ravel()
        gg = g.ravel()
        for i in range(x.size):
            mm[i] = b1 * mm[i] + (1 - b1) * gg[i]
            vv[i] = b2 * vv[i] + (1 - b2) * gg[i] * gg[i]
            mh = mm[i] / (1 - b1 ** t)
            vh = vv[i] / (1 - b2 ** t)
            x[i] = x[i] - lr * mh / (np.sqrt(vh) + eps)
        out_v[name] = x.reshape(values[name].shape)
        out_m[name] = mm.reshape(values[name].shape)
        out_s[name] = vv.reshape(values[name].shape)
    return out_v, out_m, out_s


def adam_reference(values, m, v, t, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One out-of-place Adam step in adam_step's order of operations."""
    out_v, out_m, out_s = dict(values), dict(m), dict(v)
    for name, g in grads.items():
        out_m[name] = b1 * m[name] + (1 - b1) * g
        out_s[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = out_m[name] / (1 - b1 ** t)
        v_hat = out_s[name] / (1 - b2 ** t)
        out_v[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out_v, out_m, out_s


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        ps = ParamSet({"w": np.array([1.0, -2.0])})
        adam_step(ps, {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(ps.values["w"], [1.0, -2.0])

    def test_zero_gradient_decays_moments(self):
        ps = ParamSet({"w": np.array([0.0])})
        adam_step(ps, {"w": np.array([1.0])}, lr=0.0)
        m1 = abs(float(ps.m["w"][0]))
        adam_step(ps, {"w": np.array([0.0])}, lr=0.0)
        assert abs(float(ps.m["w"][0])) == pytest.approx(0.9 * m1)

    def test_first_step_is_signed_lr(self):
        ps = ParamSet({"w": np.array([0.0])})
        g = np.array([0.37])
        adam_step(ps, {"w": g}, lr=1e-3)
        # bias correction makes the first update -lr * sign(g) up to eps effects
        assert float(ps.values["w"][0]) == pytest.approx(-1e-3, rel=1e-4)

    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        ps = ParamSet(values)
        for step in range(3):
            grads = {k: rng.normal(size=v.shape) for k, v in ps.values.items()}
            ov, om, os_ = adam_oracle(ps.values, ps.m, ps.v, step + 1, grads,
                                      lr=1e-2)
            adam_step(ps, grads, lr=1e-2)
            for k in values:
                assert same_bits(ps.values[k], ov[k])
                assert same_bits(ps.m[k], om[k])
                assert same_bits(ps.v[k], os_[k])

    def test_bit_identical_to_out_of_place_reference(self, seed):
        rng = np.random.default_rng(seed)
        ps = ParamSet({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)})
        ref = tuple({k: a.copy() for k, a in d.items()} for d in (ps.values, ps.m, ps.v))
        for step in range(1, 6):
            grads = {k: rng.normal(size=v.shape) for k, v in ps.values.items()}
            ref = adam_reference(*ref, step, grads, lr=1e-2)
            adam_step(ps, grads, lr=1e-2)
            assert ps.t == step
            for got, want in zip((ps.values, ps.m, ps.v), ref):
                for k in want:
                    assert same_bits(got[k], want[k])

    def test_step_leaves_held_values_and_snapshots(self, seed):
        # moments are updated in place, but a value array is replaced: one
        # taken before the step, directly or through copy_values, keeps its data
        rng = np.random.default_rng(seed)
        ps = ParamSet({"a": rng.normal(size=(3, 4))})
        held, snapshot = ps.values["a"], ps.copy_values()
        before = held.copy()
        adam_step(ps, {"a": rng.normal(size=(3, 4))}, lr=1e-2)
        assert not np.array_equal(ps.values["a"], before)
        assert np.array_equal(held, before)
        assert np.array_equal(snapshot["a"], before)

    def test_full_step_replaces_every_value_and_keeps_moment_arrays(self, seed):
        # a step over the one flat buffer: every value is a new array, the
        # moments stay the arrays ParamSet handed out
        rng = np.random.default_rng(seed)
        ps = ParamSet({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5),
                       "c": rng.normal(size=(2, 1, 3))})
        held, m, v = dict(ps.values), dict(ps.m), dict(ps.v)
        before = ps.copy_values()
        ref = tuple({k: a.copy() for k, a in d.items()} for d in (ps.values, ps.m, ps.v))
        for step in range(1, 4):
            grads = {k: rng.normal(size=a.shape) for k, a in reversed(ps.values.items())}
            ref = adam_reference(*ref, step, grads, lr=1e-2)
            adam_step(ps, grads, lr=1e-2)
            for k in before:
                assert ps.values[k] is not held[k] and ps.values[k].shape == before[k].shape
                assert ps.m[k] is m[k] and ps.v[k] is v[k]
                assert same_bits(held[k], before[k])
                for got, want in zip((ps.values, ps.m, ps.v), ref):
                    assert same_bits(got[k], want[k])
            held = dict(ps.values)
            before = ps.copy_values()

    def test_value_written_in_place_is_stepped_from(self, seed):
        # after a full step the values are views of one array; writing one
        # in place (as a caller setting weights does) is what the next step reads
        rng = np.random.default_rng(seed)
        ps = ParamSet({"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))})
        adam_step(ps, {k: rng.normal(size=a.shape) for k, a in ps.values.items()}, lr=1e-2)
        ps.values["b"][:] = 0.5
        ref = adam_reference(ps.copy_values(), dict(ps.m), dict(ps.v), 2,
                             {"a": np.ones(4), "b": np.ones((2, 3))}, lr=1e-2)[0]
        adam_step(ps, {"a": np.ones(4), "b": np.ones((2, 3))}, lr=1e-2)
        for k in ref:
            assert same_bits(ps.values[k], ref[k])

    def test_partial_gradients_rejected(self, seed):
        # every step updates every parameter: a missing or None gradient is a
        # ShapeMismatch naming the parameter, and nothing moves
        rng = np.random.default_rng(seed)
        ps = ParamSet({"a": rng.normal(size=(4,)), "b": rng.normal(size=(2, 3))})
        before = ps.copy_values()
        for grads in ({"a": rng.normal(size=4)}, {"a": rng.normal(size=4), "b": None}):
            with pytest.raises(ShapeMismatch, match="^no gradient for parameter 'b'$"):
                adam_step(ps, grads, lr=1e-2)
        assert ps.t == 0
        for k, value in before.items():
            assert same_bits(ps.values[k], value)
            assert not ps.m[k].any() and not ps.v[k].any()

    def test_moments_start_as_two_zero_buffers(self, seed):
        rng = np.random.default_rng(seed)
        ps = ParamSet({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)})
        for flat in (ps._m, ps._v):
            assert flat.dtype == np.float64 and flat.shape == (17,) and not flat.any()
        assert not np.shares_memory(ps._m, ps._v)

    def test_shape_mismatch_rejected(self):
        ps = ParamSet({"w": np.zeros(3)})
        with pytest.raises(ShapeMismatch):
            adam_step(ps, {"w": np.zeros(4)}, lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(ps, {"missing": np.zeros(3)}, lr=0.1)


class TestInit:
    def test_deterministic(self):
        a = init_params(SIMPLE_LAYERS, seed=7)
        b = init_params(SIMPLE_LAYERS, seed=7)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_seed_sensitivity(self):
        a = init_params(SIMPLE_LAYERS, seed=7)
        b = init_params(SIMPLE_LAYERS, seed=8)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_zero_biases(self):
        values = init_params(SIMPLE_LAYERS, seed=0)
        assert np.all(values["layer0.b"] == 0.0)
        assert np.all(values["layer1.b"] == 0.0)

    def test_weight_mean_near_zero(self):
        layers = [{"type": "dense", "in": 400, "out": 250}]
        values = init_params(layers, seed=0)
        w = values["layer0.W"]
        bound = np.sqrt(6.0 / (400 + 250))
        sigma = bound / np.sqrt(3.0)   # uniform(-b, b) std
        assert abs(w.mean()) < 3.0 * sigma / np.sqrt(w.size)
        assert np.max(np.abs(w)) <= bound


class TestShapeTrace:
    @pytest.mark.parametrize("layers,shape,message", [
        ([{"type": "dense", "in": 5, "out": 1}], (6,), r"^layer 0 \(dense\): in is 5, receives \[6\]$"),
        ([{"type": "conv", "k": 3, "cin": 2, "cout": 4}], (8,),
         r"^layer 0 \(conv\): cin is 2, receives \[8, 1\]$"),
        ([{"type": "conv", "cin": 1, "cout": 4}], (8, 1),
         r"^layer 0 \(conv\): k must be a positive integer, got None$"),
        ([{"type": "deconv", "k": 3, "cin": 1, "cout": 1, "out_len": 9}], (4, 1),
         r"^layer 0 \(deconv\): out_len 9 at stride 2 does not come from input length 4$"),
        ([{"type": "reshape", "len": 3, "ch": 3}], (8,), r"^layer 0 \(reshape\): len 3 x ch 3"),
        ([{"type": "pool"}], (8,), r"^layer 0 \(pool\): needs \(length, channels\)"),
        ([{"type": "dense", "in": 8, "out": 1, "act": "tanh"}], (8,),
         r"^layer 0 \(dense\): unknown activation 'tanh'$"),
        ([{"type": "lstm"}], (8,), r"^layer 0: unknown layer type 'lstm'$"),
        ([{"type": ["dense"]}], (8,), r"^layer 0: unknown layer type \['dense'\]$"),
    ])
    def test_a_layer_that_does_not_fit_is_named(self, layers, shape, message):
        with pytest.raises(ShapeMismatch, match=message):
            shape_trace(layers, shape)

    def test_param_shapes_are_init_params_shapes(self):
        descriptors = [("", discriminative.architecture_descriptor(a))
                       for a in discriminative.ARCHITECTURES]
        for kind in manifold.VAE_KINDS:
            enc, dec = manifold.vae_descriptors(kind)
            descriptors += [("enc.", enc), ("dec.", dec)]
        for prefix, layers in descriptors:
            values = init_params(layers, seed=0, prefix=prefix)
            assert param_shapes(layers, prefix) == {k: v.shape for k, v in values.items()}

    def test_dense_chain(self):
        trace = shape_trace(SIMPLE_LAYERS, (6,))
        assert trace == [(6,), (4,), (1,)]

    def test_conv_pool_flatten(self):
        layers = [
            {"type": "conv", "k": 3, "cin": 1, "cout": 4},
            {"type": "pool"},
            {"type": "flatten"},
            {"type": "dense", "in": 16, "out": 1},
        ]
        trace = shape_trace(layers, (8, 1))
        assert trace == [(8, 1), (8, 4), (4, 4), (16,), (1,)]

    def test_strided_conv(self):
        layers = [{"type": "conv", "k": 3, "cin": 1, "cout": 2, "stride": 2}]
        assert shape_trace(layers, (15, 1))[-1] == (8, 2)

    @pytest.mark.parametrize("layer,input_shape,out_shape", [
        ({"type": "conv", "k": 3, "cin": 2, "cout": 4}, (9, 2), (9, 4)),
        ({"type": "deconv", "k": 3, "cin": 2, "cout": 4, "out_len": 9}, (5, 2), (9, 4)),
    ])
    def test_default_stride_is_forward_layers_stride(self, layer, input_shape, out_shape):
        # a layer without "stride": conv at stride 1, deconv at stride 2, on
        # both forward routes as in shape_trace
        x = np.random.default_rng(0).normal(size=(3, *input_shape))
        params = ParamSet(init_params([layer], seed=0))
        assert shape_trace([layer], input_shape)[-1] == out_shape
        assert forward_layers([layer], params.values, x).shape == (3, *out_shape)
        taped = forward_layers([layer], params.as_vars(), Var(x))
        assert taped.value.shape == (3, *out_shape)


class TestReceptiveField:
    def test_single_conv(self):
        assert receptive_field([{"type": "conv", "k": 3, "cin": 1, "cout": 1}]) == 3

    def test_conv_pool_conv(self):
        layers = [
            {"type": "conv", "k": 3, "cin": 1, "cout": 1},
            {"type": "pool"},
            {"type": "conv", "k": 3, "cin": 1, "cout": 1},
        ]
        # 3, then +1 jump 1 -> 4, then +2*2 -> 8
        assert receptive_field(layers) == 8

    def test_dense_only_rejected(self):
        with pytest.raises(ValidationError,
                           match="^architecture has no convolutional layers$"):
            receptive_field(SIMPLE_LAYERS)


class TestParamSet:
    def test_copy_then_load_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        ps = ParamSet({"w": rng.normal(size=(3, 3))})
        snapshot = ps.copy_values()
        ps.values["w"] += 1.0
        ps.load_values(snapshot)
        assert np.array_equal(ps.values["w"], snapshot["w"])

    def test_load_shape_mismatch(self):
        ps = ParamSet({"w": np.zeros(3)})
        with pytest.raises(ShapeMismatch):
            ps.load_values({"w": np.zeros(4)})


class TestFit:
    """The one minibatch Adam loop: step count, sample order and keep-best."""

    TARGETS = np.arange(30.0).reshape(10, 3)

    def batch_loss(self, idx, pvars, rng):
        # pulls w toward the mean target of the batch; different batches differ
        return ad.sum_(ad.square(ad.sub(pvars["w"],
                                         Var(self.TARGETS[idx].mean(axis=0)))))

    def recording_run(self, val_seq):
        params = ParamSet({"w": np.zeros(3)})
        snapshots = []

        def val_loss():
            snapshots.append(params.copy_values())
            return val_seq[len(snapshots) - 1]

        out = fit(params, 10, self.batch_loss, len(val_seq), 0.1, 0, val_loss)
        return params, snapshots, out

    def test_restores_epoch_with_lowest_val_loss(self):
        # ties keep the earlier epoch
        params, snapshots, (train, val, best) = self.recording_run([3.0, 1.0, 1.0, 5.0])
        assert val == [3.0, 1.0, 1.0, 5.0] and best == 1.0 and len(train) == 4
        assert not np.array_equal(snapshots[1]["w"], snapshots[3]["w"])
        assert np.array_equal(params.values["w"], snapshots[1]["w"])

    def test_without_val_loss_keeps_last_epoch(self):
        _, snapshots, _ = self.recording_run([4.0, 3.0, 2.0, 1.5])
        params = ParamSet({"w": np.zeros(3)})
        train, val, best = fit(params, 10, self.batch_loss, 4, 0.1, 0)
        assert val == [] and best == np.inf and len(train) == 4
        assert np.array_equal(params.values["w"], snapshots[-1]["w"])

    @pytest.mark.parametrize("n,epochs", [(10, 3), (BATCH_ROWS, 2), (BATCH_ROWS + 1, 2),
                                          (2 * BATCH_ROWS + 2, 3)])
    def test_one_adam_step_per_batch(self, n, epochs):
        params = ParamSet({"w": np.zeros(3)})
        batches = []

        def batch_loss(idx, pvars, rng):
            batches.append(idx.copy())
            return self.batch_loss(idx % 10, pvars, rng)

        fit(params, n, batch_loss, epochs, 0.1, 0)
        per_epoch = math.ceil(n / BATCH_ROWS)
        assert params.t == len(batches) == per_epoch * epochs
        for e in range(epochs):   # every epoch visits each sample once
            seen = np.concatenate(batches[e * per_epoch:(e + 1) * per_epoch])
            assert sorted(seen.tolist()) == list(range(n))

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        params = ParamSet({"w": np.zeros(3)})
        with pytest.raises(ValidationError, match="epochs"):
            fit(params, 10, self.batch_loss, epochs, 0.1, 0)
        assert params.t == 0

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1.0])
    def test_learning_rate_not_positive_and_finite_rejected(self, lr):
        params = ParamSet({"w": np.zeros(3)})
        with pytest.raises(ValidationError, match="learning rate must be a positive "
                                                  "finite number"):
            fit(params, 10, self.batch_loss, 1, lr, 0)
        assert params.t == 0

    def test_discriminative_meta_reports_best_val_auc(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(60, 150))
        y = (x[:, :10].sum(axis=1) > 0).astype(float)
        model = discriminative.build("lr", seed=seed)
        history = discriminative.train(model, x[:40], y[:40], x[40:],
                                       y[40:].astype(int), epochs=5, lr=3e-2, seed=seed)
        assert len(history["val_auc"]) == 5
        assert model.training_meta["best_val_auc"] == max(history["val_auc"])
        _, auc = roc_auc(discriminative.forward(model, x[40:]), y[40:].astype(int))
        assert auc == max(history["val_auc"])

    def test_vae_restores_best_val_recon(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(48, 150))
        x_val = rng.normal(size=(12, 150))
        model = manifold.build_vae("vae", seed=seed)
        history = manifold.vae_train(model, x, np.ones(48, dtype=int), epochs=4,
                                     lr=1e-2, seed=seed, x_val_pos=x_val)
        val = float(np.mean(np.sum((model.reconstruct(x_val) - x_val) ** 2, axis=1)))
        assert len(history["val_recon"]) == 4
        assert val == min(history["val_recon"])


class TestTapeFreeForward:
    """Inference on arrays computes exactly what the taped graph's .value holds."""

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("arch", discriminative.ARCHITECTURES)
    def test_classifier_matches_taped_value(self, arch, batch):
        model = discriminative.build(arch, seed=3)
        x = np.random.default_rng(batch).normal(size=(batch, 150))
        taped = discriminative._forward_var(model, x, model.params.as_vars())
        free = discriminative.forward(model, x)
        assert type(free) is np.ndarray
        assert np.array_equal(free, taped.value)

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("kind", manifold.VAE_KINDS)
    def test_vae_matches_taped_value(self, kind, batch):
        model = manifold.build_vae(kind, seed=3)
        x = np.random.default_rng(batch).normal(size=(batch, 150))
        pvars = model.params.as_vars()
        h = forward_layers(model.enc, pvars, Var(x), prefix="enc.")
        mu = ad.slice_cols(h, 0, manifold.LATENT_DIM)
        recon = forward_layers(model.dec, pvars, mu, prefix="dec.")
        assert np.array_equal(model.reconstruct(x), recon.value)
        assert np.array_equal(manifold.residuals(model, x),
                              np.linalg.norm(x - recon.value, axis=1))


CHUNK_BOUNDARY_ROWS = [1, 63, 64, 65, 129, 200]


def manifold_model(kind):
    if kind == "pca":
        return manifold.pca_fit(np.random.default_rng(7).normal(size=(40, 150)))
    return manifold.build_vae(kind, seed=3)


class TestChunkedInference:
    """Inference runs BATCH_ROWS-row chunks: bit for bit the concatenation of
    the chunks scored alone, and within 1e-12 relative of one whole pass; on
    one thread and on a pool of two alike."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["1worker", "2workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(nn, "POOL_MIN_CHUNK_S", 0.0)
        monkeypatch.setattr(nn, "inference_workers", lambda chunks: min(chunks, request.param))
        return request.param

    @staticmethod
    def first_column(calls):
        def fn(c):
            calls.append((c, threading.get_ident()))
            return c[:, 0]
        return fn

    def test_by_rows_passes_a_small_input_whole(self):
        x = np.zeros((BATCH_ROWS, 3))
        calls = []
        by_rows(self.first_column(calls), x)
        [(c, thread)] = calls
        assert c is x and thread == threading.get_ident()

    @pytest.mark.parametrize("n", CHUNK_BOUNDARY_ROWS)
    def test_by_rows_slices_in_order(self, n, workers):
        x = np.arange(2.0 * n).reshape(n, 2)
        calls = []
        assert np.array_equal(by_rows(self.first_column(calls), x), x[:, 0])
        calls.sort(key=lambda call: call[0][0, 0])      # threads append in any order
        sizes = [len(c) for c, _ in calls]
        assert sum(sizes) == n and all(s == BATCH_ROWS for s in sizes[:-1])
        assert 0 < sizes[-1] <= BATCH_ROWS
        threads = {ident for _, ident in calls}
        assert len(threads) <= workers
        if n <= BATCH_ROWS or workers == 1:
            assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("bad_chunk", [0, 2])
    def test_by_rows_raises_a_chunks_exception_as_raised(self, bad_chunk):
        x = np.arange(200.0)[:, None]

        def fn(c):
            if c[0, 0] == bad_chunk * BATCH_ROWS:
                raise ShapeMismatch(f"chunk at row {c[0, 0]:.0f} rejected")
            return c[:, 0]
        with pytest.raises(ShapeMismatch, match=rf"^chunk at row {bad_chunk * BATCH_ROWS} "
                                                r"rejected$"):
            by_rows(fn, x)

    @staticmethod
    def slices(x):
        return [x[i:i + BATCH_ROWS] for i in range(0, len(x), BATCH_ROWS)]

    @pytest.mark.parametrize("n", CHUNK_BOUNDARY_ROWS)
    @pytest.mark.parametrize("arch", discriminative.ARCHITECTURES)
    def test_classifier(self, arch, n):
        model = discriminative.build(arch, seed=3)
        x = np.random.default_rng(n).normal(size=(n, 150))
        p = discriminative.forward(model, x)
        parts = [discriminative.forward(model, c) for c in self.slices(x)]
        assert np.array_equal(p, np.concatenate(parts))
        whole = forward_layers(model.descriptor, model.params.values, x).reshape(n)
        np.testing.assert_allclose(p, whole, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", CHUNK_BOUNDARY_ROWS)
    @pytest.mark.parametrize("kind", manifold.MANIFOLD_KINDS)
    def test_residuals(self, kind, n):
        model = manifold_model(kind)
        x = np.random.default_rng(n).normal(size=(n, 150))
        r = manifold.residuals(model, x)
        parts = [manifold.residuals(model, c) for c in self.slices(x)]
        assert np.array_equal(r, np.concatenate(parts))
        np.testing.assert_allclose(r, np.linalg.norm(x - model.reconstruct(x), axis=1),
                                   rtol=1e-12, atol=0)


def test_by_rows_runs_two_chunks_at_once(monkeypatch):
    # after the first chunk, each chunk waits until a second thread holds the
    # other: a serial loop would break the barrier at its timeout
    monkeypatch.setattr(nn, "POOL_MIN_CHUNK_S", 0.0)
    monkeypatch.setattr(nn, "inference_workers", lambda chunks: 2)
    both = threading.Barrier(2, timeout=30)
    threads = set()

    def fn(c):
        if c[0, 0] >= BATCH_ROWS:
            threads.add(threading.get_ident())
            both.wait()
        return c[:, 0]
    x = np.arange(3.0 * BATCH_ROWS)[:, None]
    assert np.array_equal(by_rows(fn, x), x[:, 0])
    assert len(threads) == 2 and threading.get_ident() in threads


@pytest.mark.parametrize("chunk_s,workers", [(0.0, 1), (2e-3, 2)])
def test_by_rows_pools_only_after_a_slow_first_chunk(monkeypatch, chunk_s, workers):
    # a first chunk quicker than POOL_MIN_CHUNK_S keeps the rest on the
    # calling thread, however many CPUs are free
    monkeypatch.setattr(nn, "inference_workers", lambda chunks: 2)
    threads = set()

    def fn(c):
        threads.add(threading.get_ident())
        if c[0, 0] == 0:
            time.sleep(chunk_s)
        return c[:, 0]
    x = np.arange(4.0 * BATCH_ROWS)[:, None]
    assert np.array_equal(by_rows(fn, x), x[:, 0])
    assert threading.get_ident() in threads and len(threads) <= workers
    if workers == 1:
        assert threads == {threading.get_ident()}


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_by_rows_stops_taking_chunks_after_an_exception(monkeypatch, failing):
    # the failing thread ends the queue: the other finishes its current chunk
    # and takes no more, so the error does not wait for the rest of the set
    monkeypatch.setattr(nn, "POOL_MIN_CHUNK_S", 0.0)
    monkeypatch.setattr(nn, "inference_workers", lambda chunks: 2)
    caller = threading.get_ident()
    calls = []

    def fn(c):
        calls.append(c[0, 0])
        if len(calls) > 1 and (threading.get_ident() == caller) == (failing == "caller"):
            raise ShapeMismatch("rejected")
        time.sleep(1e-3)
        return c[:, 0]
    x = np.arange(100.0 * BATCH_ROWS)[:, None]
    with pytest.raises(ShapeMismatch, match="^rejected$"):
        by_rows(fn, x)
    assert len(calls) < 20


@pytest.mark.parametrize("cpus,threads,chunks,workers", [
    (2, 2, 40, 1),       # a BLAS thread per core: no CPU is free
    (2, 1, 40, 2),       # a one-thread BLAS leaves the second CPU
    (2, 1, 1, 1),        # at most one per chunk
    (8, 1, 3, 3),
    (8, 3, 40, 6),
    (1, 1, 40, 1),       # a process held to one CPU
    (2, 4, 40, 1),       # more threads than CPUs
])
def test_inference_workers_from_cpus_and_threads(monkeypatch, cpus, threads, chunks,
                                                 workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: (list(range(threads))
                                                     if path == "/proc/self/task"
                                                     else listdir(path)))
    assert nn.inference_workers(chunks) == workers


@pytest.mark.parametrize("missing", ["affinity", "proc"])
def test_inference_workers_without_the_counts_is_one(monkeypatch, missing):
    if missing == "affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        def listdir(path):
            raise FileNotFoundError(path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(os, "listdir", listdir)
    assert nn.inference_workers(40) == 1


class TestGraphIsolation:
    """Kernels keep no buffer across calls: a second graph built before the
    first's backward changes none of the first graph's gradients."""

    @staticmethod
    def vae_loss(model, pvars, x):
        h = forward_layers(model.enc, pvars, Var(x), prefix="enc.")
        z = ad.slice_cols(h, 0, manifold.LATENT_DIM)
        recon = forward_layers(model.dec, pvars, z, prefix="dec.")
        return ad.sum_(ad.square(ad.sub(recon, Var(x))))

    @staticmethod
    def classifier_loss(model, pvars, x):
        return ad.sum_(ad.square(discriminative._forward_var(model, x, pvars)))

    @pytest.mark.parametrize("kind", ["bcvae", "vgg3"])
    def test_second_graph_leaves_first_gradients(self, kind, seed):
        if kind == "bcvae":
            model, loss = manifold.build_vae(kind, seed=seed), self.vae_loss
        else:
            model, loss = discriminative.build(kind, seed=seed), self.classifier_loss
        x1, x2 = np.random.default_rng(seed).normal(size=(2, 4, 150))
        alone = model.params.as_vars()
        ad.backward(loss(model, alone, x1))

        first, second = model.params.as_vars(), model.params.as_vars()
        loss1 = loss(model, first, x1)
        loss2 = loss(model, second, x2)
        ad.backward(loss1)
        grads = {k: v.grad.copy() for k, v in first.items()}
        ad.backward(loss2)
        for k, v in first.items():
            assert np.array_equal(v.grad, alone[k].grad)
            assert np.array_equal(v.grad, grads[k])


CYCLES = np.random.default_rng(5).normal(size=(40, 150))
LABELS = np.ones(40, dtype=np.int64)
LABELS[:20] = 0


def any_model(kind):
    """An untrained model of kind; a manifold one with a threshold, so that
    score reaches its residuals."""
    if kind in discriminative.ARCHITECTURES:
        return discriminative.build(kind, seed=3)
    model = manifold_model(kind)
    model.threshold_d = 1.0
    return model


# every entry that takes normalized cycles, called with x in the place named
INPUT_ENTRIES = {
    "forward": (discriminative.ARCHITECTURES, discriminative.forward),
    "train x_train": (discriminative.ARCHITECTURES, lambda m, x: discriminative.train(
        m, x, LABELS, CYCLES, LABELS, epochs=1, lr=1e-3)),
    "train x_val": (discriminative.ARCHITECTURES, lambda m, x: discriminative.train(
        m, CYCLES, LABELS, x, LABELS, epochs=1, lr=1e-3)),
    "score": (discriminative.ARCHITECTURES + manifold.MANIFOLD_KINDS,
              lambda m, x: m.score(x)),
    "assess": (discriminative.ARCHITECTURES + manifold.MANIFOLD_KINDS, manifold.assess),
    "residuals": (manifold.MANIFOLD_KINDS, manifold.residuals),
    "set_threshold": (manifold.MANIFOLD_KINDS,
                      lambda m, x: manifold.set_threshold(m, x, LABELS)),
    "pca_fit": (("pca",), lambda m, x: manifold.pca_fit(x)),
    "vae_train x_pos": (manifold.VAE_KINDS, lambda m, x: manifold.vae_train(
        m, x, np.ones(len(x), dtype=np.int64), epochs=1, lr=1e-3)),
    "vae_train x_val_pos": (manifold.VAE_KINDS, lambda m, x: manifold.vae_train(
        m, CYCLES, np.ones(40, dtype=np.int64), epochs=1, lr=1e-3, x_val_pos=x)),
}


class TestInputContract:
    """Every entry reads its cycles through cycle_rows: a misshapen input is
    the one ShapeMismatch, raised before any training step."""

    @pytest.mark.parametrize("shape", [(40, 149), (2, 20, 150), (40,)],
                             ids=["149-wide", "3-d", "vector"])
    @pytest.mark.parametrize("entry,kind", [(entry, kind)
                                            for entry, (kinds, _) in INPUT_ENTRIES.items()
                                            for kind in kinds])
    def test_misshapen_input_is_one_shape_mismatch(self, entry, kind, shape):
        model = any_model(kind)
        with pytest.raises(ValidationError) as exc:
            INPUT_ENTRIES[entry][1](model, np.zeros(shape))
        assert exc.type is ShapeMismatch
        assert str(exc.value) == f"expected (N, 150) input, got {shape}"
        if kind != "pca":
            assert model.params.t == 0

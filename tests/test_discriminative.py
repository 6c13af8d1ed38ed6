import math

import numpy as np
import pytest

from cvsqi import discriminative as dm
from cvsqi.discriminative import (ARCHITECTURES, ClassWeights, build,
                                  compute_class_weights, forward, train)
from cvsqi.errors import ShapeMismatch, SingleClassDataset, ValidationError
from cvsqi.nn import receptive_field, shape_trace

MLP1_DIMS = [150, 150, 300, 300, 150, 150, 150, 1]
MLP2_DIMS = [150, 150, 150, 100, 50, 25, 10, 1]


class TestArchitectureTables:
    def test_mlp_layer_dims(self):
        for name, dims in (("mlp1", MLP1_DIMS), ("mlp2", MLP2_DIMS)):
            desc = dm.architecture_descriptor(name)
            assert [l["in"] for l in desc] == dims[:-1]
            assert [l["out"] for l in desc] == dims[1:]
            assert desc[-1]["act"] == "sigmoid"
            assert all(l["act"] == "relu" for l in desc[:-1])

    def test_lr_parameter_count(self):
        model = build("lr", seed=0)
        n = sum(v.size for v in model.params.values.values())
        assert n == 151

    @pytest.mark.parametrize("arch,flat", [("vgg3", 288), ("vgg4", 288),
                                           ("vgg5", 576)])
    def test_vgg_flatten_lengths(self, arch, flat):
        trace = shape_trace(dm.architecture_descriptor(arch), (150, 1))
        flat_shapes = [s for s in trace if len(s) == 1]
        assert flat_shapes[0] == (flat,)

    def test_vgg5_trace_matches_table(self):
        trace = shape_trace(dm.architecture_descriptor("vgg5"), (150, 1))
        expected = [
            (150, 1),
            (150, 4), (150, 4), (75, 4),
            (75, 8), (75, 8), (37, 8),
            (37, 16), (37, 16), (18, 16),
            (18, 32), (18, 32), (9, 32),
            (9, 64), (9, 64),
            (576,), (576,), (1,),
        ]
        assert trace == expected

    @pytest.mark.parametrize("arch,rf", [("vgg3", 32), ("vgg4", 68),
                                         ("vgg5", 140)])
    def test_receptive_fields(self, arch, rf):
        assert receptive_field(dm.architecture_descriptor(arch)) == rf

    def test_receptive_field_needs_convolutions(self):
        with pytest.raises(ValidationError,
                           match="^architecture has no convolutional layers$"):
            receptive_field(dm.architecture_descriptor("mlp1"))


class TestForward:
    def test_zero_params_give_half(self):
        model = build("lr", seed=0)
        model.params.load_values({k: np.zeros_like(v)
                                  for k, v in model.params.values.items()})
        x = np.random.default_rng(0).normal(size=(3, 150))
        assert np.all(forward(model, x) == 0.5)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_outputs_in_unit_interval(self, arch, seed):
        rng = np.random.default_rng(seed)
        model = build(arch, seed=seed)
        p = forward(model, rng.normal(size=(64, 150)))
        assert p.shape == (64,)
        assert np.all(np.isfinite(p))
        assert np.all((p > 0) & (p < 1))

    def test_deterministic(self):
        x = np.random.default_rng(5).normal(size=(4, 150))
        a = forward(build("vgg3", seed=1), x)
        b = forward(build("vgg3", seed=1), x)
        assert np.array_equal(a, b)


def weighted_ce(pred: float, y: float, weights: ClassWeights) -> float:
    """Weighted cross-entropy for one prediction with a soft target in [0, 1]:
    the scalar oracle for the taped dm._weighted_ce_loss."""
    p = min(max(float(pred), dm.CLIP_EPS), 1.0 - dm.CLIP_EPS)
    return (-weights.zeta_pos * y * math.log(p)
            - weights.zeta_neg * (1.0 - y) * math.log(1.0 - p))


class TestWeightedCe:
    def test_confident_true_positive(self):
        w = ClassWeights(1.0, 1.0)
        assert weighted_ce(1.0 - 1e-9, 1.0, w) < 1e-6

    def test_negative_at_half(self):
        w = ClassWeights(1.0, 1.0)
        assert weighted_ce(0.5, 0.0, w) == pytest.approx(np.log(2.0))

    def test_soft_target_closed_form(self):
        w = ClassWeights(1.0, 1.0)
        expected = -0.25 * np.log(0.25) - 0.75 * np.log(0.75)
        assert weighted_ce(0.25, 0.25, w) == pytest.approx(expected)

    def test_unit_weights_match_plain_bce(self, seed):
        rng = np.random.default_rng(seed)
        w = ClassWeights(1.0, 1.0)
        for _ in range(20):
            p = float(rng.uniform(0.01, 0.99))
            y = float(rng.integers(0, 2))
            plain = -y * np.log(p) - (1 - y) * np.log(1 - p)
            assert weighted_ce(p, y, w) == pytest.approx(plain)

    def test_graph_loss_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        from cvsqi.autodiff import Var
        w = ClassWeights(0.7, 1.3)
        p = rng.uniform(0.05, 0.95, size=8)
        y = rng.choice([0.0, 0.25, 1.0], size=8)
        graph = float(dm._weighted_ce_loss(Var(p), y, w).value)
        scalar = np.mean([weighted_ce(pi, yi, w) for pi, yi in zip(p, y)])
        assert graph == pytest.approx(scalar, rel=1e-12)


class TestClassWeights:
    def test_balanced(self):
        y = np.array([1.0] * 50 + [0.0] * 50)
        w = compute_class_weights(y)
        assert w.zeta_pos == pytest.approx(0.5)
        assert w.zeta_neg == pytest.approx(0.5)

    def test_imbalanced_inverse_frequency(self):
        y = np.array([1.0] * 80 + [0.0] * 20)
        w = compute_class_weights(y)
        assert w.zeta_pos == pytest.approx(0.2)
        assert w.zeta_neg == pytest.approx(0.8)

    def test_ambiguous_fractional_mass(self):
        y = np.array([0.25, 0.25, 1.0, 1.0])
        w = compute_class_weights(y)
        # positive mass 2.5, negative mass 1.5 over 4 samples
        assert w.zeta_pos == pytest.approx(1.5 / 4)
        assert w.zeta_neg == pytest.approx(2.5 / 4)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataset):
            compute_class_weights(np.ones(10))


def separable_set(rng, n=60):
    template = np.sin(np.linspace(0, np.pi, 150))
    x, y = [], []
    for _ in range(n):
        s = 1.0 if rng.uniform() < 0.5 else -1.0
        x.append(s * template + 0.05 * rng.normal(size=150))
        y.append(1.0 if s > 0 else 0.0)
    return np.stack(x), np.asarray(y)


class TestTrain:
    def test_separable_set_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        x, y = separable_set(rng)
        xv, yv = separable_set(rng, n=20)
        model = build("lr", seed=0)
        train(model, x, y, xv, yv.astype(int), epochs=20, lr=0.05, seed=0)
        acc = np.mean((forward(model, x) >= 0.5) == (y == 1.0))
        assert acc == 1.0

    def test_loss_decreases(self, seed):
        rng = np.random.default_rng(seed)
        x, y = separable_set(rng)
        xv, yv = separable_set(rng, n=20)
        model = build("mlp2", seed=seed)
        history = train(model, x, y, xv, yv.astype(int), epochs=8, lr=1e-3,
                        seed=seed)
        assert history["train_loss"][-1] < history["train_loss"][0]

    def test_zero_lr_leaves_parameters(self, seed):
        # a zero step is rejected before any update, like every rate that is
        # not a positive finite number
        rng = np.random.default_rng(seed)
        x, y = separable_set(rng, n=30)
        model = build("lr", seed=seed)
        before = model.params.copy_values()
        with pytest.raises(ValidationError, match="^learning rate must be a positive "
                                                  "finite number, got 0.0$"):
            train(model, x, y, x, y.astype(int), epochs=2, lr=0.0, seed=seed)
        assert model.params.t == 0 and model.training_meta == {}
        for k, v in before.items():
            assert np.array_equal(model.params.values[k], v)

    @pytest.mark.parametrize("n_train,n_val", [(59, 20), (61, 20), (60, 19), (60, 21)])
    def test_label_count_mismatch_raises_before_any_step(self, n_train, n_val):
        # a short y_train used to fail mid-epoch, a long one was cut, and a
        # y_val_eval of the wrong length failed only after the first epoch
        rng = np.random.default_rng(0)
        x, y = separable_set(rng)
        xv, yv = separable_set(rng, n=20)
        y, yv = np.resize(y, n_train), np.resize(yv.astype(int), n_val)
        name, got, want = ("y_train", n_train, 60) if n_train != 60 else ("y_val_eval", n_val, 20)
        model = build("lr", seed=0)
        with pytest.raises(ShapeMismatch, match=rf"^{name} \({got},\) vs cycles \({want},\)$"):
            train(model, x, y, xv, yv, epochs=2, lr=0.05, seed=0)
        assert model.params.t == 0 and model.training_meta == {}

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        x, y = separable_set(rng, n=40)
        runs = []
        for _ in range(2):
            model = build("mlp2", seed=4)
            train(model, x, y, x, y.astype(int), epochs=3, lr=1e-3, seed=4)
            runs.append(model.params.copy_values())
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k])

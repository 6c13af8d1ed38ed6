"""The layer backward kernels and Adam against the code they replaced.

The oracle ops below are the taped layer ops as they were written before
their backward passes moved into `kernels`: the same forward kernels, with
the backward arithmetic spelled out in the closure.  oracle_adam_step is
Adam as it was written before it ran over one flat buffer: one tensor at a
time.  Every gradient of the kernels must equal the oracle's bit for bit, at
every layer shape that the beta-ConvVAE (batch 64, 1 and a partial 37) and
VGG16-3 (batch 1 and 37) run, and so must the parameters of a short
training run, whose tape is float32.  So the oracles follow their input's
dtype: the pooling gradient takes g's, and Adam upcasts each gradient to
float64, the dtype of its moments.  Bit-level agreement holds at a fixed
dtype and BLAS thread count; CI also runs this file under
OPENBLAS_NUM_THREADS=1.
"""
import numpy as np
import pytest

from cvsqi import autodiff as ad
from cvsqi import discriminative, kernels, manifold, nn
from cvsqi.autodiff import Var
from cvsqi.errors import ShapeMismatch
from cvsqi.nn import forward_layers
from test_autodiff import same_bits, same_bits_or_nan


def oracle_dense(x, w, b):
    x, w, b = ad._as_var(x), ad._as_var(w), ad._as_var(b)
    out = kernels.dense(x.value, w.value, b.value)

    def bwd(g):
        return g @ w.value, g.T @ x.value, g.sum(axis=0)
    return Var(out, (x, w, b), bwd)


def oracle_conv1d(x, kern, b, stride=1):
    x, kern, b = ad._as_var(x), ad._as_var(kern), ad._as_var(b)
    out, cols = kernels.conv1d_cols(x.value, kern.value, b.value, stride)

    def bwd(g):
        n, length, cin = x.value.shape
        k, _, cout = kern.value.shape
        g2 = g.reshape(-1, cout)
        dcols = (g2 @ kern.value.reshape(k * cin, cout).T).reshape(n, g.shape[1], k, cin)
        dx = kernels.col2im(dcols, stride, length)
        dk = (cols.T @ g2).reshape(k, cin, cout)
        return dx, dk, g.sum(axis=(0, 1))
    return Var(out, (x, kern, b), bwd)


def oracle_conv_transpose1d(x, kern, b, stride, out_len):
    x, kern, b = ad._as_var(x), ad._as_var(kern), ad._as_var(b)
    out = kernels.conv_transpose1d(x.value, kern.value, b.value, stride, out_len)

    def bwd(g):
        n, l_small, cin = x.value.shape
        k, _, cout = kern.value.shape
        kmat = kern.value.transpose(1, 0, 2).reshape(cin, k * cout)
        gcols = kernels.im2col(g, k, stride)                     # (N*Ls, k*Cout)
        dx = (gcols @ kmat.T).reshape(n, l_small, cin)
        dk = (x.value.reshape(-1, cin).T @ gcols).reshape(cin, k, cout).transpose(1, 0, 2)
        return dx, dk, g.sum(axis=(0, 1))
    return Var(out, (x, kern, b), bwd)


def oracle_maxpool1d(x):
    x = ad._as_var(x)
    out = kernels.maxpool1d(x.value)

    def bwd(g):
        first, second = kernels.pool_pairs(x.value)
        first_wins = (first >= second) | np.isnan(first)
        dx = np.zeros(x.value.shape, dtype=g.dtype)
        dx_first, dx_second = kernels.pool_pairs(dx)
        np.copyto(dx_first, g, where=first_wins)
        np.copyto(dx_second, g, where=~first_wins)
        return (dx,)
    return Var(out, (x,), bwd)


def oracle_relu(a):
    a = ad._as_var(a)
    return Var(kernels.relu(a.value), (a,), lambda g: (g * (a.value > 0),))


def oracle_adam_step(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one tensor at a time, each value array replaced by a new one."""
    params.t += 1
    t = params.t
    for name, g in grads.items():
        if name not in params.values:
            raise ShapeMismatch(f"gradient for unknown parameter {name!r}")
        if g.shape != params.values[name].shape:
            raise ShapeMismatch(f"gradient shape mismatch for {name!r}")
        m, v = params.m[name], params.v[name]
        g = g.astype(np.float64)                           # float64 moments and steps
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        gg = (1 - beta2) * g
        gg *= g
        v += gg
        step = np.divide(m, 1 - beta1 ** t)               # m_hat
        step *= lr
        denom = np.divide(v, 1 - beta2 ** t, out=gg)     # v_hat
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        params.values[name] = params.values[name] - step


ORACLES = {"dense": oracle_dense, "conv1d": oracle_conv1d,
           "conv_transpose1d": oracle_conv_transpose1d,
           "maxpool1d": oracle_maxpool1d, "relu": oracle_relu}


def layer_calls(monkeypatch, run) -> list:
    """(op, args, kwargs) of every layer op that run() records on the tape."""
    calls = []
    for name in ORACLES:
        def capture(*args, _op=getattr(ad, name), _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return _op(*args, **kwargs)
        monkeypatch.setattr(ad, name, capture)
    run()
    monkeypatch.undo()
    return calls


def model_calls(monkeypatch, model, n, rng) -> list:
    """The layer calls of a model's taped forward pass at batch n."""
    params = {k: Var(v) for k, v in model.params.values.items()}
    x = Var(rng.normal(size=(n, 150)))
    if isinstance(model, manifold.VaeModel):
        def run():
            forward_layers(model.enc, params, x, prefix="enc.")
            forward_layers(model.dec, params, Var(rng.normal(size=(n, manifold.LATENT_DIM))),
                           prefix="dec.")
    else:
        def run():
            forward_layers(model.descriptor, params, x)
    return layer_calls(monkeypatch, run)


SHAPES = [("bcvae", 64), ("bcvae", 1), ("bcvae", 37), ("vgg3", 1), ("vgg3", 37)]


def build(name):
    if name == "vgg3":
        return discriminative.build("vgg3", seed=5)
    return manifold.build_vae(name, seed=5)


@pytest.mark.parametrize("name,n", SHAPES, ids=[f"{m}-{n}" for m, n in SHAPES])
def test_backward_kernels_match_oracle_at_model_shapes(monkeypatch, name, n):
    rng = np.random.default_rng(n)
    calls = model_calls(monkeypatch, build(name), n, rng)
    seen = {op for op, _, _ in calls}
    assert seen >= {"dense", "conv1d", "relu"}
    assert ("conv_transpose1d" if name == "bcvae" else "maxpool1d") in seen
    for op, args, kwargs in calls:
        new = getattr(ad, op)(*args, **kwargs)
        old = ORACLES[op](*args, **kwargs)
        assert same_bits(new.value, old.value)
        g = rng.normal(size=new.shape)
        g[g > 1.5] = -0.0
        for got, want in zip(new._bwd(g), old._bwd(g), strict=True):
            assert same_bits(got, want), (op, [a.shape for a in args])


SPECIAL = [np.nan, -0.0, 0.0, 1.0, -2.5, -np.inf, np.inf]


def special_values(rng, shape):
    """Normal draws, with about half of the entries NaN, +-0.0 or +-inf."""
    x = rng.normal(size=shape)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return x


@pytest.mark.parametrize("shape", [(2, 9, 3), (1, 1, 2), (3, 10, 1)])
def test_relu_bwd_special_values_match_oracle(shape):
    rng = np.random.default_rng(4)
    a, g = special_values(rng, shape), special_values(rng, shape)
    with np.errstate(invalid="ignore"):           # inf * 0
        (want,) = oracle_relu(a)._bwd(g)
        assert same_bits(kernels.relu_bwd(g, a), want)


@pytest.mark.parametrize("stride", [1, 2])
def test_width1_transposed_conv_matches_col2im(stride):
    # at stride 1 the one tap is not added to zeros: the output must still
    # be col2im's 0.0 + tap, with NaN and inf among the taps
    rng = np.random.default_rng(stride)
    x = special_values(rng, (3, 10, 4))
    kern = np.abs(rng.normal(size=(1, 4, 2)))
    out_len = 10 * stride
    with np.errstate(invalid="ignore"):           # inf * 0, inf - inf
        taps = (x.reshape(-1, 4) @ kern.reshape(4, 2)).reshape(3, 10, 1, 2)
        got = kernels.conv_transpose1d(x, kern, None, stride, out_len)
    assert same_bits(got, kernels.col2im(taps, stride, out_len))


def training_grad_shapes() -> set:
    """The output shapes, so the output-gradient shapes, of every conv and
    transposed conv in training: both models at batch 64, 37 and 1."""
    shapes = set()
    for name, n in SHAPES + [("vgg3", 64)]:
        with pytest.MonkeyPatch.context() as mp:
            calls = model_calls(mp, build(name), n, np.random.default_rng(n))
        shapes |= {getattr(ad, op)(*args, **kwargs).shape for op, args, kwargs in calls
                   if op in ("conv1d", "conv_transpose1d")}
    return shapes


def test_bias_grad_matches_sum_at_training_shapes():
    # C > 1 adds in g.sum's order through einsum; C = 1 keeps g.sum.  A NaN
    # made from inf - inf may differ in its sign bit alone
    shapes = training_grad_shapes()
    assert (64, 150, 1) in shapes and (64, 150, 8) in shapes and (37, 37, 16) in shapes
    # and a few terms per channel, in both dtypes
    small = [(1, 37, 16), (1, 10, 32), (2, 10, 3)]
    cases = [(shape, np.float64) for shape in sorted(shapes)]
    cases += [(shape, dtype) for shape in small for dtype in (np.float64, np.float32)]
    rng = np.random.default_rng(0)
    for shape, dtype in cases:
        for trial in range(4):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
            if trial == 1:
                g[rng.random(shape) < 0.2] = -0.0
                g[..., 0] = -0.0                  # a channel of -0.0 sums to -0.0
            elif trial == 2:
                g = special_values(rng, shape)
            elif trial == 3:                      # a few among wide magnitudes
                g = np.where(rng.random(shape) < 0.01, rng.choice(SPECIAL, size=shape), g)
            g = g.astype(dtype)
            with np.errstate(invalid="ignore"):   # inf - inf
                got, want = kernels.bias_grad(g), g.sum(axis=(0, 1))
            assert same_bits_or_nan(got, want), (shape, trial)


@pytest.mark.parametrize("shape", [(2, 9, 3), (1, 1, 2), (3, 10, 1)])
def test_maxpool_bwd_special_values_match_oracle(shape):
    rng = np.random.default_rng(3)
    x = rng.choice([np.nan, -0.0, 0.0, 1.0, -np.inf, np.inf], size=shape)
    g = rng.normal(size=(shape[0], shape[1] // 2, shape[2]))
    (want,) = oracle_maxpool1d(x)._bwd(g)
    assert same_bits(kernels.maxpool1d_bwd(g, x), want)


def train_params(name, seed, epochs):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=(101, 150))     # 64 + a partial batch of 37
    if name == "vgg3":
        model = discriminative.build("vgg3", seed=seed)
        y = (np.arange(101) % 3 == 0).astype(float)
        discriminative.train(model, x, y, x[:40], y[:40].astype(np.int64),
                             epochs=epochs, lr=1e-3, seed=seed)
    else:
        model = manifold.build_vae(name, seed=seed)
        manifold.vae_train(model, x, np.ones(101, dtype=np.int64), epochs=epochs,
                           lr=1e-3, seed=seed, x_val_pos=x[:40])
    return model.params.values


@pytest.mark.parametrize("name", ["vgg3", "bcvae"])
def test_training_with_oracle_closures_gives_same_parameters(monkeypatch, name):
    new = train_params(name, seed=41, epochs=2)
    for op, oracle in ORACLES.items():
        monkeypatch.setattr(ad, op, oracle)
    monkeypatch.setattr(nn, "adam_step", oracle_adam_step)
    old = train_params(name, seed=41, epochs=2)
    assert new.keys() == old.keys()
    for key in new:
        assert same_bits(new[key], old[key]), key

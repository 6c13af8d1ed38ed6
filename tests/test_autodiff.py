import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsqi import autodiff as ad
from cvsqi import kernels
from cvsqi.autodiff import Var
from cvsqi.errors import ShapeMismatch, ValidationError
from gradcheck import fd_grad, rel_err

ELEMENTWISE_TOL = 1e-6


def check_grad(build_loss, x: np.ndarray, tol: float = ELEMENTWISE_TOL):
    """build_loss(Var) -> scalar Var; compares backward to finite differences."""
    xv = Var(x)
    loss = build_loss(xv)
    ad.backward(loss)
    fd = fd_grad(lambda: float(build_loss(Var(x)).value), x)
    assert rel_err(xv.grad, fd) < tol


class TestElementwiseValues:
    def test_sigmoid_at_zero(self):
        assert float(ad.sigmoid(Var(0.0)).value) == 0.5

    def test_sigmoid_closed_form(self):
        assert float(ad.sigmoid(Var(np.log(3.0))).value) == pytest.approx(0.75)

    def test_relu(self):
        out = ad.relu(Var(np.array([-2.0, 3.0]))).value
        assert np.array_equal(out, [0.0, 3.0])

    @pytest.mark.parametrize("relu", [kernels.relu, lambda a: ad.relu(Var(a)).value],
                             ids=["kernel", "autodiff"])
    def test_relu_special_values(self, relu):
        # NaN and -0.0 map to +0.0; a NaN-propagating max fails here.  Which
        # lengths send -0.0 through numpy's vectorized fmax loop varies, so
        # several are tried.
        for repeat in range(1, 12):
            out = relu(np.tile([np.nan, -0.0, 0.0, -1.0, 2.0, np.inf, -np.inf], repeat))
            assert np.array_equal(out, np.tile([0.0, 0.0, 0.0, 0.0, 2.0, np.inf, 0.0],
                                               repeat))
            assert not np.signbit(out).any()
        for n in range(1, 18):
            assert not np.signbit(relu(np.full(n, -0.0))).any()

    def test_sigmoid_matches_two_branch_reference(self, seed):
        def two_branch(a):     # each side evaluated on its own elements
            out = np.empty_like(a)
            pos = a >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
            ez = np.exp(a[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, 5e-324, 1e-300, 700.0, 710.0, 745.0, 800.0, 1e4, np.inf, np.nan]
        a = np.concatenate([edges, np.negative(edges),
                            np.random.default_rng(seed).normal(scale=8.0, size=100_000)])
        for x in (a, a.reshape(-1, 4), a[:1]):
            assert same_bits_or_nan(kernels.sigmoid(x), two_branch(x))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(Var(np.array([-1e4, 1e4]))).value
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0


class TestElementwiseGradients:
    def test_sigmoid_derivative_at_zero(self):
        x = Var(0.0)
        y = ad.sigmoid(x)
        ad.backward(y)
        assert float(x.grad) == pytest.approx(0.25)

    @pytest.mark.parametrize("op", [ad.exp, ad.log, ad.square, ad.sigmoid,
                                    ad.relu])
    def test_unary_ops(self, op, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.2, 2.0, size=(3, 4))   # positive: valid for log
        check_grad(lambda v: ad.sum_(op(v)), x)

    def test_binary_ops(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        check_grad(lambda v: ad.sum_(ad.mul(v, Var(y))), x)
        check_grad(lambda v: ad.sum_(ad.add(v, Var(y))), x)
        check_grad(lambda v: ad.sum_(ad.sub(Var(y), v)), x)

    def test_broadcast_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 5))
        y = rng.normal(size=(4, 5))
        check_grad(lambda v: ad.sum_(ad.mul(v, Var(y))), x)

    def test_mean_and_scale(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6,))
        check_grad(lambda v: ad.mean(ad.scale(v, 3.5)), x)

    def test_clip_pass_through(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, size=(10,))
        # keep samples away from the clip edges so FD stays valid
        x = x[np.abs(np.abs(x) - 1.0) > 1e-3]
        check_grad(lambda v: ad.sum_(ad.square(ad.clip(v, -1.0, 1.0))), x)

    def test_slice_cols(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 8))
        check_grad(lambda v: ad.sum_(ad.square(ad.slice_cols(v, 2, 6))), x)


class TestDense:
    def test_identity_weights(self):
        x = np.array([[1.0, -2.0, 0.5]])
        out = ad.dense(Var(x), Var(np.eye(3)), Var(np.zeros(3))).value
        assert np.array_equal(out, x)

    def test_zero_weights_bias_only(self):
        x = np.ones((2, 3))
        out = ad.dense(Var(x), Var(np.zeros((4, 3))), Var(np.full(4, 2.5))).value
        assert np.all(out == 2.5)

    def test_matches_triple_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 7))
        w = rng.normal(size=(4, 7))
        b = rng.normal(size=4)
        out = ad.dense(Var(x), Var(w), Var(b)).value
        expected = np.empty((5, 4))
        for n in range(5):
            for o in range(4):
                acc = b[o]
                for i in range(7):
                    acc += x[n, i] * w[o, i]
                expected[n, o] = acc
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 10))
        w = rng.normal(size=(6, 10))
        b = rng.normal(size=6)

        def loss_from(xa, wa, ba):
            return ad.sum_(ad.square(ad.dense(xa, wa, ba)))

        for arr, pick in ((x, 0), (w, 1), (b, 2)):
            def build(v, pick=pick):
                args = [Var(x), Var(w), Var(b)]
                args[pick] = v
                return loss_from(*args)
            check_grad(build, arr)


def conv_oracle(x, kern, b, stride):
    """Nested-loop cross-correlation with the same same-style padding."""
    n, length, cin = x.shape
    k, _, cout = kern.shape
    out_len = -(-length // stride)
    pad = max((out_len - 1) * stride + k - length, 0)
    pl = pad // 2
    xp = np.pad(x, ((0, 0), (pl, pad - pl), (0, 0)))
    out = np.zeros((n, out_len, cout))
    for ni in range(n):
        for o in range(out_len):
            for co in range(cout):
                acc = b[co]
                for t in range(k):
                    for ci in range(cin):
                        acc += xp[ni, o * stride + t, ci] * kern[t, ci, co]
                out[ni, o, co] = acc
    return out


class TestConv1d:
    def test_centered_delta_kernel_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 9, 1))
        kern = np.zeros((3, 1, 1))
        kern[1, 0, 0] = 1.0
        out = ad.conv1d(Var(x), Var(kern), Var(np.zeros(1))).value
        assert np.allclose(out, x, atol=1e-15)

    def test_zero_kernel(self):
        x = np.ones((2, 6, 3))
        out = ad.conv1d(Var(x), Var(np.zeros((3, 3, 2))), Var(np.zeros(2))).value
        assert np.all(out == 0.0)

    @staticmethod
    def check_oracle(seed, k, stride):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 11, 3))
        kern = rng.normal(size=(k, 3, 4))
        b = rng.normal(size=4)
        out = ad.conv1d(Var(x), Var(kern), Var(b), stride=stride).value
        assert np.max(np.abs(out - conv_oracle(x, kern, b, stride))) < 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_nested_loop_oracle(self, seed, stride):
        self.check_oracle(seed, 3, stride)

    @pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (1, 3), (3, 3)])
    def test_matches_nested_loop_oracle_k1_and_stride3(self, seed, k, stride):
        self.check_oracle(seed, k, stride)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60))
    def test_stride1_k3_preserves_length(self, length):
        x = np.zeros((1, length, 2))
        out = ad.conv1d(Var(x), Var(np.zeros((3, 2, 1))), Var(np.zeros(1))).value
        assert out.shape == (1, length, 1)

    @staticmethod
    def check_gradients(seed, k, stride):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 8, 2))
        kern = rng.normal(size=(k, 2, 3))
        b = rng.normal(size=3)

        for arr, pick in ((x, 0), (kern, 1), (b, 2)):
            def build(v, pick=pick):
                args = [Var(x), Var(kern), Var(b)]
                args[pick] = v
                return ad.sum_(ad.square(ad.conv1d(*args, stride=stride)))
            check_grad(build, arr)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, seed, stride):
        self.check_gradients(seed, 3, stride)

    @pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (1, 3), (3, 3)])
    def test_gradients_k1_and_stride3(self, seed, k, stride):
        self.check_gradients(seed, k, stride)


def padded_im2col(a, k, stride, out_len, pl, pad):
    """im2col through a zero-padded copy of the input: the reference form."""
    n, length, c = a.shape
    ap = np.zeros((n, length + pad, c))
    ap[:, pl:pl + length, :] = a
    span = (out_len - 1) * stride + 1
    cols = np.empty((n, out_len, k, c))
    for t in range(k):
        cols[:, :, t, :] = ap[:, t:t + span:stride, :]
    return cols.reshape(n * out_len, k * c)


def padded_col2im(cols, stride, length, pl, pad):
    """col2im through a zero-padded scratch array: the reference form."""
    n, out_len, k, c = cols.shape
    ap = np.zeros((n, length + pad, c))
    span = (out_len - 1) * stride + 1
    for t in range(k - 1, -1, -1):
        ap[:, t:t + span:stride, :] += cols[:, :, t, :]
    return ap[:, pl:pl + length, :]


def same_bits(a, b) -> bool:
    """Equal shapes and equal bit patterns, so -0.0 differs from +0.0."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def same_bits_or_nan(a, b) -> bool:
    """NaN in the same places, and same_bits everywhere else.

    Neither the sign nor the payload of a NaN is compared: the window
    reference's single-channel reduction returns numpy's default NaN, and
    sigmoid's exp(-|a|) sets the sign bit of a NaN.
    """
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and same_bits(a[~nan], b[~nan]))


class TestIm2col:
    """im2col and col2im write straight into their outputs; the padded-copy
    forms above are the reference, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_match_padded_reference(self, seed, k, stride):
        rng = np.random.default_rng(seed)
        for length in range(1, 10):
            out_len = -(-length // stride)
            pad = max((out_len - 1) * stride + k - length, 0)
            assert kernels.conv_geometry(length, k, stride) == (out_len, pad // 2)
            for n in (1, 3):
                for c in (1, 4):
                    a = rng.normal(size=(n, length, c))
                    a[a > 1.0] = -0.0
                    assert same_bits(kernels.im2col(a, k, stride),
                                     padded_im2col(a, k, stride, out_len, pad // 2, pad))
                    cols = rng.normal(size=(n, out_len, k, c))
                    cols[cols > 1.0] = -0.0
                    assert same_bits(kernels.col2im(cols, stride, length),
                                     padded_col2im(cols, stride, length, pad // 2, pad))

    def test_taps_with_no_input_row(self):
        # length 1, k 3: only the middle tap reads the sample, the outer two
        # read padding alone
        a = np.array([[[1.5, -2.0]]])
        assert np.array_equal(kernels.im2col(a, 3, 1), [[0.0, 0.0, 1.5, -2.0, 0.0, 0.0]])
        cols = np.arange(1.0, 7.0).reshape(1, 1, 3, 2)
        assert np.array_equal(kernels.col2im(cols, 1, 1), [[[3.0, 4.0]]])

    def test_width1_matrix_is_a_view(self):
        a = np.random.default_rng(0).normal(size=(2, 7, 3))
        cols = kernels.im2col(a, 1, 1)
        assert cols.shape == (14, 3) and np.shares_memory(cols, a)

    def test_width1_conv_backward_leaves_input(self, seed):
        # the width-1 im2col matrix aliases x, so backward must only read it
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 7, 4))
        xv = Var(x.copy())
        out = ad.conv1d(xv, Var(rng.normal(size=(1, 4, 2))), Var(rng.normal(size=2)))
        ad.backward(ad.sum_(ad.square(out)))
        assert np.array_equal(xv.value, x)


def conv_transpose_oracle(x, kern, b, out_len, stride):
    """Nested-loop scatter: each input sample adds k kernel taps to the output."""
    n, l_small, cin = x.shape
    k, _, cout = kern.shape
    pad = max((l_small - 1) * stride + k - out_len, 0)
    pl = pad // 2
    outp = np.zeros((n, out_len + pad, cout))
    for ni in range(n):
        for o in range(l_small):
            for t in range(k):
                for ci in range(cin):
                    for co in range(cout):
                        outp[ni, o * stride + t, co] += x[ni, o, ci] * kern[t, ci, co]
    return outp[:, pl:pl + out_len, :] + b


class TestConvTranspose1d:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_nested_loop_oracle(self, seed, stride, k, batch):
        rng = np.random.default_rng(seed)
        out_len = 11
        x = rng.normal(size=(batch, -(-out_len // stride), 3))
        kern = rng.normal(size=(k, 3, 4))
        b = rng.normal(size=4)
        out = ad.conv_transpose1d(Var(x), Var(kern), Var(b), stride=stride,
                                  out_len=out_len).value
        expected = conv_transpose_oracle(x, kern, b, out_len, stride)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_adjoint_of_conv(self, seed):
        # <conv(x), y> == <x, conv_transpose(y)> with zero biases
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 15, 2))
        kern = rng.normal(size=(3, 2, 4))
        y_small = rng.normal(size=(1, 8, 4))
        fwd = ad.conv1d(Var(x), Var(kern), Var(np.zeros(4)), stride=2).value
        # transpose maps the small grid back to length 15 with the same kernel
        kern_t = np.swapaxes(kern, 1, 2)    # (k, Cout, Cin) for the adjoint
        back = ad.conv_transpose1d(Var(y_small), Var(kern_t), Var(np.zeros(2)),
                                   stride=2, out_len=15).value
        assert np.sum(fwd * y_small) == pytest.approx(np.sum(x * back), rel=1e-10)

    def test_length_validation(self):
        x = np.zeros((1, 8, 2))
        kern = np.zeros((3, 2, 1))
        with pytest.raises(ShapeMismatch):
            ad.conv_transpose1d(Var(x), Var(kern), Var(np.zeros(1)),
                                stride=2, out_len=31)

    @staticmethod
    def check_gradients(seed, k, stride):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, -(-10 // stride), 2))
        kern = rng.normal(size=(k, 2, 3))
        b = rng.normal(size=3)

        for arr, pick in ((x, 0), (kern, 1), (b, 2)):
            def build(v, pick=pick):
                args = [Var(x), Var(kern), Var(b)]
                args[pick] = v
                return ad.sum_(ad.square(
                    ad.conv_transpose1d(*args, stride=stride, out_len=10)))
            check_grad(build, arr)

    def test_gradients(self, seed):
        self.check_gradients(seed, 3, 2)

    @pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (1, 3), (3, 1), (3, 3)])
    def test_gradients_k1_and_stride3(self, seed, k, stride):
        self.check_gradients(seed, k, stride)


def windowed_maxpool(x):
    """Max over (N, L // 2, 2, C) pair windows: the reference forward."""
    n, length, c = x.shape
    return x[:, :length // 2 * 2].reshape(n, length // 2, 2, c).max(axis=2)


def windowed_maxpool_grad(x, g):
    """argmax of each pair window, then a put_along_axis: the reference backward."""
    n, length, c = x.shape
    windows = x[:, :length // 2 * 2].reshape(n, length // 2, 2, c)
    dx = np.zeros(x.shape)
    np.put_along_axis(dx[:, :length // 2 * 2].reshape(windows.shape),
                      windows.argmax(axis=2)[:, :, None, :], g[:, :, None, :], axis=2)
    return dx


# every ordered pair of NaN, signed zeros, infinities and ties
POOL_SPECIAL = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, 1.0, -2.0])


class TestMaxPool:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("odd_tail", [False, True])
    def test_special_values_match_window_reference(self, channels, odd_tail):
        pairs = np.array([(a, b) for a in POOL_SPECIAL for b in POOL_SPECIAL]).ravel()
        if odd_tail:
            pairs = np.append(pairs, np.nan)
        x = np.stack([np.roll(pairs, 2 * c) for c in range(channels)], axis=-1)[None]
        x = np.concatenate([x, -x])
        out = ad.maxpool1d(Var(x))
        assert same_bits_or_nan(out.value, windowed_maxpool(x))
        g = np.random.default_rng(0).normal(size=out.shape)
        g[:, ::5] = -0.0
        (dx,) = out._bwd(g)
        assert same_bits(dx, windowed_maxpool_grad(x, g))

    def test_first_of_a_tie_or_nan_gets_the_gradient(self):
        x = np.array([1.0, 1.0, -0.0, 0.0, np.nan, 5.0, 5.0, np.nan,
                      np.nan, np.nan]).reshape(1, 10, 1)
        xv = Var(x)
        ad.backward(ad.sum_(ad.maxpool1d(xv)))
        assert np.array_equal(xv.grad.ravel(), [1, 0, 1, 0, 1, 0, 0, 1, 1, 0])

    def test_random_inputs_match_window_reference(self, seed):
        rng = np.random.default_rng(seed)
        for shape in [(1, 150, 4), (3, 75, 8), (2, 37, 16), (1, 1, 2)]:
            x = rng.normal(size=shape).round(1)     # rounding makes ties
            xv = Var(x)
            out = ad.maxpool1d(xv)
            g = rng.normal(size=out.shape)
            ad.backward(ad.sum_(ad.mul(out, Var(g))))
            assert same_bits(out.value, windowed_maxpool(x))
            assert same_bits(xv.grad, windowed_maxpool_grad(x, g))

    def test_pairwise_max(self):
        x = np.array([1.0, 3.0, 2.0, 0.0]).reshape(1, 4, 1)
        out = ad.maxpool1d(Var(x)).value
        assert np.array_equal(out.ravel(), [3.0, 2.0])

    def test_constant_input(self):
        x = np.full((1, 10, 2), 1.5)
        out = ad.maxpool1d(Var(x)).value
        assert out.shape == (1, 5, 2)
        assert np.all(out == 1.5)

    def test_length_sequence_matches_table(self):
        lengths = [150]
        while lengths[-1] > 9:
            x = Var(np.zeros((1, lengths[-1], 1)))
            lengths.append(ad.maxpool1d(x).value.shape[1])
        assert lengths == [150, 75, 37, 18, 9]

    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 9, 3))
        # separate near-ties so the argmax is stable under the FD perturbation
        x += np.arange(x.size).reshape(x.shape) * 1e-3
        check_grad(lambda v: ad.sum_(ad.square(ad.maxpool1d(v))), x)


class TestBackward:
    def test_requires_scalar_root(self):
        with pytest.raises(ShapeMismatch):
            ad.backward(ad.relu(Var(np.zeros(3))))

    def test_requires_recorded_graph(self):
        with pytest.raises(ValidationError, match="^root has no recorded forward graph$"):
            ad.backward(Var(1.0))

    def test_gradient_accumulates_on_reuse(self):
        x = Var(np.array(2.0))
        y = ad.add(ad.square(x), ad.scale(x, 3.0))   # x^2 + 3x
        ad.backward(y)
        assert float(x.grad) == pytest.approx(2.0 * 2.0 + 3.0)

    def test_diamond_graph(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4,))
        check_grad(lambda v: ad.sum_(ad.mul(ad.exp(v), ad.square(v))), x)

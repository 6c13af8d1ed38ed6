"""The layer ops' numpy kernels, forward and backward: no autodiff tape.

Each autodiff layer op calls its forward kernel here and records the
backward kernel, so inference and training share every value's arithmetic
and only this module knows the im2col layout and the pooling pairs.

The convolution is an im2col GEMM: k strided slices of the input, as if
zero-padded, form an (N * L_out, k * C_in) matrix that meets the kernel in
one 2-D matrix product.  im2col builds that matrix by whichever of two
copies is faster for the input's geometry, and a width-1, stride-1 conv
uses a view of its input as the matrix.  The transposed convolution is its
adjoint: one GEMM yields every tap's contribution, and strided slice-adds
place them straight into the output, with no scatter.  So each conv's input
gradient is the other's forward kernel, run with the kernel's channel axes
swapped and laid out so that BLAS sees the operands a hand-written backward
GEMM would pass.  ReLU is fmax(a, 0), with -0.0 cleared.  Max-pooling is
np.maximum of the two rows of each pair, both views of the input.

Each kernel allocates only the arrays it returns and their temporaries (the
transposed conv's tap matrix, a padded input copy, the pooling masks) and
adds its bias in place, or none for b=None.  No arithmetic and no order of
operations differs from the plain padded-copy form, so every output is
bit-for-bit the same.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatch


def relu(a: np.ndarray) -> np.ndarray:
    """max(a, 0), with NaN and -0.0 mapped to +0.0.

    fmax drops a NaN operand, but its vectorized loop may return -0.0 for
    -0.0; adding +0.0 clears that sign and changes no other value.
    """
    out = np.fmax(a, 0.0)
    out += 0.0
    return out


def relu_bwd(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """ReLU's input gradient: g where a > 0, zero elsewhere (and at NaN).

    The product is g * (a > 0): a float mask multiplies as the bool would,
    without the ufunc casting it element by element.
    """
    mask = (a > 0).astype(np.float64)
    mask *= g
    return mask


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated so that neither branch overflows.

    With e = exp(-|a|) <= 1, it is 1 / (1 + e) for a >= 0 and e / (1 + e)
    below (and for NaN).
    """
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reshape(a: np.ndarray, shape) -> np.ndarray:
    return a.reshape(shape)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map: (N, in) @ (out, in)^T + (out,)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"dense: x {x.shape} incompatible with W {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeMismatch(f"dense: bias {b.shape} vs W {w.shape}")
    out = x @ w.T
    out += b
    return out


def dense_bwd(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of dense for the output gradient g (N, out)."""
    return g @ w, g.T @ x, g.sum(axis=0)


def bias_grad(g: np.ndarray) -> np.ndarray:
    """g summed over its batch and length axes: (N, L, C) -> (C,).

    The sums are g.sum(axis=(0, 1)) bit for bit, NaN's sign aside.  For a
    C-contiguous g with C > 1 that reduction adds each channel's N * L terms
    one after another, in memory order, and so does einsum, with less
    overhead per term; with C = 1 the sum is pairwise, so it stays g.sum.
    Below about 64 terms per channel einsum's own set-up costs more than it
    saves, so those sums stay g.sum too.
    """
    n, length, c = g.shape
    if c > 1 and n * length >= 64 and g.flags.c_contiguous:
        return np.einsum("ijk->k", g)
    return g.sum(axis=(0, 1))


def conv_geometry(length: int, k: int, stride: int) -> tuple[int, int]:
    """(output length, left padding) of a same-style conv."""
    out_len = -(-length // stride)
    pad = max((out_len - 1) * stride + k - length, 0)
    return out_len, pad // 2


@functools.lru_cache(maxsize=256)
def _tap_moves(length: int, k: int, stride: int) -> tuple[int, tuple, tuple]:
    """How a conv over `length` input rows fills its (N, out_len, k, C) im2col
    matrix from its (N, L, C) input, cached per geometry.

    Returns (out_len, pads, moves).  `pads` index the matrix entries that
    read padding.  A move (mat, src, block) pairs matrix[mat] with input[src]:
    one tap's in-range rows (block None), or a full block of `stride`
    consecutive taps where all of them are in range.  There each output row
    reads `stride` consecutive input rows, so input[src] viewed as
    (N, *block, C) is matrix[mat].  Moves are listed block by block in
    increasing tap, and the moves of one block touch disjoint input rows.
    """
    out_len, pl = conv_geometry(length, k, stride)
    every = slice(None)

    def move(lo, hi, t, w):
        start = lo * stride + t - pl
        if w == 1:
            rows = slice(start, start + (hi - lo - 1) * stride + 1, stride)
            return (every, slice(lo, hi), t, every), (every, rows, every), None
        return ((every, slice(lo, hi), slice(t, t + w), every),
                (every, slice(start, start + (hi - lo) * w), every), (hi - lo, w))

    spans, pads = [], []
    for t in range(k):
        first = t - pl                               # input row of output row 0
        lo = max(-(first // stride), 0)
        hi = min(max((length - 1 - first) // stride + 1, 0), out_len)
        lo, hi = (lo, hi) if lo < hi else (out_len, out_len)
        spans.append((lo, hi))
        pads += [(every, rows, t, every) for rows in (slice(0, lo), slice(hi, out_len))
                 if rows.start < rows.stop]

    moves = []
    for t0 in range(0, k, stride):
        block = range(t0, min(t0 + stride, k))
        blo = max(spans[t][0] for t in block)
        bhi = min(spans[t][1] for t in block)
        if len(block) < stride or blo >= bhi:
            blo = bhi = 0
        else:
            moves.append(move(blo, bhi, t0, stride))
        for t in block:                              # rows the block move left
            lo, hi = spans[t]
            for a, b in ((lo, min(hi, blo)), (max(lo, bhi), hi)):
                if a < b:
                    moves.append(move(a, b, t, 1))
    return out_len, tuple(pads), tuple(moves)


def im2col(a: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(N, L, C) -> (N * out_len, k * C): row o holds the k taps from o * stride
    of `a` zero-padded by conv_geometry's left padding.

    A width-1, stride-1 conv has no padding: its matrix is a view of `a`.
    At stride 1 over several channels the matrix is a copy of a sliding
    window over a zero-padded copy of `a`, so each of its rows is copied as
    k * C consecutive values.  Elsewhere (strided convs, and one channel at
    stride 1) the padded copy costs more than it saves: input rows are
    copied straight from `a` by _tap_moves, one tap or one block of `stride`
    taps per slice, and only the padding entries are zeroed.  Either way
    every entry is an input value or +0.0.
    """
    n, length, c = a.shape
    if k == 1 and stride == 1:
        return a.reshape(n * length, c)
    if stride == 1 and c > 1:
        pl = conv_geometry(length, k, 1)[1]
        padded = np.zeros((n, length + k - 1, c))
        padded[:, pl:pl + length] = a
        s0, s1, s2 = padded.strides
        window = np.ndarray((n, length, k, c), buffer=padded, strides=(s0, s1, s1, s2))
        # a copy: reshape alone may return overlapping rows, which BLAS refuses
        return np.ascontiguousarray(window).reshape(n * length, k * c)
    out_len, pads, moves = _tap_moves(length, k, stride)
    cols = np.empty((n, out_len, k, c))
    for mat in pads:
        cols[mat] = 0.0
    for mat, src, block in moves:
        cols[mat] = a[src] if block is None else a[src].reshape(-1, *block, c)
    return cols.reshape(n * out_len, k * c)


def col2im(cols: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Adjoint of im2col: (N, out_len, k, C) taps summed back onto (N, L, C).

    Taps are added from t = k - 1 down to 0, so every position receives its
    terms in increasing o, the order an index-array scatter would use (one
    block's moves reach disjoint positions, so their order is free); the
    terms that would land in the padding are never added.
    """
    n, _, k, c = cols.shape
    out = np.zeros((n, length, c))
    for mat, dst, block in reversed(_tap_moves(length, k, stride)[2]):
        win = out[dst] if block is None else out[dst].reshape(-1, *block, c)
        win += cols[mat]                                 # win is a view of out
    return out


def conv1d_cols(x: np.ndarray, kern: np.ndarray, b: np.ndarray | None,
                stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """conv1d's output and the im2col matrix its backward pass reuses."""
    if x.ndim != 3 or kern.ndim != 3:
        raise ShapeMismatch("conv1d expects x (N, L, Cin) and kernel (k, Cin, Cout)")
    n, length, cin = x.shape
    k, kcin, cout = kern.shape
    if kcin != cin:
        raise ShapeMismatch(f"conv1d: input channels {cin} vs kernel {kcin}")
    if b is not None and b.shape != (cout,):
        raise ShapeMismatch("conv1d: bias shape mismatch")
    cols = im2col(x, k, stride)                            # (N*Lo, k*Cin)
    out = cols @ kern.reshape(k * cin, cout)
    if b is not None:
        out += b
    return out.reshape(n, conv_geometry(length, k, stride)[0], cout), cols


def conv1d(x: np.ndarray, kern: np.ndarray, b: np.ndarray,
           stride: int = 1) -> np.ndarray:
    """Cross-correlation with same-style zero padding, as one im2col GEMM.

    x: (N, L, C_in); kern: (k, C_in, C_out); output length ceil(L / stride).
    """
    return conv1d_cols(x, kern, b, stride)[0]


def conv1d_bwd(g: np.ndarray, cols: np.ndarray, kern: np.ndarray, stride: int,
               length: int):
    """(dx, dk, db) of conv1d for the output gradient g, from the forward's
    im2col matrix cols and input length."""
    k, cin, cout = kern.shape
    dx = conv_transpose1d(g, kern.transpose(0, 2, 1), None, stride, length)
    dk = (cols.T @ g.reshape(-1, cout)).reshape(k, cin, cout)
    return dx, dk, bias_grad(g)


def conv_transpose1d(x: np.ndarray, kern: np.ndarray, b: np.ndarray | None,
                     stride: int, out_len: int) -> np.ndarray:
    """Adjoint of conv1d: maps length ceil(out_len / stride) back to out_len.

    One GEMM gives every tap's contribution; strided slice-adds place them.
    x: (N, L_small, C_in); kern: (k, C_in, C_out).
    """
    n, l_small, cin = x.shape
    k, kcin, cout = kern.shape
    if kcin != cin:
        raise ShapeMismatch(f"conv_transpose1d: input channels {cin} vs kernel {kcin}")
    if b is not None and b.shape != (cout,):
        raise ShapeMismatch("conv_transpose1d: bias shape mismatch")
    if conv_geometry(out_len, k, stride)[0] != l_small:
        raise ShapeMismatch(
            f"conv_transpose1d: input length {l_small} inconsistent with "
            f"out_len {out_len} at stride {stride}")
    kmat = kern.transpose(1, 0, 2).reshape(cin, k * cout)
    taps = x.reshape(-1, cin) @ kmat
    if k == 1 and stride == 1:
        # col2im would add the one tap to zeros; 0.0 + t only clears -0.0
        out = taps.reshape(n, out_len, cout)
        out += 0.0
    else:
        out = col2im(taps.reshape(n, l_small, k, cout), stride, out_len)
    if b is not None:
        out += b
    return out


def conv_transpose1d_bwd(g: np.ndarray, x: np.ndarray, kern: np.ndarray, stride: int):
    """(dx, dk, db) of conv_transpose1d for the output gradient g.

    The swapped kernel is a view of the forward's (C_in, k * C_out) tap matrix.
    """
    k, cin, cout = kern.shape
    swapped = np.ascontiguousarray(kern.transpose(1, 0, 2)).transpose(1, 2, 0)
    dx, gcols = conv1d_cols(g, swapped, None, stride)
    dk = (x.reshape(-1, cin).T @ gcols).reshape(cin, k, cout).transpose(1, 0, 2)
    return dx, dk, bias_grad(g)


def pool_pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, L, C) -> the first and second rows of each non-overlapping pair,
    two (N, L // 2, C) views; an odd trailing row is dropped."""
    if x.ndim != 3:
        raise ShapeMismatch("maxpool1d expects (N, L, C)")
    end = x.shape[1] // 2 * 2
    return x[:, 0:end:2], x[:, 1:end:2]


def maxpool1d(x: np.ndarray) -> np.ndarray:
    """Per-channel max over non-overlapping pairs; odd trailing sample dropped.

    NaN propagates; of two equal values (-0.0 and 0.0 too) the first is kept.
    """
    return np.maximum(*pool_pairs(x))


def maxpool1d_bwd(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """maxpool1d's input gradient: each pair's g goes to its argmax row, the
    first on a tie or when it is NaN; a dropped odd trailing row gets zero.

    Both rows of each pair are written, g or +0.0, so no row is zeroed first.
    """
    first, second = pool_pairs(x)
    first_wins = (first >= second) | np.isnan(first)
    dx = np.empty(x.shape)
    dx_first, dx_second = pool_pairs(dx)               # views of dx
    dx_first[...] = np.where(first_wins, g, 0.0)
    dx_second[...] = np.where(first_wins, 0.0, g)
    dx[:, 2 * first.shape[1]:] = 0.0
    return dx

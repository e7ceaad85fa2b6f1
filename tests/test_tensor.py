"""Kernel correctness against the naive reference loops, and gradient
checks for every differentiable operation."""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from helpers import assert_grads, away_from_zero
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (MAddCounter, conv2d_naive, conv_madds, global_avg_pool_naive,
                       linear_naive, shift_fusions)

from micronet import tensor
from micronet.dyshiftmax import DyShiftMax
from micronet.models import build_model
from micronet.module import Context
from micronet.tensor import (ConvSpec, Tensor, _accumulate, _conv_banded, _conv_depthwise,
                             _conv_im2col, _conv_rows, add, coefficient_head, conv2d,
                             conv2d_composed, dropout, global_avg_pool, linear, no_grad,
                             permute_channels, relu, shift_max, softmax, softmax_cross_entropy)


def rnd(rng, *shape):
    return rng.standard_normal(shape)


def norm_state(gamma, beta, running_mean, running_var):
    """The batch-norm state conv2d reads from its norm argument."""
    return SimpleNamespace(gamma=gamma, beta=beta, running_mean=running_mean,
                           running_var=running_var)


# ---------------------------------------------------------------------------
# ConvSpec

def test_convspec_validation():
    with pytest.raises(ValueError):
        ConvSpec(4, 8, 3, groups=3)
    with pytest.raises(ValueError):
        ConvSpec(4, 6, 3, groups=4)
    with pytest.raises(ValueError):
        ConvSpec(0, 8, 3)
    spec = ConvSpec(4, 8, 3)
    assert spec.kernel == (3, 3)
    assert spec.stride == (1, 1)
    assert spec.weight_shape == (8, 4, 3, 3)


def test_convspec_geometry_and_cost():
    spec = ConvSpec(6, 12, (3, 1), stride=(2, 1), padding=(1, 0), groups=3)
    assert spec.out_size(8, 5) == (4, 5)
    assert spec.fan_in() == (6 // 3) * 3 * 1
    assert conv_madds(spec, 8, 5) == 4 * 5 * 12 * spec.fan_in()


# ---------------------------------------------------------------------------
# forward oracles

@pytest.mark.parametrize("seed", range(10))
def test_conv2d_matches_naive_loops(seed):
    rng = np.random.default_rng(seed)
    groups = int(rng.choice([1, 2, 3]))
    cin = groups * int(rng.integers(1, 4))
    cout = groups * int(rng.integers(1, 4))
    kernel = (int(rng.choice([1, 3])), int(rng.choice([1, 3])))
    stride = (int(rng.choice([1, 2])), int(rng.choice([1, 2])))
    padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    spec = ConvSpec(cin, cout, kernel, stride=stride, padding=padding,
                    groups=groups)
    x = rnd(rng, 2, cin, 6, 7)
    w = rnd(rng, *spec.weight_shape)
    counter = MAddCounter()
    want = conv2d_naive(x, w, spec, counter)
    got = conv2d(Tensor(x), Tensor(w), spec=spec).data
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
    assert counter.count == 2 * conv_madds(spec, 6, 7)


@st.composite
def pointwise_specs(draw):
    """1x1, stride 1, unpadded convolutions, grouped or not."""
    g = draw(st.integers(1, 3))
    return ConvSpec(g * draw(st.integers(1, 3)), g * draw(st.integers(1, 3)), 1,
                    groups=g)


@st.composite
def depthwise_specs(draw):
    """One input channel per group, og = C_out / C_in in {1, 2, 3}, with
    k x 1, 1 x k and k x k kernels."""
    c = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    kernel = draw(st.sampled_from([(k, 1), (1, k), (k, k)]))
    return ConvSpec(c, c * draw(st.integers(1, 3)), kernel,
                    stride=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
                    padding=(draw(st.integers(0, 2)), draw(st.integers(0, 2))),
                    groups=c)


@given(st.one_of(pointwise_specs(), depthwise_specs()), st.integers(1, 2),
       st.integers(5, 8), st.integers(5, 8), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_conv2d_specialized_branches_match_im2col(spec, n, h, w, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rnd(rng, n, spec.in_channels, h, w), requires_grad=True)
    wt = Tensor(rnd(rng, *spec.weight_shape), requires_grad=True)
    out = conv2d(x, wt, spec=spec)
    assert out.data.flags.c_contiguous
    np.testing.assert_allclose(out.data, conv2d_naive(x.data, wt.data, spec),
                               atol=1e-12, rtol=0)

    ref, vjp = _conv_im2col(x.data, wt.data, spec)
    np.testing.assert_allclose(out.data, ref, atol=1e-12, rtol=0)
    gout = rnd(rng, *out.shape)
    out._backward(gout)
    gx, gw = vjp(gout, True, True)
    np.testing.assert_allclose(x.grad, gx, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(wt.grad, gw, atol=1e-12, rtol=1e-12)


@st.composite
def dense_specs(draw):
    """Any group count, kernels up to 3x3, strides 1-3 and padding 0-2: the
    geometries only the im2col kernel runs."""
    g = draw(st.integers(1, 3))
    return ConvSpec(g * draw(st.integers(1, 3)), g * draw(st.integers(1, 3)),
                    (draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                    stride=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                    padding=(draw(st.integers(0, 2)), draw(st.integers(0, 2))),
                    groups=g)


def conv2d_naive_grads(x, w, spec, g):
    """Gradients of conv2d_naive with respect to x and w, one output position
    at a time."""
    kh, kw = spec.kernel
    sh, sw = spec.stride
    ph, pw = spec.padding
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for grp in range(spec.groups):
        ci, co = slice(grp * cg, (grp + 1) * cg), slice(grp * og, (grp + 1) * og)
        for oy in range(g.shape[2]):
            for ox in range(g.shape[3]):
                win = (slice(None), ci, slice(oy * sh, oy * sh + kh),
                       slice(ox * sw, ox * sw + kw))
                go = g[:, co, oy, ox]                                  # (N, og)
                gw[co] += np.einsum("no,nckl->ockl", go, xp[win])
                gxp[win] += np.einsum("no,ockl->nckl", go, w[co])
    return gxp[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]], gw


@st.composite
def im2col_cases(draw):
    """A dense_specs() or depthwise spec and an input it fits, down to 1x1
    maps. The depthwise specs have og 1-4, k x 1, 1 x k or k x k kernels
    with k 1-5, stride 1-3 and padding up to k + 1, so that some taps read
    only padding."""
    if draw(st.booleans()):
        spec = draw(dense_specs())
    else:
        c, k = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        spec = ConvSpec(c, c * draw(st.integers(1, 4)),
                        draw(st.sampled_from([(k, 1), (1, k), (k, k)])),
                        stride=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                        padding=(draw(st.integers(0, k + 1)), draw(st.integers(0, k + 1))),
                        groups=c)
    (kh, kw), (ph, pw) = spec.kernel, spec.padding
    h = draw(st.integers(max(1, kh - 2 * ph), 7))
    w = draw(st.integers(max(1, kw - 2 * pw), 7))
    return spec, (draw(st.integers(1, 3)), spec.in_channels, h, w)


def assert_kernel_matches_naive(kernel, spec, shape, dtype, seed):
    """kernel's forward and vjp against conv2d_naive and conv2d_naive_grads,
    its output C-ordered, as every kernel's is (row filters included)."""
    rng = np.random.default_rng(seed)
    x = rnd(rng, *shape).astype(dtype)
    wt = rnd(rng, *spec.weight_shape).astype(dtype)
    out, vjp = kernel(x, wt, spec)
    assert out.flags.c_contiguous
    gout = rnd(rng, *out.shape).astype(dtype)
    gx, gw = vjp(gout, True, True)
    assert out.dtype == gx.dtype == gw.dtype == dtype
    assert gx.shape == x.shape and gw.shape == wt.shape
    assert vjp(gout, False, True)[0] is None and vjp(gout, True, False)[1] is None

    # float64 references from the same inputs
    x64, w64, g64 = (a.astype(np.float64) for a in (x, wt, gout))
    want_gx, want_gw = conv2d_naive_grads(x64, w64, spec, g64)
    tol = dict(atol=1e-12, rtol=0) if dtype == np.float64 else dict(atol=1e-5, rtol=1e-5)
    np.testing.assert_allclose(out, conv2d_naive(x64, w64, spec), **tol)
    np.testing.assert_allclose(gx, want_gx, **tol)
    np.testing.assert_allclose(gw, want_gw, **tol)


@given(im2col_cases(), st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_conv_im2col_matches_naive(case, dtype, seed):
    assert_kernel_matches_naive(_conv_im2col, *case, dtype, seed)


@st.composite
def einsum_cases(draw):
    """A spec _conv_depthwise takes (a k x 1 or 1 x k filter with og 1, k 1-5,
    stride 1-3 and padding 0 to k + 1 along the filter, so that some taps
    read only padding) and an input it fits: the filtered axis 1-8 long, the
    other 1-5."""
    c, k = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    s, p = draw(st.integers(1, 3)), draw(st.integers(0, k + 1))
    length = draw(st.integers(max(1, k - 2 * p), 8))     # the filtered axis
    across, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        return ConvSpec(c, c, (k, 1), (s, 1), (p, 0), groups=c), (n, c, length, across)
    return ConvSpec(c, c, (1, k), (1, s), (0, p), groups=c), (n, c, across, length)


@given(einsum_cases(), st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_conv_depthwise_matches_naive(case, dtype, seed):
    assert_kernel_matches_naive(_conv_depthwise, *case, dtype, seed)


@st.composite
def banded_cases(draw):
    """A spec _conv_banded takes (a k x 1 or 1 x k filter with one output per
    channel; k in {1, 3, 5}, stride 1-3, padding 0 to (k-1)/2 + 1 along the
    filter) and an input shape it fits, down to 1x1 maps."""
    c = draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 3, 5]))
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, (k - 1) // 2 + 1))
    length = draw(st.integers(max(1, k - 2 * p), 6))     # the filtered axis
    across = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return ConvSpec(c, c, (k, 1), (s, 1), (p, 0), groups=c), (n, c, length, across)
    return ConvSpec(c, c, (1, k), (1, s), (0, p), groups=c), (n, c, across, length)


@given(banded_cases(), st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_conv_banded_matches_im2col_and_naive(case, dtype, seed):
    spec, shape = case
    rng = np.random.default_rng(seed)
    x = rnd(rng, *shape).astype(dtype)
    wt = rnd(rng, *spec.weight_shape).astype(dtype)
    out, vjp = _conv_banded(x, wt, spec)
    gout = rnd(rng, *out.shape).astype(dtype)
    gx, gw = vjp(gout, True, True)
    assert out.dtype == gx.dtype == gw.dtype == dtype
    # column and row filters alike write NCHW, so _output copies nothing
    assert out.flags.c_contiguous
    assert gx.shape == x.shape and gw.shape == wt.shape
    assert vjp(gout, False, True)[0] is None and vjp(gout, True, False)[1] is None

    # float64 references from the same inputs
    x64, w64, g64 = (a.astype(np.float64) for a in (x, wt, gout))
    ref, ref_vjp = _conv_im2col(x64, w64, spec)
    naive_gx, naive_gw = conv2d_naive_grads(x64, w64, spec, g64)
    tol = dict(atol=1e-12, rtol=1e-12) if dtype == np.float64 else dict(atol=1e-5, rtol=1e-5)
    for want_out, (want_gx, want_gw) in ((ref, ref_vjp(g64, True, True)),
                                         (conv2d_naive(x64, w64, spec),
                                          (naive_gx, naive_gw))):
        np.testing.assert_allclose(out, want_out, **tol)
        np.testing.assert_allclose(gx, want_gx, **tol)
        np.testing.assert_allclose(gw, want_gw, **tol)


def test_depthwise_kernel_dispatch(monkeypatch):
    """The kernel each M0 depthwise stage gets, as in README "Kernels": for
    one image at 224x224, im2col for the stem's 1x3 and for blocks 0-1,
    whose expanding pairs run composed as one 3x3 convolution, and
    the phase-grid einsum for the rest; in training at batch 16 and 64x64
    im2col for the stem's grouped 1x3 (two outputs per channel) and for
    blocks 0-1, composed there too, and the banded kernel for the rest."""
    import micronet.tensor as tensor_mod
    picked = []
    real = tensor_mod._conv_kernel

    def record(x, w, spec):
        kernel = real(x, w, spec)
        if spec.groups == spec.in_channels and kernel is not tensor_mod._conv_pointwise:
            picked.append((x.shape, spec.kernel, kernel.__name__))
        return kernel

    monkeypatch.setattr(tensor_mod, "_conv_kernel", record)
    net = build_model("M0", seed=0, dtype=np.float32)
    with no_grad():
        net(np.zeros((1, 3, 224, 224), np.float32), Context(training=False))
    names = [name for _, _, name in picked]
    assert names == ["_conv_im2col"] * 3 + ["_conv_depthwise"] * 8
    assert ((1, 8, 56, 56), (3, 3), "_conv_im2col") in picked
    assert ((1, 128, 14, 14), (5, 1), "_conv_depthwise") in picked

    picked.clear()
    net(np.zeros((16, 3, 64, 64), np.float32),
        Context(training=True, rng=np.random.default_rng(0)))
    stem, *stages = picked
    assert stem == ((16, 2, 32, 64), (1, 3), "_conv_im2col")
    assert stages[:2] == [((16, 4, 32, 32), (3, 3), "_conv_im2col"),
                          ((16, 8, 16, 16), (3, 3), "_conv_im2col")]
    stages = stages[2:]
    assert len(stages) == 8 and {name for _, _, name in stages} == {"_conv_banded"}
    assert ((16, 256, 2, 2), (3, 1), "_conv_banded") in stages

    # batch 16 at 224x224: filters with og 1 banded up to a filtered axis
    # of 32; past it, im2col when strided with at most 3 taps, else einsum.
    # Filters with og > 1 run im2col at any length. At batch 1 the einsum
    # takes only 1-D filters with og 1 and no padding across them
    for shape, kernel, stride, padding, og, want in [
            ((16, 8, 56, 56), (3, 1), (2, 1), (1, 0), 4, "_conv_im2col"),
            ((16, 8, 56, 56), (3, 3), (2, 2), (1, 1), 4, "_conv_im2col"),
            ((1, 8, 56, 56), (3, 1), (2, 1), (1, 0), 4, "_conv_im2col"),
            ((16, 32, 28, 56), (1, 3), (1, 2), (0, 1), 1, "_conv_im2col"),
            ((16, 12, 28, 28), (5, 1), (2, 1), (2, 0), 1, "_conv_banded"),
            ((16, 12, 56, 56), (5, 1), (2, 1), (2, 0), 1, "_conv_depthwise"),
            ((16, 32, 56, 56), (3, 1), (1, 1), (1, 0), 1, "_conv_depthwise"),
            ((16, 32, 56, 56), (3, 1), (1, 1), (1, 0), 2, "_conv_im2col"),
            ((16, 8, 28, 28), (3, 1), (1, 1), (1, 0), 2, "_conv_im2col"),
            ((1, 16, 28, 28), (3, 3), (1, 1), (1, 1), 1, "_conv_im2col"),
            ((1, 16, 28, 28), (3, 1), (1, 1), (1, 1), 1, "_conv_im2col"),
            ((1, 16, 28, 28), (3, 1), (1, 1), (1, 0), 2, "_conv_im2col"),
            ((1, 16, 28, 28), (1, 5), (1, 1), (0, 2), 1, "_conv_depthwise")]:
        c = shape[1]
        spec = ConvSpec(c, c * og, kernel, stride, padding, groups=c)
        x, w = Tensor(np.zeros(shape)), Tensor(np.zeros(spec.weight_shape))
        assert real(x, w, spec).__name__ == want


@given(st.one_of(pointwise_specs(), depthwise_specs(), dense_specs()),
       st.integers(1, 2), st.integers(5, 7), st.integers(5, 7), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_conv2d_folded_norm_matches_conv_then_batch_norm(spec, n, h, w, seed):
    rng = np.random.default_rng(seed)
    c = spec.out_channels
    x = Tensor(rnd(rng, n, spec.in_channels, h, w), requires_grad=True)
    wt = Tensor(rnd(rng, *spec.weight_shape), requires_grad=True)
    gamma = Tensor(1.0 + 0.3 * rnd(rng, c), requires_grad=True)
    beta = Tensor(rnd(rng, c), requires_grad=True)
    mean, var = rnd(rng, c), rng.uniform(0.1, 2.0, c)
    bn = norm_state(gamma, beta, mean, var)
    out = conv2d(x, wt, spec=spec, norm=bn)
    assert out.data.flags.c_contiguous

    # the reference: conv2d, then y * a + b with the running statistics
    xr = Tensor(x.data, requires_grad=True)
    wr = Tensor(wt.data, requires_grad=True)
    y = conv2d(xr, wr, spec=spec)
    inv = 1.0 / np.sqrt(var + 1e-5)                        # every norm's eps
    a = gamma.data * inv
    b = beta.data - mean * a
    np.testing.assert_allclose(out.data, y.data * a[None, :, None, None]
                               + b[None, :, None, None], atol=1e-12, rtol=0)

    gout = rnd(rng, *out.shape)
    out._backward(gout)
    y._backward(gout * a[None, :, None, None])
    ggamma = (gout * (y.data - mean[None, :, None, None])
              * inv[None, :, None, None]).sum(axis=(0, 2, 3))
    for got, want in ((x.grad, xr.grad), (wt.grad, wr.grad), (gamma.grad, ggamma),
                      (beta.grad, gout.sum(axis=(0, 2, 3)))):
        np.testing.assert_allclose(got, want, atol=1e-11, rtol=1e-10)


@given(st.sampled_from([1, 3, 5, 7]), st.integers(1, 3), st.integers(2, 4),
       st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.booleans(),
       st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_conv2d_composed_matches_factorized_pair(k, c, og, n, h, w, normed, seed):
    # the k x 1 stride-(2, 1) column stage with og outputs per channel, then
    # the 1 x k stride-(1, 2) row stage, against the one composed op, in
    # eval mode with and without the norm after it
    rng = np.random.default_rng(seed)
    p, o = (k - 1) // 2, c * og
    col_spec = ConvSpec(c, o, (k, 1), (2, 1), (p, 0), groups=c)
    row_spec = ConvSpec(o, o, (1, k), (1, 2), (0, p), groups=o)
    spec = ConvSpec(c, o, k, 2, p, groups=c)
    data = [rnd(rng, n, c, h, w), rnd(rng, o, 1, k, 1), rnd(rng, o, 1, 1, k),
            1.0 + 0.3 * rnd(rng, o), rnd(rng, o)]
    mean, var = rnd(rng, o), rng.uniform(0.1, 2.0, o)

    def leaves():
        x, col, row, gamma, beta = (Tensor(a, requires_grad=True) for a in data)
        bn = norm_state(gamma, beta, mean, var) if normed else None
        return x, col, row, gamma, beta, bn

    x, col, row, gamma, beta, bn = leaves()
    out = conv2d_composed(x, col, row, spec=spec, norm=bn)
    xr, colr, rowr, gammar, betar, bnr = leaves()
    mid = conv2d(xr, colr, spec=col_spec)
    ref = conv2d(mid, rowr, spec=row_spec, norm=bnr)
    assert out.shape == ref.shape and out.data.flags.c_contiguous

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert_close(out.data, ref.data)
    gout = rnd(rng, *out.shape)
    out._backward(gout)
    ref._backward(gout)
    mid._backward(mid.grad)
    pairs = [(x, xr), (col, colr), (row, rowr)]
    for got, want in pairs + ([(gamma, gammar), (beta, betar)] if normed else []):
        assert_close(got.grad, want.grad)


@given(st.sampled_from([1, 3, 5]), st.integers(1, 3), st.integers(2, 4),
       st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.booleans(),
       st.integers(0, 10_000))
@example(k=3, c=1, og=2, n=2, h=6, w=1, relu_after=True, seed=144)
@settings(max_examples=150, deadline=None)
def test_conv2d_composed_trains_like_factorized_pair(k, c, og, n, h, w, relu_after, seed):
    # in training: the composed op against the column stage, then the row
    # stage with the norm on this batch's statistics, with and without the
    # ReLU after it; outputs, both running buffers and every gradient. The
    # norms' eps is patched to 1: with eps far below a channel's variance the
    # norm is nearly invariant to the scale of the channel's weights, so the
    # factors' gradients (all of a 1-tap factor's) are a small remainder of
    # sums that cancel, and both sides would carry the rounding of those sums
    rng = np.random.default_rng(seed)
    p, o = (k - 1) // 2, c * og
    col_spec = ConvSpec(c, o, (k, 1), (2, 1), (p, 0), groups=c)
    row_spec = ConvSpec(o, o, (1, k), (1, 2), (0, p), groups=o)
    spec = ConvSpec(c, o, k, 2, p, groups=c)
    data = [rnd(rng, n, c, h, w), rnd(rng, o, 1, k, 1), rnd(rng, o, 1, 1, k),
            1.0 + 0.3 * rnd(rng, o), rnd(rng, o)]
    stats = rnd(rng, o), rng.uniform(0.1, 2.0, o)
    act = "relu" if relu_after else None

    def leaves():
        x, col, row, gamma, beta = (Tensor(a, requires_grad=True) for a in data)
        return x, col, row, gamma, beta, norm_state(gamma, beta, *(a.copy() for a in stats))

    x, col, row, gamma, beta, bn = leaves()
    xr, colr, rowr, gammar, betar, bnr = leaves()
    with mock.patch.object(tensor, "_BN_EPS", 1.0):
        out = conv2d_composed(x, col, row, spec=spec, norm=bn, training=True, act=act)
        ref = conv2d(conv2d(xr, colr, spec=col_spec), rowr, spec=row_spec, norm=bnr,
                     training=True, act=act)
    assert out.shape == ref.shape and out.data.flags.c_contiguous
    gout = rnd(rng, *out.shape)
    backward_with(out, gout)
    backward_with(ref, gout)

    # the size of the terms each input gradient sums before they cancel:
    # the gradients of the pair without its norm, on the absolute values of
    # its operands, seeded with the largest |gout| times each channel's
    # |gamma| / sqrt(var + eps), the scale of the norm's input gradient
    with no_grad():
        pre = conv2d(conv2d(Tensor(data[0]), Tensor(data[1]), spec=col_spec),
                     Tensor(data[2]), spec=row_spec).data
    scale = np.abs(gout).max() * np.abs(data[3]) / np.sqrt(pre.var(axis=(0, 2, 3)) + 1.0)
    terms = [Tensor(np.abs(a), requires_grad=True) for a in data[:3]]
    backward_with(conv2d(conv2d(terms[0], terms[1], spec=col_spec), terms[2], spec=row_spec),
                  np.broadcast_to(scale[:, None, None], out.shape))

    def assert_close(got, want, size=0.0):
        # rounding level of the larger of the result and its terms
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), size)

    for got, want in [(out.data, ref.data), (bn.running_mean, bnr.running_mean),
                      (bn.running_var, bnr.running_var), (gamma.grad, gammar.grad),
                      (beta.grad, betar.grad)]:
        assert_close(got, want)
    for (t, tr), size in zip([(x, xr), (col, colr), (row, rowr)], terms):
        assert_close(t.grad, tr.grad, np.abs(size.grad).max())


# ---------------------------------------------------------------------------
# conv2d's epilogue: the ReLU and the channel permutation

def backward_with(out, g):
    """Backpropagate the gradient g of the non-scalar out through its graph."""
    def seed(_):
        _accumulate(out, g)

    tensor._result(np.zeros(()), [out], seed).backward()


EPILOGUE_SPECS = {
    "pointwise": ConvSpec(4, 6, 1, groups=2),
    "im2col": ConvSpec(3, 6, 3, stride=2, padding=1, groups=3),
    # banded at N = 2, the phase-grid einsum at N = 1
    "banded": ConvSpec(6, 6, (3, 1), padding=(1, 0), groups=6),
    "rows": ConvSpec(3, 6, (3, 1), stride=(2, 1), padding=(1, 0)),
}


@pytest.mark.parametrize("kernel", list(EPILOGUE_SPECS))
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["eval-norm", "eval-none", "train-norm"])
@pytest.mark.parametrize("act", ["relu", None])
@pytest.mark.parametrize("shuffle", ["identity", "random", None])
def test_conv2d_epilogue_equals_separate_ops(kernel, n, mode, act, shuffle):
    # conv2d with act, then permute_channels by perm when there is one, as a
    # compress stage and its shuffle run, against conv2d, relu and
    # permute_channels run one by one: bitwise-equal outputs, gradients and
    # running buffers
    spec = EPILOGUE_SPECS[kernel]
    rng = np.random.default_rng(3)
    c = spec.out_channels
    perm = {"identity": np.arange(c), "random": rng.permutation(c), None: None}[shuffle]
    data = [rnd(rng, n, spec.in_channels, 5, 6), rnd(rng, *spec.weight_shape),
            1.0 + 0.3 * rnd(rng, c), rnd(rng, c)]
    stats = rnd(rng, c), rng.uniform(0.1, 2.0, c)
    training = mode.startswith("train")

    def run(fused):
        x, w, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in data)
        running = [a.copy() for a in stats]
        bn = norm_state(gamma, beta, *running) if mode.endswith("norm") else None
        if fused:
            out = conv2d(x, w, spec=spec, norm=bn, training=training, act=act)
            assert out.data.flags.c_contiguous
        else:
            out = conv2d(x, w, spec=spec, norm=bn, training=training)
            out = relu(out) if act else out
        out = out if perm is None else permute_channels(out, perm)
        backward_with(out, rnd(np.random.default_rng(4), *out.shape))
        grads = [t.grad for t in (x, w) + ((gamma, beta) if bn else ())]
        return [out.data, *grads, *running]

    for got, want in zip(run(True), run(False)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("normed", [True, False])
def test_conv2d_composed_relu_equals_separate_ops(n, normed):
    rng = np.random.default_rng(5)
    spec = ConvSpec(2, 6, 3, stride=2, padding=1, groups=2)
    data = [rnd(rng, n, 2, 7, 6), rnd(rng, 6, 1, 3, 1), rnd(rng, 6, 1, 1, 3),
            1.0 + 0.3 * rnd(rng, 6), rnd(rng, 6)]
    mean, var = rnd(rng, 6), rng.uniform(0.1, 2.0, 6)

    def run(fused):
        x, col, row, gamma, beta = (Tensor(a, requires_grad=True) for a in data)
        bn = norm_state(gamma, beta, mean, var) if normed else None
        out = (conv2d_composed(x, col, row, spec=spec, norm=bn, act="relu") if fused
               else relu(conv2d_composed(x, col, row, spec=spec, norm=bn)))
        backward_with(out, rnd(np.random.default_rng(6), *out.shape))
        return [out.data] + [t.grad for t in (x, col, row) + ((gamma, beta) if normed else ())]

    for got, want in zip(run(True), run(False)):
        assert got.tobytes() == want.tobytes()


def test_conv2d_epilogue_validation():
    spec = ConvSpec(2, 2, 1)
    x, w = Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones((2, 2, 1, 1)))
    with pytest.raises(ValueError, match="activation"):
        conv2d(x, w, spec=spec, act="tanh")


# ---------------------------------------------------------------------------
# the row-window kernel of dense k x 1 filters

ROW_WINDOW_GEOMETRIES = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in range(k + 1)]


@pytest.mark.parametrize("k,s,p", ROW_WINDOW_GEOMETRIES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_rows_matches_im2col_and_naive(k, s, p, dtype):
    # every map of 1-33 rows and columns the filter fits, against im2col, and
    # against the naive loops at two images of up to 7 x 7
    rng = np.random.default_rng(100 * k + 10 * s + p)
    spec = ConvSpec(3, 2, (k, 1), (s, 1), (p, 0))
    tol = dict(atol=1e-12, rtol=1e-12) if dtype == np.float64 else dict(atol=1e-5, rtol=1e-5)
    for n in (1, 2):
        for h in (1, 2, 3, 7, 33):
            if h + 2 * p < k:
                continue
            for w in (1, 2, 3, 7, 33):
                x = rnd(rng, n, 3, h, w).astype(dtype)
                wt = rnd(rng, *spec.weight_shape).astype(dtype)
                out, vjp = _conv_rows(x, wt, spec)
                gout = rnd(rng, *out.shape).astype(dtype)
                gx, gw = vjp(gout, True, True)
                assert out.flags.c_contiguous
                assert out.dtype == gx.dtype == gw.dtype == dtype
                assert gx.shape == x.shape and gw.shape == wt.shape
                assert vjp(gout, False, True)[0] is None and vjp(gout, True, False)[1] is None

                x64, w64, g64 = (a.astype(np.float64) for a in (x, wt, gout))
                ref, ref_vjp = _conv_im2col(x64, w64, spec)
                wants = [(ref, *ref_vjp(g64, True, True))]
                if n == 2 and h <= 7 and w <= 7:
                    wants.append((conv2d_naive(x64, w64, spec),
                                  *conv2d_naive_grads(x64, w64, spec, g64)))
                for want in wants:
                    for got, expect in zip((out, gx, gw), want):
                        np.testing.assert_allclose(got, expect, **tol)


def test_conv_rows_gradients():
    # finite differences of gx and gw, with the ReLU epilogue making the
    # upstream gradient differ per position
    rng = np.random.default_rng(12)
    for spec in (ConvSpec(3, 4, (3, 1), stride=(2, 1), padding=(1, 0)),
                 ConvSpec(2, 3, (5, 1), padding=(2, 0))):
        x = Tensor(rnd(rng, 2, spec.in_channels, 7, 4), requires_grad=True)
        w = Tensor(rnd(rng, *spec.weight_shape) * 0.5, requires_grad=True)
        assert tensor._conv_kernel(x, w, spec) is _conv_rows
        assert np.abs(conv2d(x, w, spec=spec).data).min() > 1e-3

        def loss():
            z = conv2d(x, w, spec=spec, act="relu")
            return softmax_cross_entropy(global_avg_pool(z), np.array([1, 2]))

        assert_grads(loss, [("x", x), ("w", w)])


def test_conv2d_composed_validation():
    x = Tensor(np.zeros((1, 2, 5, 5)))
    spec = ConvSpec(2, 4, 3, 2, 1, groups=2)
    col, row = Tensor(np.zeros((4, 1, 3, 1))), Tensor(np.zeros((4, 1, 1, 3)))
    assert conv2d_composed(x, col, row, spec=spec).shape == (1, 4, 3, 3)
    with pytest.raises(ValueError, match="do not compose"):
        conv2d_composed(x, row, col, spec=spec)
    with pytest.raises(ValueError, match="do not compose"):
        conv2d_composed(x, col, row, spec=ConvSpec(2, 4, 3, 2, 1, groups=1))
    with pytest.raises(ValueError, match="input channels"):
        conv2d_composed(Tensor(np.zeros((1, 3, 5, 5))), col, row, spec=spec)


def test_linear_and_pool_match_naive():
    rng = np.random.default_rng(3)
    x = rnd(rng, 4, 6)
    w = rnd(rng, 5, 6)
    b = rnd(rng, 5)
    counter = MAddCounter()
    np.testing.assert_allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data,
                               linear_naive(x, w, b, counter), atol=1e-12)
    assert counter.count == 4 * 6 * 5

    # computed as (w @ x.T).T: C-ordered and bitwise x @ w.T + b, for one
    # image (a matrix-vector product) and a batch
    for n in (1, 16):
        for dtype in (np.float32, np.float64):
            x, w = rnd(rng, n, 40).astype(dtype), rnd(rng, 24, 40).astype(dtype)
            b = rnd(rng, 24).astype(dtype)
            out = linear(Tensor(x), Tensor(w), Tensor(b)).data
            assert out.flags.c_contiguous and out.dtype == dtype
            np.testing.assert_array_equal(out, x @ w.T + b)

    fmap = rnd(rng, 2, 3, 4, 5)
    counter = MAddCounter()
    np.testing.assert_allclose(global_avg_pool(Tensor(fmap)).data,
                               global_avg_pool_naive(fmap, counter), atol=1e-12)
    assert counter.count == 2 * 3 * 4 * 5


# ---------------------------------------------------------------------------
# shift_max against a loop over shifted copies

def shift_max_oracle(x, a, groups):
    """Dynamic Shift-Max one shifted copy at a time. Returns the output, the
    stacked fusions (K, N, C, H, W) and the winner of each element, which
    np.argmax picks as the earliest maximum or the first NaN."""
    fus = shift_fusions(x, a, groups)
    win = np.argmax(fus, axis=0)
    return np.take_along_axis(fus, win[None], axis=0)[0], fus, win


def shift_max_oracle_grads(x, a, groups, g, win):
    """(dx, da) of the oracle for upstream gradient g routed by win."""
    jn, kn = a.shape[2:]
    s = x.shape[1] // groups
    gx, ga = np.zeros_like(x), np.zeros_like(a)
    for k in range(kn):
        gk = g * (win == k)
        for j in range(jn):
            ga[:, :, j, k] = (gk * np.roll(x, -j * s, axis=1)).sum(axis=(2, 3))
            gx += np.roll(a[:, :, j, k, None, None] * gk, j * s, axis=1)
    return gx, ga


@given(st.sampled_from([1, 3]), st.sampled_from([1, 2, 4]), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_shift_max_matches_oracle(n, groups, m, jn, kn, h, w, dtype, seed):
    # J > G wraps the shift past C at least once; maps from 1x1 to 6x6,
    # the smallest included, all run the batched matmul
    rng = np.random.default_rng(seed)
    c = groups * m
    x = Tensor(rnd(rng, n, c, h, w).astype(dtype), requires_grad=True)
    a = Tensor(rng.uniform(-1.0, 2.0, (n, c, jn, kn)).astype(dtype), requires_grad=True)
    out = shift_max(x, a, groups)
    assert out.dtype == dtype
    x64, a64 = x.data.astype(np.float64), a.data.astype(np.float64)
    want, fus, win = shift_max_oracle(x64, a64, groups)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(out.data, want, atol=tol, rtol=0)

    # no upstream gradient where two fusions are within rounding of each
    # other, so the winner is the same in both dtypes
    gout = rnd(rng, n, c, h, w)
    if kn > 1:
        top = np.sort(fus, axis=0)
        gout[top[-1] - top[-2] < 1e-4] = 0.0
    out._backward(gout.astype(dtype))
    gx, ga = shift_max_oracle_grads(x64, a64, groups, gout, win)
    np.testing.assert_allclose(x.grad, gx, atol=10 * tol, rtol=0)
    np.testing.assert_allclose(a.grad, ga, atol=10 * tol, rtol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shift_max_ties_route_to_earliest_fusion(dtype):
    # J = 1, K = 3: each fusion is one product, exact in both computations.
    # Columns of x: positive, negative, zero, negative zero. Coefficients of
    # channel 0 are equal (three-way tie everywhere); channel 1 ties fusions
    # 0 and 1 for x > 0; channel 2 ties 1 and 2 behind a loser; channel 3
    # ties 0 and 2 around fusion 1.
    x = np.tile(np.array([2.0, -1.0, 0.0, -0.0], dtype), (1, 4, 1, 1))
    a = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.5],
                  [0.5, 1.0, 1.0], [2.0, 1.0, 2.0]], dtype).reshape(1, 4, 1, 3)
    want, _, win = shift_max_oracle(x, a, 1)
    np.testing.assert_array_equal(win[0, :, 0], [[0, 0, 0, 0], [0, 2, 0, 0],
                                                 [1, 0, 0, 0], [0, 1, 0, 0]])
    xt, at = Tensor(x, requires_grad=True), Tensor(a, requires_grad=True)
    out = shift_max(xt, at, 1)
    np.testing.assert_array_equal(out.data, want)

    g = np.arange(1.0, 17.0, dtype=dtype).reshape(x.shape)
    out._backward(g)
    gx, ga = shift_max_oracle_grads(x, a, 1, g, win)
    np.testing.assert_array_equal(xt.grad, gx)
    np.testing.assert_array_equal(at.grad, ga)


def test_shift_max_first_wins_on_tie():
    # J = 1, K = 2: channel 0 ties at 2 and goes to fusion 0; channel 1 is
    # won by fusion 1 (7.5 > 5)
    x = Tensor(np.array([2.0, 5.0]).reshape(1, 2, 1, 1), requires_grad=True)
    a = Tensor(np.array([[1.0, 1.0], [1.0, 1.5]]).reshape(1, 2, 1, 2), requires_grad=True)
    out = shift_max(x, a, 1)
    np.testing.assert_array_equal(out.data.ravel(), [2.0, 7.5])
    out._backward(np.ones((1, 2, 1, 1)))
    np.testing.assert_array_equal(x.grad.ravel(), [1.0, 1.5])
    np.testing.assert_array_equal(a.grad.reshape(2, 2), [[2.0, 0.0], [0.0, 5.0]])


def test_shift_max_nan_routes_to_first_nan_fusion():
    # C = 4, G = 2: output i reads x[i] (j = 0) and x[(i + 2) % 4] (j = 1).
    x = Tensor(np.array([np.nan, 1.0, 2.0, 3.0]).reshape(1, 4, 1, 1), requires_grad=True)
    a = np.ones((1, 4, 2, 2))
    a[:, :, :, 1] = 0.5
    a[0, 3, :, 1] = 2.0
    at = Tensor(a, requires_grad=True)
    out = shift_max(x, at, 2)
    # outputs 0 and 2 read the NaN in both fusions: fusion 0 gets their
    # gradient; output 1 is won by fusion 0 (4 > 2), output 3 by fusion 1 (8 > 4)
    np.testing.assert_array_equal(out.data.ravel(), [np.nan, 4.0, np.nan, 8.0])
    out._backward(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
    # da[i, j, k] = g[i] * [k wins i] * x[(i + 2j) % 4]; 0 * NaN is NaN
    nan = np.nan
    np.testing.assert_array_equal(at.grad[0], [[[nan, nan], [2.0, 0.0]],
                                               [[2.0, 0.0], [6.0, 0.0]],
                                               [[6.0, 0.0], [nan, nan]],
                                               [[0.0, 12.0], [0.0, 4.0]]])
    # dx[c] sums a[i, j, win] * g[i] over the (i, j) that read channel c
    np.testing.assert_array_equal(x.grad.ravel(), [1.0 + 3.0, 2.0 + 8.0,
                                                   3.0 + 1.0, 8.0 + 2.0])

    # a NaN coefficient makes only fusion 1 of output 1 NaN: it wins there
    a[0, 1, 0, 1] = nan
    x = Tensor(np.arange(1.0, 5.0).reshape(1, 4, 1, 1), requires_grad=True)
    at = Tensor(a, requires_grad=True)
    out = shift_max(x, at, 2)
    assert np.isnan(out.data[0, 1, 0, 0])
    out._backward(np.full((1, 4, 1, 1), 2.0))
    np.testing.assert_array_equal(at.grad[0, 1], [[0.0, 2.0 * 2.0], [0.0, 2.0 * 4.0]])


def test_shift_max_single_fusion_is_a_copy():
    x = Tensor(np.array([1.0, -2.0]).reshape(1, 2, 1, 1))
    out = shift_max(x, Tensor(np.ones((1, 2, 1, 1))), 1)
    np.testing.assert_array_equal(out.data, x.data)
    assert not np.shares_memory(out.data, x.data)


# from one position up: the smallest maps of a training input (1x1 to 4x4)
# run the same batched matmul as the larger ones
ROUTE_MAPS = [(1, 1), (2, 2), (4, 4), (5, 5), (8, 8)]


def route_case(case, h, w, seed):
    """J = K = 2 inputs on an h x w map. Every value is a small multiple of
    1/2, so the batched matmul and the oracle compute the fusions and
    gradients exactly, and ties between fusions are common.

    tie: equal coefficient columns, so the fusions are equal everywhere;
    zeros: most of x is +0.0 or -0.0; nonfinite: NaN, inf and -inf in x
    and in the coefficients."""
    rng = np.random.default_rng(seed)
    n, c = 2, 8
    x = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], (n, c, h, w))
    a = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], (n, c, 2, 2))
    if case == "tie":
        a[..., 1] = a[..., 0]
    elif case == "zeros":
        zero = rng.random(x.shape) < 0.7
        x[zero] = rng.choice([0.0, -0.0], zero.sum())
    elif case == "nonfinite":
        special = [np.nan, np.inf, -np.inf]
        hit = rng.random(x.shape) < 0.15
        x[hit] = rng.choice(special, hit.sum())
        hit = rng.random(a.shape) < 0.1
        a[hit] = rng.choice(special, hit.sum())
    g = rng.choice([-2.0, -1.0, 1.0, 3.0], x.shape)
    return x, a, g


@pytest.mark.parametrize("case", ["random", "tie", "zeros", "nonfinite"])
@pytest.mark.parametrize("hw", ROUTE_MAPS)
def test_shift_max_routes_match_oracle(hw, case, monkeypatch):
    x, a, g = route_case(case, *hw, seed=hw[0] * 10 + len(case))
    tape = tensor.Tape()
    monkeypatch.setattr(tensor, "_tape", tape)
    xt, at = Tensor(x, requires_grad=True), Tensor(a, requires_grad=True)
    with np.errstate(invalid="ignore"):
        out = shift_max(xt, at, 2)
        out._backward(g)
        want, _, win = shift_max_oracle(x, a, 2)
        gx, ga = shift_max_oracle_grads(x, a, 2, g, win)
    # every map size records the one op under its own name
    assert [op[0] for op in tape.ops] == ["shift_max"]
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(xt.grad, gx)
    np.testing.assert_array_equal(at.grad, ga)
    if case == "tie":
        assert (win == 0).all()
        np.testing.assert_array_equal(at.grad[..., 1], 0.0)


def test_shift_max_validation():
    x = Tensor(np.zeros((1, 4, 2, 2)))
    with pytest.raises(ValueError, match="groups"):
        shift_max(x, Tensor(np.zeros((1, 4, 1, 1))), 3)
    for shape in [(1, 3, 1, 1), (2, 4, 1, 1), (1, 4, 1)]:
        with pytest.raises(ValueError, match="coefficients"):
            shift_max(x, Tensor(np.zeros(shape)), 2)


# ---------------------------------------------------------------------------
# elementwise and structural op semantics

def test_permute_channels_semantics():
    rng = np.random.default_rng(0)
    x = rnd(rng, 2, 6, 2, 2)
    perm = rng.permutation(6)
    out = permute_channels(Tensor(x), perm).data
    np.testing.assert_array_equal(out, x[:, perm])
    # C-ordered at N > 1, so a convolution reads it without a copy
    assert out.flags.c_contiguous


def test_first_gradient_is_not_shared_between_parents():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = add(a, b)
    g = np.array([1.0, 2.0, 3.0])
    out._backward(g)
    assert not np.shares_memory(a.grad, b.grad)
    assert not (np.shares_memory(a.grad, g) or np.shares_memory(b.grad, g))
    a.grad += 10.0
    np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])

    x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    add(x, x)._backward(np.ones(2))
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_owned_gradient_is_kept_only_when_it_fits():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.ones((2, 3))
    _accumulate(t, g, owned=True)
    assert t.grad is g
    # a view that is not C-ordered, or another dtype, is still copied
    for t, g in ((Tensor(np.zeros((3, 2)), requires_grad=True), np.ones((2, 3)).T),
                 (Tensor(np.zeros(3, np.float32), requires_grad=True), np.ones(3))):
        _accumulate(t, g, owned=True)
        assert not np.shares_memory(t.grad, g)
        assert t.grad.flags.c_contiguous and t.grad.dtype == t.data.dtype


def test_coefficient_head_broadcast_gradient_is_an_array_of_its_own():
    rng = np.random.default_rng(3)
    layer = DyShiftMax(8, 2, rng=rng)
    x = Tensor(rnd(rng, 2, 8, 3, 3), requires_grad=True)
    a = coefficient_head(x, layer.fc1_w, layer.fc1_b, layer.fc2_w, layer.fc2_b,
                         layer.coeff_scale, layer.init_bias)
    a._backward(rnd(rng, *a.shape))
    assert x.grad.flags.writeable and x.grad.flags.c_contiguous
    assert x.grad.shape == x.shape


def test_dyshiftmax_input_gets_both_gradients():
    # x reaches the output through the coefficient head and through
    # shift_max; its gradient is the sum of the two paths
    rng = np.random.default_rng(4)
    layer = DyShiftMax(8, 2, rng=rng)
    layer.fc2_w.data[:] = 0.5 * rnd(rng, *layer.fc2_w.shape)
    xd, labels = rnd(rng, 2, 8, 3, 3), np.array([1, 6])

    def loss_of(out):
        return softmax_cross_entropy(global_avg_pool(out), labels)

    x = Tensor(xd, requires_grad=True)
    a = layer.coefficients(x)
    loss_of(shift_max(x, a, 2)).backward()

    # backward releases a, so the direct path's coefficients are a leaf
    # whose gradient is the one a received
    direct = Tensor(xd, requires_grad=True)
    coeffs = Tensor(a.data, requires_grad=True)
    loss_of(shift_max(direct, coeffs, 2)).backward()
    via_head = Tensor(xd, requires_grad=True)
    layer.coefficients(via_head)._backward(coeffs.grad)
    assert np.abs(direct.grad).min() > 0 and np.abs(via_head.grad).min() > 0
    np.testing.assert_array_equal(x.grad, direct.grad + via_head.grad)


def test_training_backward_leaves_parameter_gradients_unshared():
    net = build_model("M0", dtype=np.float64, seed=0)
    x = np.random.default_rng(5).standard_normal((2, 3, 64, 64))
    logits = net(x, Context(training=True, rng=np.random.default_rng(0)))
    softmax_cross_entropy(logits, np.array([0, 1])).backward()
    grads = [(name, p.grad) for name, p in net.named_params()]
    assert all(g is not None for _, g in grads)
    for i, (name, g) in enumerate(grads):
        for other, h in grads[i + 1:]:
            assert not np.shares_memory(g, h), (name, other)


def _tiny_training_loss(net, rng):
    logits = net(rng.standard_normal((4, 3, 32, 32)), Context(training=True, rng=rng))
    return logits, softmax_cross_entropy(logits, np.arange(4) % 2)


def test_backward_releases_the_graph_as_it_runs():
    # a training loop holds loss and logits until the next forward returns:
    # through them, an unreleased graph keeps every saved activation and
    # every intermediate gradient alive on top of that forward
    rng = np.random.default_rng(11)
    net = build_model("tiny", dtype=np.float64, seed=0)
    param_bytes = sum(p.data.nbytes for _, p in net.named_params())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        logits, loss = _tiny_training_loss(net, rng)
        loss.backward()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= 2 * param_bytes + 64 * 1024, (after - before, param_bytes)
    assert all(p.grad is not None for _, p in net.named_params())
    assert loss.grad is logits.grad is None and not logits.requires_grad

    # a diamond: h is read by relu and by add, and gets both contributions
    # before it is released; x is positive, so relu passes g unchanged
    x = Tensor(rng.uniform(0.5, 1.0, (2, 3)), requires_grad=True)
    labels = np.array([2, 0])
    h = add(x, x)
    loss = softmax_cross_entropy(add(relu(h), h), labels)
    loss.backward()
    g = softmax(4.0 * x.data)
    g[np.arange(2), labels] -= 1.0
    np.testing.assert_allclose(x.grad, 4.0 * g / 2, rtol=1e-13, atol=0)
    assert h.grad is None and h._parents == () and h._backward is None


def test_second_backward_raises_and_keeps_gradients():
    # a consumed graph is a constant: backward() again must not add stale
    # intermediate gradients into the parameters
    net = build_model("tiny", dtype=np.float64, seed=0)
    _, loss = _tiny_training_loss(net, np.random.default_rng(12))
    loss.backward()
    grads = [p.grad.copy() for _, p in net.named_params()]
    with pytest.raises(ValueError, match="requires grad"):
        loss.backward()
    for (_, p), g in zip(net.named_params(), grads):
        np.testing.assert_array_equal(p.grad, g)
    with pytest.raises(ValueError, match="requires grad"):
        Tensor(np.ones(())).backward()


def test_softmax_rows_normalize():
    rng = np.random.default_rng(1)
    p = softmax(rnd(rng, 5, 9))
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)
    assert (p >= 0).all()


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(2)
    logits = rnd(rng, 4, 3)
    labels = np.array([0, 2, 1, 1])
    p = softmax(logits)
    want = -np.log(p[np.arange(4), labels]).mean()
    got = softmax_cross_entropy(Tensor(logits), labels)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_dropout_scales_survivors():
    x = Tensor(np.ones((200, 50)))
    out = dropout(x, 0.3, np.random.default_rng(0))
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.7)
    assert 0.6 < kept.mean() < 0.8
    with pytest.raises(ValueError):
        dropout(x, 1.0, np.random.default_rng(0))


def unit_conv(c):
    """A unit per-channel 1x1 convolution: conv2d on it with a norm is the
    norm alone."""
    return Tensor(np.ones((c, 1, 1, 1))), ConvSpec(c, c, 1, groups=c)


def test_batch_norm_normalizes_and_inference_uses_running_stats():
    rng = np.random.default_rng(4)
    x = rnd(rng, 8, 3, 4, 4) * 3.0 + 1.0
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    unit, spec = unit_conv(3)
    running = (np.zeros(3), np.ones(3))
    bn = norm_state(gamma, beta, *running)
    out = conv2d(Tensor(x), unit, spec=spec, norm=bn, training=True).data
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
    # every norm's momentum is 0.1: r <- 0.9 * r + 0.1 * stat
    np.testing.assert_allclose(running[0], 0.1 * mean, atol=1e-12)
    np.testing.assert_allclose(running[1], 0.9 + 0.1 * var, atol=1e-12)

    # with the batch statistics as running statistics, eval normalizes the
    # same way
    running[0][...], running[1][...] = mean, var
    inf = conv2d(Tensor(x), unit, spec=spec, norm=bn).data
    np.testing.assert_allclose(inf, out, atol=1e-10)


def batch_norm_oracle(x, gamma, beta, g, eps):
    """Output and (dx, dgamma, dbeta) of the textbook formula, the gradient
    by the chain rule through var and mean (Ioffe & Szegedy, Alg. 1)."""
    axes = (0, 2, 3)
    m = x.size // x.shape[1]
    mean, var = np.mean(x, axis=axes), np.var(x, axis=axes)

    def c(v):
        return v[None, :, None, None]

    centred = x - c(mean)
    xhat = centred / np.sqrt(c(var) + eps)
    dxhat = g * c(gamma)
    dvar = (dxhat * centred).sum(axis=axes) * -0.5 * (var + eps) ** -1.5
    dmean = (-dxhat / np.sqrt(c(var) + eps)).sum(axis=axes) \
        + dvar * (-2.0 * centred).sum(axis=axes) / m
    dx = dxhat / np.sqrt(c(var) + eps) + c(dvar) * 2.0 * centred / m + c(dmean) / m
    return xhat * c(gamma) + c(beta), dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


@given(st.one_of(pointwise_specs(), depthwise_specs(), dense_specs()), st.integers(1, 3),
       st.integers(5, 7), st.integers(5, 7), st.sampled_from([np.float32, np.float64]),
       st.integers(0, 10_000))
# the banded kernel at N > 1, and the row filter whose einsum output the
# kernel transposes back by a copy
@example(ConvSpec(2, 4, (3, 1), padding=(1, 0), groups=2), 2, 5, 6, np.float64, 0)
@example(ConvSpec(2, 2, (1, 3), padding=(0, 1), groups=2), 1, 5, 6, np.float64, 0)
@settings(max_examples=150, deadline=None)
def test_batch_norm_matches_formula(spec, n, h, w, dtype, seed):
    """Training conv2d with a norm on every conv kernel against the naive
    convolution and the textbook norm, through the chain to x and w."""
    rng = np.random.default_rng(seed)
    c = spec.out_channels
    wd = rnd(rng, *spec.weight_shape)
    wd[rng.integers(c)] = 0.0                             # a channel with var = 0
    x = Tensor(rnd(rng, n, spec.in_channels, h, w).astype(dtype), requires_grad=True)
    wt = Tensor(wd.astype(dtype), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 2.0, c).astype(dtype), requires_grad=True)
    beta = Tensor(rnd(rng, c).astype(dtype), requires_grad=True)
    mean0, var0 = rnd(rng, c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
    running = (mean0.copy(), var0.copy())

    x64, w64 = x.data.astype(np.float64), wt.data.astype(np.float64)
    y64 = conv2d_naive(x64, w64, spec)
    var64 = y64.var(axis=(0, 2, 3))
    # float32 rounding of the convolution is magnified by 1/std, and on a
    # channel of near-zero variance by up to 1/sqrt(eps)
    assume(dtype == np.float64 or ((var64 == 0) | (var64 > 1e-2)).all())

    out = conv2d(x, wt, spec=spec, norm=norm_state(gamma, beta, *running), training=True)
    assert out.dtype == dtype and running[0].dtype == dtype
    # xhat is made in the kernel's own output buffer, not in x's
    np.testing.assert_array_equal(x.data, x64.astype(dtype))
    assert out.data.flags.c_contiguous

    gout = rnd(rng, *out.shape)
    want, gy, ggamma, gbeta = batch_norm_oracle(
        y64, gamma.data.astype(np.float64), beta.data.astype(np.float64), gout, 1e-5)
    gx, gw = conv2d_naive_grads(x64, w64, spec, gy)
    tol = 1e-10 if dtype == np.float64 else 1e-3

    def close(got, want, scale=None):
        scale = np.abs(want).max() if scale is None else scale
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * (scale + 1.0))

    close(out.data, want)
    # every norm's momentum is 0.1
    close(running[0], 0.9 * mean0 + 0.1 * y64.mean(axis=(0, 2, 3)))
    close(running[1], 0.9 * var0 + 0.1 * var64)
    out._backward(gout.astype(dtype))
    assert x.grad.dtype == wt.grad.dtype == dtype
    close(x.grad, gx)
    close(wt.grad, gw)
    close(gamma.grad, ggamma, np.abs(gout).sum(axis=(0, 2, 3)).max())
    close(beta.grad, gbeta)


def test_no_grad_blocks_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = relu(x)
    assert not out.requires_grad
    out2 = relu(x)
    assert out2.requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        relu(x).backward()


# ---------------------------------------------------------------------------
# gradients

def test_conv2d_gradients():
    rng = np.random.default_rng(5)
    spec = ConvSpec(4, 6, 3, stride=(2, 1), padding=(1, 1), groups=2)
    x = Tensor(rnd(rng, 2, 4, 5, 5), requires_grad=True)
    w = Tensor(rnd(rng, *spec.weight_shape) * 0.3, requires_grad=True)

    # relu makes the upstream gradient differ per position; no output sits
    # near its kink
    assert np.abs(conv2d(x, w, spec=spec).data).min() > 1e-3

    def loss():
        out = conv2d(x, w, spec=spec)
        return softmax_cross_entropy(global_avg_pool(relu(out)), np.array([1, 3]))

    assert_grads(loss, [("x", x), ("w", w)])


def test_linear_pool_relu_gradients():
    rng = np.random.default_rng(6)
    x = Tensor(away_from_zero(rnd(rng, 3, 4, 2, 2)), requires_grad=True)
    w = Tensor(rnd(rng, 5, 4), requires_grad=True)
    b = Tensor(rnd(rng, 5), requires_grad=True)

    def loss():
        z = relu(linear(global_avg_pool(x), w, b))
        return softmax_cross_entropy(z, np.array([0, 2, 4]))

    assert_grads(loss, [("x", x), ("w", w), ("b", b)])


def test_elementwise_gradients():
    rng = np.random.default_rng(7)
    a = Tensor(rnd(rng, 2, 3), requires_grad=True)
    b = Tensor(rnd(rng, 2, 3), requires_grad=True)

    def loss():
        # a reaches the sum twice, so its gradients accumulate
        return softmax_cross_entropy(add(add(a, b), a), np.array([0, 1]))

    assert_grads(loss, [("a", a), ("b", b)])


def test_shift_max_gradients():
    rng = np.random.default_rng(8)
    x = Tensor(rnd(rng, 2, 4, 3, 3), requires_grad=True)
    a = Tensor(rng.uniform(-1.0, 2.0, (2, 4, 2, 2)), requires_grad=True)
    fus = shift_max_oracle(x.data, a.data, 2)[1]
    assert np.abs(fus[0] - fus[1]).min() > 1e-4

    def loss():
        z = permute_channels(shift_max(x, a, 2), np.array([2, 0, 3, 1]))
        return softmax_cross_entropy(global_avg_pool(z), np.array([0, 3]))

    assert_grads(loss, [("x", x), ("a", a)])


def test_batch_norm_gradients():
    rng = np.random.default_rng(10)
    x = Tensor(rnd(rng, 4, 3, 2, 2), requires_grad=True)
    gamma = Tensor(1.0 + 0.1 * rnd(rng, 3), requires_grad=True)
    beta = Tensor(0.1 * rnd(rng, 3), requires_grad=True)
    unit, spec = unit_conv(3)
    running = (np.zeros(3), np.ones(3))

    def loss():
        z = global_avg_pool(conv2d(x, unit, spec=spec,
                                   norm=norm_state(gamma, beta, *running), training=True))
        return softmax_cross_entropy(z, np.array([0, 1, 2, 0]))

    assert_grads(loss, [("x", x), ("gamma", gamma), ("beta", beta)],
                 rtol=1e-4, atol=1e-7)


def test_batch_norm_inference_gradients():
    # conv2d with a folded norm on the pointwise, depthwise and row-window kernels
    rng = np.random.default_rng(11)
    for spec in (ConvSpec(4, 6, 1, groups=2),
                 ConvSpec(3, 6, (3, 1), stride=(2, 1), padding=(1, 0), groups=3),
                 ConvSpec(3, 4, (3, 1), stride=(2, 1), padding=(1, 0))):
        c = spec.out_channels
        x = Tensor(rnd(rng, 2, spec.in_channels, 4, 3), requires_grad=True)
        w = Tensor(rnd(rng, *spec.weight_shape) * 0.5, requires_grad=True)
        gamma = Tensor(1.0 + 0.1 * rnd(rng, c), requires_grad=True)
        beta = Tensor(0.1 * rnd(rng, c), requires_grad=True)
        mean, var = rnd(rng, c) * 0.1, np.abs(rnd(rng, c)) + 0.5
        bn = norm_state(gamma, beta, mean, var)
        out = conv2d(x, w, spec=spec, norm=bn).data
        assert np.abs(out).min() > 1e-3

        def loss():
            z = relu(conv2d(x, w, spec=spec, norm=bn))
            return softmax_cross_entropy(global_avg_pool(z), np.array([1, 2]))

        assert_grads(loss, [("x", x), ("w", w), ("gamma", gamma), ("beta", beta)])


def test_dropout_gradient_with_fixed_mask():
    x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4) + 0.05, requires_grad=True)

    def loss():
        z = dropout(x, 0.25, np.random.default_rng(42))
        return softmax_cross_entropy(z, np.array([0, 1, 2]))

    assert_grads(loss, [("x", x)])

"""Kernel correctness against the naive reference loops, and gradient
checks for every differentiable operation."""

import numpy as np
import pytest
from helpers import assert_grads, away_from_zero
from hypothesis import given, settings
from hypothesis import strategies as st

from micronet.dyshiftmax import circular_shift
from micronet.reference import (MAddCounter, conv2d_naive,
                                global_avg_pool_naive, linear_naive)
from micronet.tensor import (ConvSpec, Tensor, _conv_im2col, add, add_scalar,
                             batch_norm, batch_norm_inference, conv2d, dropout,
                             global_avg_pool, linear, mul, no_grad,
                             permute_channels, relu, reshape, scale, shift_max,
                             sigmoid, softmax, softmax_cross_entropy)


def rnd(rng, *shape):
    return rng.standard_normal(shape)


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
    assert spec.madds(8, 5) == 4 * 5 * 12 * spec.fan_in()


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
    b = rnd(rng, cout)
    counter = MAddCounter()
    want = conv2d_naive(x, w, b, spec, counter)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), spec).data
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
    assert counter.count == 2 * spec.madds(6, 7)


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
    b = Tensor(rnd(rng, spec.out_channels), requires_grad=True)
    out = conv2d(x, wt, b, spec)
    np.testing.assert_allclose(out.data, conv2d_naive(x.data, wt.data, b.data, spec),
                               atol=1e-12, rtol=0)

    ref, vjp = _conv_im2col(x.data, wt.data, spec)
    np.testing.assert_allclose(out.data, ref + b.data[None, :, None, None],
                               atol=1e-12, rtol=0)
    gout = rnd(rng, *out.shape)
    out._backward(gout)
    gx, gw = vjp(gout, True, True)
    np.testing.assert_allclose(x.grad, gx, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(wt.grad, gw, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(b.grad, gout.sum(axis=(0, 2, 3)), atol=1e-12, rtol=1e-12)


def test_linear_and_pool_match_naive():
    rng = np.random.default_rng(3)
    x = rnd(rng, 4, 6)
    w = rnd(rng, 5, 6)
    b = rnd(rng, 5)
    counter = MAddCounter()
    np.testing.assert_allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data,
                               linear_naive(x, w, b, counter), atol=1e-12)
    assert counter.count == 4 * 6 * 5

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
    jn, kn = a.shape[2:]
    fus = np.stack([sum(a[:, :, j, k, None, None] * circular_shift(x, j, groups)
                        for j in range(jn)) for k in range(kn)])
    win = np.argmax(fus, axis=0)
    return np.take_along_axis(fus, win[None], axis=0)[0], fus, win


def shift_max_oracle_grads(x, a, groups, g, win):
    """(dx, da) of the oracle for upstream gradient g routed by win."""
    jn, kn = a.shape[2:]
    gx, ga = np.zeros_like(x), np.zeros_like(a)
    for k in range(kn):
        gk = g * (win == k)
        for j in range(jn):
            ga[:, :, j, k] = (gk * circular_shift(x, j, groups)).sum(axis=(2, 3))
            gx += circular_shift(a[:, :, j, k, None, None] * gk, -j, groups)
    return gx, ga


@given(st.sampled_from([1, 3]), st.sampled_from([1, 2, 4]), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_shift_max_matches_oracle(n, groups, m, jn, kn, h, w, dtype, seed):
    # J > G wraps the shift past C at least once
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


def test_first_gradient_is_not_shared_between_parents():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = add(a, b)
    g = np.array([1.0, 2.0, 3.0])
    out._backward(g)
    a.grad += 10.0
    np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])

    x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    add(x, x)._backward(np.ones(2))
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_sigmoid_stable_extremes():
    with np.errstate(all="raise"):
        for dtype in (np.float32, np.float64):
            out = sigmoid(Tensor(np.array([-1000.0, 1000.0], dtype))).data
            np.testing.assert_array_equal(out, [0.0, 1.0])
            assert out.dtype == dtype
        d = np.linspace(-30.0, 30.0, 601)
        out = sigmoid(Tensor(d)).data
    np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-d)), atol=1e-15, rtol=0)
    assert out[300] == 0.5


def test_softmax_rows_normalize():
    rng = np.random.default_rng(1)
    p = softmax(rnd(rng, 5, 9), axis=1)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)
    assert (p >= 0).all()


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(2)
    logits = rnd(rng, 4, 3)
    labels = np.array([0, 2, 1, 1])
    p = softmax(logits, axis=1)
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


def test_batch_norm_normalizes_and_inference_uses_running_stats():
    rng = np.random.default_rng(4)
    x = rnd(rng, 8, 3, 4, 4) * 3.0 + 1.0
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    out = batch_norm(Tensor(x), gamma, beta).data
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inf = batch_norm_inference(Tensor(x), gamma, beta, mean, var).data
    np.testing.assert_allclose(inf, out, atol=1e-10)


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
    b = Tensor(rnd(rng, 6) * 0.1, requires_grad=True)

    def loss():
        out = conv2d(x, w, b, spec)
        return softmax_cross_entropy(reshape(global_avg_pool(
            mul(out, out)), (2, 6)), np.array([1, 3]))

    assert_grads(loss, [("x", x), ("w", w), ("b", b)])


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
        z = add(mul(a, b), scale(sigmoid(a), 0.7))
        z = add_scalar(z, 0.25)
        return softmax_cross_entropy(z, np.array([0, 1]))

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

    def loss():
        z = global_avg_pool(batch_norm(x, gamma, beta))
        return softmax_cross_entropy(z, np.array([0, 1, 2, 0]))

    assert_grads(loss, [("x", x), ("gamma", gamma), ("beta", beta)],
                 rtol=1e-4, atol=1e-7)


def test_batch_norm_inference_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rnd(rng, 2, 3, 2, 2), requires_grad=True)
    gamma = Tensor(1.0 + 0.1 * rnd(rng, 3), requires_grad=True)
    beta = Tensor(0.1 * rnd(rng, 3), requires_grad=True)
    mean, var = rnd(rng, 3) * 0.1, np.abs(rnd(rng, 3)) + 0.5

    def loss():
        z = global_avg_pool(batch_norm_inference(x, gamma, beta, mean, var))
        return softmax_cross_entropy(z, np.array([1, 2]))

    assert_grads(loss, [("x", x), ("gamma", gamma), ("beta", beta)])


def test_dropout_gradient_with_fixed_mask():
    x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4) + 0.05, requires_grad=True)

    def loss():
        z = dropout(x, 0.25, np.random.default_rng(42))
        return softmax_cross_entropy(z, np.array([0, 1, 2]))

    assert_grads(loss, [("x", x)])

"""Kernel correctness against the naive reference loops, and gradient
checks for every differentiable operation."""

import numpy as np
import pytest
from helpers import assert_grads, away_from_zero
from hypothesis import given, settings
from hypothesis import strategies as st

from micronet.reference import (MAddCounter, conv2d_naive,
                                global_avg_pool_naive, linear_naive)
from micronet.tensor import (ConvSpec, Tensor, _conv_im2col, add, add_scalar,
                             batch_norm, batch_norm_inference, channel_scale, conv2d,
                             dropout, global_avg_pool, linear, mul, no_grad,
                             permute_channels, relu, reshape, roll_channels,
                             scale, sigmoid, softmax, softmax_cross_entropy,
                             stack_max, take_index)


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
# elementwise and structural op semantics

def test_roll_channels_reads_forward():
    x = np.arange(8, dtype=float).reshape(1, 8, 1, 1)
    out = roll_channels(Tensor(x), 3).data[0, :, 0, 0]
    np.testing.assert_array_equal(out, [(i + 3) % 8 for i in range(8)])


def test_permute_channels_semantics():
    rng = np.random.default_rng(0)
    x = rnd(rng, 2, 6, 2, 2)
    perm = rng.permutation(6)
    out = permute_channels(Tensor(x), perm).data
    np.testing.assert_array_equal(out, x[:, perm])


def test_stack_max_first_wins_on_tie():
    a = Tensor(np.array([[1.0, 5.0]]), requires_grad=True)
    b = Tensor(np.array([[1.0, 7.0]]), requires_grad=True)
    out = stack_max([a, b])
    np.testing.assert_array_equal(out.data, [[1.0, 7.0]])
    scale(out, 1.0)  # keep graph alive
    s = add(take_index(out, (0, 0)), take_index(out, (0, 1)))
    s.backward()
    np.testing.assert_array_equal(a.grad, [[1.0, 0.0]])
    np.testing.assert_array_equal(b.grad, [[0.0, 1.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stack_max_ties_match_argmax_bitwise(dtype):
    z = -0.0
    # columns: a=b tie, b=c tie, three-way tie, -0 vs 0, three-way signed
    # zeros, -0 vs 0 behind a loser, strict winner last
    a = np.array([1.0, 0.0, 3.0, z, 0.0, -1.0, 1.0], dtype)
    b = np.array([1.0, 2.0, 3.0, 0.0, z, z, 2.0], dtype)
    c = np.array([0.0, 2.0, 3.0, -1.0, 0.0, 0.0, 3.0], dtype)
    parts = [Tensor(v, requires_grad=True) for v in (a, b, c)]
    out = stack_max(parts)

    stacked = np.stack([a, b, c])
    idx = np.argmax(stacked, axis=0)
    want = np.take_along_axis(stacked, idx[None], axis=0)[0]
    assert out.data.dtype == want.dtype
    assert out.data.tobytes() == want.tobytes()
    np.testing.assert_array_equal(idx, [0, 1, 0, 0, 0, 1, 2])

    g = np.arange(1.0, 8.0, dtype=dtype)
    out._backward(g)
    for k, p in enumerate(parts):
        np.testing.assert_array_equal(p.grad, g * (idx == k))


def test_stack_max_single_part_is_a_copy():
    a = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    out = stack_max([a])
    np.testing.assert_array_equal(out.data, a.data)
    assert not np.shares_memory(out.data, a.data)


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


def test_take_index_duplicate_scatter():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    idx = (np.array([0, 0, 2]),)
    out = take_index(x, idx)
    np.testing.assert_array_equal(out.data, [1.0, 1.0, 3.0])
    total = add(add(take_index(out, (0,)), take_index(out, (1,))),
                take_index(out, (2,)))
    total.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])


def test_sigmoid_stable_extremes():
    x = Tensor(np.array([-800.0, 0.0, 800.0]))
    out = sigmoid(x).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


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


def test_channel_scale_and_shift_gradients():
    rng = np.random.default_rng(8)
    x = Tensor(rnd(rng, 2, 4, 3, 3), requires_grad=True)
    s = Tensor(rnd(rng, 2, 4), requires_grad=True)

    def loss():
        z = channel_scale(roll_channels(x, 1), s)
        z = permute_channels(z, np.array([2, 0, 3, 1]))
        return softmax_cross_entropy(global_avg_pool(z), np.array([0, 3]))

    assert_grads(loss, [("x", x), ("s", s)])


def test_stack_max_gradients_tie_free():
    rng = np.random.default_rng(9)
    a = Tensor(rnd(rng, 2, 5), requires_grad=True)
    b = Tensor(away_from_zero(rnd(rng, 2, 5), 0.5), requires_grad=True)

    def loss():
        return softmax_cross_entropy(stack_max([a, add_scalar(b, 0.01)]),
                                     np.array([1, 2]))

    gap = np.abs(a.data - (b.data + 0.01))
    assert gap.min() > 1e-4
    assert_grads(loss, [("a", a), ("b", b)])


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

"""Dynamic shift-max: reference equivalence, init behavior, coefficient
bounds, cost accounting and gradients."""

import numpy as np
import pytest
from helpers import assert_grads, fusion_margin, traced_madds
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (MAddCounter, coeff_bounds, reference_eval, shift_fusions,
                       sigmoid_coefficients)

from micronet.dyshiftmax import DyShiftMax
from micronet.tensor import (Tensor, coefficient_head, global_avg_pool, shift_max,
                             softmax_cross_entropy)


def make_layer(channels, groups, j, k, seed, spread=0.5):
    """Layer with non-trivial coefficients: the final head is zero at
    init, so tests that need input-dependent behavior perturb it."""
    rng = np.random.default_rng(seed)
    layer = DyShiftMax(channels, groups, num_shifts=j, num_fusions=k, rng=rng)
    layer.fc2_w.data[:] = spread * rng.standard_normal(layer.fc2_w.shape)
    layer.fc2_b.data[:] = spread * rng.standard_normal(layer.fc2_b.shape)
    return layer


def test_circular_shift_semantics():
    # all weight on shift j = 1: output channel i reads input (i + C/G) mod C
    x = np.arange(6, dtype=float).reshape(1, 6, 1, 1)
    a = np.zeros((1, 6, 2, 1))
    a[:, :, 1, 0] = 1.0
    for out in (shift_max(Tensor(x), Tensor(a), 3).data, shift_fusions(x, a, 3)[0]):
        np.testing.assert_array_equal(out[0, :, 0, 0], [2, 3, 4, 5, 0, 1])
    with pytest.raises(ValueError):
        shift_max(Tensor(x), Tensor(a), 4)


def test_identity_at_init_single_shift():
    layer = DyShiftMax(8, 2, num_shifts=1, num_fusions=1,
                       rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((3, 8, 4, 4))
    np.testing.assert_allclose(layer(Tensor(x)).data, x, atol=1e-12)


def test_relu_like_at_init_default_shape():
    layer = DyShiftMax(8, 2, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((3, 8, 4, 4))
    np.testing.assert_allclose(layer(Tensor(x)).data, np.maximum(x, 0),
                               atol=1e-12)


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_matches_reference_random_instances(seed):
    rng = np.random.default_rng(seed)
    groups = int(rng.choice([1, 2, 4]))
    channels = groups * int(rng.integers(1, 5))
    j = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    layer = make_layer(channels, groups, j, k, seed)
    x = rng.standard_normal((2, channels, 3, 3))
    got = layer(Tensor(x)).data
    want = reference_eval(layer, x)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_reference_counter_matches_cost_model():
    layer = make_layer(12, 4, 2, 2, seed=0)
    x = np.random.default_rng(0).standard_normal((3, 12, 5, 4))
    counter = MAddCounter()
    reference_eval(layer, x, counter)
    assert counter.count == 3 * traced_madds(layer, x)


def test_hidden_width_floor():
    assert DyShiftMax(64, 2, rng=np.random.default_rng(0)).hidden == 8
    assert DyShiftMax(256, 2, rng=np.random.default_rng(0)).hidden == 16
    assert DyShiftMax(16, 2, reduction=4, min_hidden=1,
                      rng=np.random.default_rng(0)).hidden == 4


def test_madds_identity_configuration():
    # J = K = 1 with a one-unit head: pool HWC + two C-wide products +
    # one multiply per element = 2*H*W*C + 2*C
    c, h, w = 16, 6, 6
    layer = DyShiftMax(c, 1, num_shifts=1, num_fusions=1, reduction=c,
                       min_hidden=1, rng=np.random.default_rng(0))
    assert layer.hidden == 1
    assert traced_madds(layer, np.zeros((1, c, h, w))) == 2 * h * w * c + 2 * c


def test_coefficients_stay_in_bounds():
    layer = make_layer(10, 2, 2, 3, seed=3, spread=5.0)
    lo, hi = coeff_bounds(layer)
    x = 10.0 * np.random.default_rng(4).standard_normal((8, 10, 3, 3))
    a = layer.coefficients(Tensor(x)).data
    assert a.shape == (8, 10, 2, 3)
    assert (a >= lo - 1e-12).all() and (a <= hi + 1e-12).all()
    assert lo == 0.0 - 1.0 and hi == 1.0 + 1.0


@given(st.integers(0, 500), st.sampled_from([0.25, 1.0, 3.0]), st.sampled_from([3, 16]))
@settings(max_examples=60, deadline=None)
def test_coefficient_head_matches_sigmoid_formula(seed, coeff_scale, batch):
    rng = np.random.default_rng(seed)
    groups = int(rng.choice([1, 2, 4]))
    channels = groups * int(rng.integers(1, 5))
    layer = make_layer(channels, groups, int(rng.integers(1, 4)),
                       int(rng.integers(1, 4)), seed, spread=2.0)
    layer.coeff_scale = coeff_scale
    x = 3.0 * rng.standard_normal((batch, channels, 4, 3))
    a = layer.coefficients(Tensor(x)).data
    # the rounding of raw = hid @ fc2_w.T + fc2_b scales with the sum of
    # its terms' magnitudes, and a's slope in raw is at most coeff_scale / 2
    hid = np.maximum(x.mean(axis=(2, 3)) @ layer.fc1_w.data.T + layer.fc1_b.data, 0)
    terms = hid @ np.abs(layer.fc2_w.data).T + np.abs(layer.fc2_b.data) + 1
    tol = 8 * np.finfo(x.dtype).eps * coeff_scale * terms.reshape(a.shape)
    err = np.abs(a - sigmoid_coefficients(layer, x))
    assert (err <= tol).all(), (err / tol).max()


def test_coefficient_head_gradients():
    layer = make_layer(6, 2, 2, 3, seed=9)
    layer.coeff_scale = 0.8
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((3, 6, 3, 2)), requires_grad=True)
    pre = x.data.mean(axis=(2, 3)) @ layer.fc1_w.data.T + layer.fc1_b.data
    assert np.abs(pre).min() > 1e-3                  # no hidden unit at the relu kink

    def loss():
        a = coefficient_head(x, layer.fc1_w, layer.fc1_b, layer.fc2_w, layer.fc2_b,
                             layer.coeff_scale, layer.init_bias)
        # the mean over (J, K) gives one logit per channel
        return softmax_cross_entropy(global_avg_pool(a), np.array([0, 5, 3]))

    assert_grads(loss, [("x", x)] + list(layer.named_params()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_coefficient_head_saturates_exactly(dtype):
    # scale * tanh(raw / 2) + bias: exactly bias at zero weights, exactly
    # bias +- scale at raw = +-1000, and no floating-point error on the way
    layer = DyShiftMax(4, 2, num_shifts=2, num_fusions=3, coeff_scale=0.75,
                       rng=np.random.default_rng(0), dtype=dtype)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 3, 3)).astype(dtype))
    sign = np.resize(np.array([1.0, -1.0], dtype), layer.fc2_b.shape)
    with np.errstate(all="raise"):
        at_init = layer.coefficients(x).data
        layer.fc2_b.data[:] = 1000.0 * sign
        saturated = layer.coefficients(x).data
    assert at_init.dtype == saturated.dtype == dtype
    np.testing.assert_array_equal(at_init, np.broadcast_to(layer.init_bias, at_init.shape))
    want = layer.init_bias + 0.75 * sign.reshape(1, 4, 2, 3)
    np.testing.assert_array_equal(saturated, np.broadcast_to(want, saturated.shape))


def test_bounded_output_growth():
    # |y| <= max|a| * J * max|x| for any input
    layer = make_layer(8, 4, 2, 2, seed=5, spread=3.0)
    x = np.random.default_rng(6).standard_normal((4, 8, 5, 5))
    y = layer(Tensor(x)).data
    lo, hi = coeff_bounds(layer)
    bound = max(abs(lo), abs(hi)) * layer.num_shifts * np.abs(x).max()
    assert np.abs(y).max() <= bound + 1e-12


def test_validation_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        DyShiftMax(10, 4, rng=rng)
    with pytest.raises(ValueError):
        DyShiftMax(8, 2, num_shifts=0, rng=rng)
    with pytest.raises(ValueError):
        DyShiftMax(8, 2, num_fusions=0, rng=rng)


def test_gradients_away_from_fusion_ties():
    layer = make_layer(6, 2, 2, 2, seed=7)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 6, 3, 3)), requires_grad=True)
    assert fusion_margin(layer, x.data) > 1e-3

    def loss():
        return softmax_cross_entropy(global_avg_pool(layer(x)),
                                     np.array([0, 4]))

    assert_grads(loss, [("x", x)] + list(layer.named_params()), probes=10,
                 rtol=1e-4, atol=1e-7)

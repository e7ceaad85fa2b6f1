"""Group selection laws, factorized pointwise/depthwise equivalence,
rank structure, and connectivity counting."""

import dataclasses
import math

import numpy as np
import pytest
from helpers import assert_grads, traced_madds
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import conv_madds, path_count_oracle, regular_combination_madds

from micronet.analysis import trace_costs
from micronet.microfac import (MicroFacDepthwise, MicroFacPointwise,
                               adaptive_groups, fit_groups, path_count_matrix,
                               pick_group_pair, shuffle_permutation)
from micronet.models import BlockSpec, MicroBlockA, model_spec
from micronet.tensor import ConvSpec, Tensor, conv2d, global_avg_pool, \
    permute_channels, softmax_cross_entropy


# ---------------------------------------------------------------------------
# group laws

def test_fit_groups_rounds_half_up_then_repairs():
    assert fit_groups(2.5, 12, 12) == 3
    assert fit_groups(2.5, 10, 10) == 2
    assert fit_groups(0.2, 16, 16) == 1
    assert fit_groups(99.0, 4, 8) == 4
    # the target is clamped before it is rounded, so no target overflows
    assert fit_groups(float("inf"), 4, 8) == fit_groups(1e308, 12, 4) == 4


def test_adaptive_groups_frozen_values():
    assert adaptive_groups(32, 12) == 2
    assert adaptive_groups(48, 16) == 4
    assert adaptive_groups(64, 24) == 4


@pytest.mark.parametrize("hidden,cin,cout,expect", [
    (16, 12, 64, (4, 4)),
    (32, 64, 128, (4, 8)),
    (96, 256, 384, (8, 12)),
    (24, 16, 144, (4, 6)),
    (80, 384, 480, (8, 10)),
    (120, 480, 720, (10, 12)),
    (144, 720, 864, (12, 12)),
    (128, 576, 768, (8, 16)),
])
def test_pick_group_pair_frozen_values(hidden, cin, cout, expect):
    assert pick_group_pair(hidden, cin, cout) == expect


def _scan_group_pair(hidden, cin, cout):
    """pick_group_pair as a scan of every g1 in 1..hidden; None when no g1
    fits."""
    t = math.sqrt(hidden)
    best = None
    for g1 in range(1, hidden + 1):
        if hidden % g1:
            continue
        g2 = hidden // g1
        if cin % g1 or cout % g2:
            continue
        key = (abs(g1 - t) + abs(g2 - t), g1)
        if best is None or key < best[0]:
            best = (key, g1, g2)
    return None if best is None else (best[1], best[2])


@pytest.mark.parametrize("cin", [1, 6, 12, 64, 144, 720])
@pytest.mark.parametrize("cout", [1, 8, 96, 480, 864])
def test_pick_group_pair_matches_full_scan(cin, cout):
    # enumerating the divisors of gcd(hidden, C_in) up to its square root
    # picks what the scan of every g1 picked, and raises where it found none
    for hidden in range(1, 513):
        want = _scan_group_pair(hidden, cin, cout)
        if want is None:
            with pytest.raises(ValueError, match=f"hidden width {hidden} with G1 dividing "
                                                 f"input width {cin} and G2 dividing "
                                                 f"width {cout}$"):
                pick_group_pair(hidden, cin, cout)
        else:
            assert pick_group_pair(hidden, cin, cout) == want


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_pick_group_pair_invariants(g1, g2, a, b):
    hidden = g1 * g2
    cin, cout = g1 * a * 2, g2 * b * 2
    p1, p2 = pick_group_pair(hidden, cin, cout)
    assert p1 * p2 == hidden
    assert cin % p1 == 0 and cout % p2 == 0


def test_shuffle_permutation_is_group_transpose():
    perm = shuffle_permutation(6, 2)
    np.testing.assert_array_equal(perm, [0, 3, 1, 4, 2, 5])
    with pytest.raises(ValueError):
        shuffle_permutation(6, 4)


def test_channel_shuffle_round_trips():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 12, 2, 2))

    def shuffled(t, groups):
        return permute_channels(Tensor(t), shuffle_permutation(12, groups)).data

    once = shuffled(x, 3)
    np.testing.assert_array_equal(
        once, x.reshape(2, 3, 4, 2, 2).transpose(0, 2, 1, 3, 4).reshape(x.shape))
    np.testing.assert_array_equal(shuffled(once, 4), x)


# ---------------------------------------------------------------------------
# factorized pointwise

def dense_apply(layer, x):
    return np.einsum("oi,nihw->nohw", layer.expand_dense(), x)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_pointwise_matches_dense_product(g1, g2, a, b, k, seed):
    rng = np.random.default_rng(seed)
    layer = MicroFacPointwise(g1 * a, g2 * b, g1 * g2 * k, groups=(g1, g2),
                              rng=rng)
    x = rng.standard_normal((2, g1 * a, 3, 2))
    np.testing.assert_allclose(layer(Tensor(x)).data, dense_apply(layer, x),
                               atol=1e-10, rtol=0)


def test_pointwise_symmetric_default_groups():
    rng = np.random.default_rng(1)
    layer = MicroFacPointwise(24, 24, 12, rng=rng)
    assert layer.g1 * layer.g2 == 12
    x = rng.standard_normal((1, 24, 4, 4))
    np.testing.assert_allclose(layer(Tensor(x)).data, dense_apply(layer, x),
                               atol=1e-10)


def test_pointwise_rank_law_with_product_groups():
    from micronet.analysis import rank_law_holds
    rng = np.random.default_rng(2)
    layer = MicroFacPointwise(64, 128, 32, rng=rng)
    assert (layer.g1, layer.g2) == (4, 8)
    ok, worst = rank_law_holds(layer)
    assert ok and worst < 1e-12


def test_pointwise_rank_law_fails_without_product_rule():
    # per-side rounding would pick (4, 4) here; the sub-blocks then hold
    # two hidden channels each and climb to rank 2
    from micronet.analysis import rank_law_holds
    rng = np.random.default_rng(3)
    layer = MicroFacPointwise(64, 128, 32, groups=(4, 4), rng=rng)
    ok, worst = rank_law_holds(layer)
    assert not ok and worst > 1e-3


def test_pointwise_rejects_bad_groups():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MicroFacPointwise(10, 16, 8, groups=(3, 2), rng=rng)
    with pytest.raises(ValueError):
        MicroFacPointwise(12, 16, 8, groups=(2, 3), rng=rng)
    with pytest.raises(ValueError):
        MicroFacPointwise(12, 16, 0, rng=rng)
    # no G1 | 4 and G2 | 8 multiply to 5: there is no group pair to default to
    with pytest.raises(ValueError, match="no G1"):
        MicroFacPointwise(4, 8, 5, rng=rng)
    for hidden in (0, -4):
        with pytest.raises(ValueError, match=f"no G1\\*G2 = hidden width {hidden} "):
            pick_group_pair(hidden, 4, 8)


def test_pointwise_madds_sum_of_stages():
    layer = MicroFacPointwise(64, 128, 32, rng=np.random.default_rng(0))
    want = 7 * 7 * (32 * 64 // 4 + 128 * 32 // 8)
    assert traced_madds(layer, np.zeros((2, 64, 7, 7))) == want


def test_bare_layer_records_name_each_stage():
    # ops a bare layer runs with its own weights are named by the weight
    pointwise = MicroFacPointwise(64, 128, 32, rng=np.random.default_rng(0))
    records = trace_costs(pointwise, np.zeros((1, 64, 7, 7)))
    assert [(r.name, r.madds) for r in records] == [
        ("compress", 7 * 7 * 32 * 64 // 4), ("expand", 7 * 7 * 128 * 32 // 8)]
    depthwise = MicroFacDepthwise(4, 3, rng=np.random.default_rng(0))
    records = trace_costs(depthwise, np.zeros((1, 4, 7, 7)))
    assert [(r.name, r.madds) for r in records] == [("col", 7 * 7 * 4 * 3),
                                                    ("row", 7 * 7 * 4 * 3)]
    # an expanding pair, strided or not, is one composed op at eval, named
    # by its first weight and priced as both stages: (8, 4, 7) then (8, 4, 4)
    # with stride 2, (8, 7, 7) twice with stride 1
    for stride, madds in ((2, 8 * 4 * 7 * 3 + 8 * 4 * 4 * 3), (1, 2 * 8 * 7 * 7 * 3)):
        depthwise = MicroFacDepthwise(4, 3, stride, expansion=2,
                                      rng=np.random.default_rng(0))
        records = trace_costs(depthwise, np.zeros((1, 4, 7, 7)))
        assert [(r.name, r.madds, r.params) for r in records] == [
            ("col", madds, 2 * 8 * 3)]


def test_pointwise_gradients():
    rng = np.random.default_rng(4)
    layer = MicroFacPointwise(8, 12, 4, rng=rng)
    x = Tensor(rng.standard_normal((2, 8, 2, 2)), requires_grad=True)

    def loss():
        return softmax_cross_entropy(global_avg_pool(layer(x)),
                                     np.array([0, 5]))

    assert_grads(loss, [("x", x)] + list(layer.named_params()), probes=8)


# ---------------------------------------------------------------------------
# path counting

@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_path_matrix_matches_oracle(g1, g2, a, b, k):
    layer = MicroFacPointwise(g1 * a, g2 * b, g1 * g2 * k, groups=(g1, g2),
                              rng=np.random.default_rng(0))
    matrix = path_count_matrix(layer)
    for o in range(0, layer.out_channels, max(1, layer.out_channels // 3)):
        assert path_count_oracle(layer, o) == matrix[o].sum()


@pytest.mark.parametrize("channels,reduction,groups", [
    (18, 2, 3), (16, 2, 2), (32, 4, 2), (36, 2, 3),
])
def test_symmetric_path_count_law(channels, reduction, groups):
    hidden = channels // reduction
    layer = MicroFacPointwise(channels, channels, hidden,
                              groups=(groups, groups),
                              rng=np.random.default_rng(0))
    expect = channels * channels // (reduction * groups * groups)
    matrix = path_count_matrix(layer)
    assert (matrix.sum(axis=1) == expect).all()
    assert path_count_oracle(layer, 0) == expect


def test_balance_point_paths_equal_channels():
    # E = C^2/(RG^2) meets C exactly at G = sqrt(C/R)
    layer = MicroFacPointwise(18, 18, 9, groups=(3, 3),
                              rng=np.random.default_rng(0))
    matrix = path_count_matrix(layer)
    assert (matrix.sum(axis=1) == 18).all()
    assert (matrix == 1).all()


# ---------------------------------------------------------------------------
# factorized depthwise

@pytest.mark.parametrize("kernel,stride,expansion", [
    (3, 1, 1), (5, 1, 1), (3, 2, 1), (5, 2, 3), (3, 1, 4),
])
def test_depthwise_matches_outer_product_kernel(kernel, stride, expansion):
    rng = np.random.default_rng(kernel + stride + expansion)
    layer = MicroFacDepthwise(6, kernel, stride, expansion, rng=rng)
    x = rng.standard_normal((2, 6, 8, 8))
    got = layer(Tensor(x)).data
    want = conv2d(Tensor(x), Tensor(layer.col_w.data * layer.row_w.data),
                  spec=layer.dense_spec()).data
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_depthwise_cost_factorized_vs_dense():
    layer = MicroFacDepthwise(32, 5, 1, rng=np.random.default_rng(0))
    assert traced_madds(layer, np.zeros((1, 32, 14, 14))) == 14 * 14 * 2 * 5 * 32
    assert conv_madds(layer.dense_spec(), 14, 14) == 14 * 14 * 5 * 5 * 32


def test_depthwise_rejects_even_kernels():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MicroFacDepthwise(4, 4, rng=rng)
    with pytest.raises(ValueError):
        MicroFacDepthwise(4, 3, expansion=0, rng=rng)


def test_depthwise_stride_splits_by_direction():
    layer = MicroFacDepthwise(3, 3, 2, rng=np.random.default_rng(0))
    assert layer.col_spec.stride == (2, 1)
    assert layer.row_spec.stride == (1, 2)
    x = np.random.default_rng(1).standard_normal((1, 3, 8, 8))
    assert layer(Tensor(x)).shape == (1, 3, 4, 4)


def test_depthwise_gradients():
    rng = np.random.default_rng(5)
    layer = MicroFacDepthwise(4, 3, 2, expansion=2, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)

    def loss():
        return softmax_cross_entropy(global_avg_pool(layer(x)),
                                     np.array([1, 6]))

    assert_grads(loss, [("x", x)] + list(layer.named_params()), probes=8)


# ---------------------------------------------------------------------------
# lite combination

def lite_combination(in_channels, dw_channels, out_channels, kernel, stride=1):
    """Micro-Block-A alone: depthwise expansion, then one squeeze, with no
    norm and no activation."""
    spec = dataclasses.replace(model_spec("tiny"), norm="none")
    row = BlockSpec("A", kernel, dw_channels, out_channels, stride, ("none", "none"))
    return MicroBlockA(in_channels, row, spec, np.random.default_rng(0), np.float64)


def test_lite_combination_cheaper_than_regular_at_same_width():
    h = w = 56
    lite = lite_combination(8, 32, 12, kernel=3)
    regular = regular_combination_madds(8, 32, 12, kernel=3, h=h, w=w)
    assert traced_madds(lite, np.zeros((1, 8, h, w))) < regular


def test_lite_combination_forward_shape():
    lite = lite_combination(4, 16, 8, kernel=3, stride=2)
    x = np.random.default_rng(1).standard_normal((2, 4, 8, 8))
    assert lite(Tensor(x)).shape == (2, 8, 4, 4)
    # an odd size: the padded stride-2 stage gives ceil(7 / 2) = 4
    assert lite(Tensor(x[:, :, 1:, 1:])).shape == (2, 8, 4, 4)
    records = {r.name: r for r in trace_costs(lite, x[:, :, 1:, 1:])}
    assert list(records) == ["depthwise", "squeeze"]
    assert records["depthwise"].out_shape == (16, 4, 4)
    assert records["squeeze"].madds == conv_madds(lite.squeeze.spec, 4, 4)

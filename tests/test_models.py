"""Architecture table fidelity, block wiring, and network behavior."""

import copy
import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (MAddCounter, conv_madds, finite_difference_check, network_forward,
                       param_count, shift_fusions)

from micronet.analysis import count_costs, verify_model
from micronet.dyshiftmax import DyShiftMax
from micronet import dyshiftmax, microfac, models, tensor
from micronet.models import (BatchNorm2d, BlockSpec, Conv2dLayer, MicroBlockBC,
                             ModelSpec, Network, VARIANTS, build_model, model_spec)
from micronet.module import Context
from micronet.tensor import ConvSpec, Tensor, conv2d, no_grad, softmax_cross_entropy
from micronet.weights_io import load_model, save_weights


def test_variant_table_shape():
    assert set(VARIANTS) == {"M0", "M1", "M2", "M3", "tiny"}
    for name in ("M0", "M1", "M2", "M3"):
        spec = model_spec(name)
        kinds = [b.kind for b in spec.blocks]
        assert kinds.count("B") == 1
        assert kinds[0] == "A" and kinds[-1] == "C"
    with pytest.raises(ValueError):
        model_spec("M9")


@pytest.mark.parametrize("variant,widths,resolutions", [
    ("M0", [4, 8, 12, 64, 128, 256, 384], [112, 56, 28, 14, 14, 7, 7]),
    ("M1", [6, 8, 16, 96, 192, 384, 576], [112, 56, 28, 14, 14, 7, 7]),
    ("M2", [8, 12, 16, 144, 192, 192, 384, 576, 768],
     [112, 56, 28, 28, 14, 14, 14, 7, 7]),
    ("M3", [12, 16, 24, 144, 192, 192, 384, 480, 480, 720, 720, 864],
     [112, 56, 28, 28, 14, 14, 14, 14, 14, 7, 7, 7]),
])
def test_stage_geometry(variant, widths, resolutions):
    net = build_model(variant, seed=0)
    shapes = {r.name: r.out_shape for r in count_costs(net, 224).records}
    rows = [shapes["stem.conv2"]] + [
        shapes[f"blocks.{i}.{'squeeze' if blk.kind == 'A' else 'expand'}"]
        for i, blk in enumerate(net.blocks)]
    assert [c for c, _, _ in rows] == widths
    assert [r for _, r, _ in rows] == resolutions


def test_skip_connections_only_on_matching_micro_c():
    skips = {v: [i for i, b in enumerate(build_model(v, seed=0).blocks)
                 if getattr(b, "skip", False)]
             for v in ("M0", "M1", "M2", "M3")}
    assert skips == {"M0": [], "M1": [], "M2": [4], "M3": [4, 7, 9]}


def test_activation_slot_policy():
    net = build_model("M2", seed=0)
    for blk in net.blocks:
        assert isinstance(blk.act1, DyShiftMax)
        assert blk.act2 is None
        if isinstance(blk, MicroBlockBC):
            assert blk.act3 is None
            assert blk.act1.groups == blk.pointwise.g1
        else:
            assert blk.act1.groups == blk.squeeze.spec.groups


def test_block_a_requires_integer_expansion():
    # ModelSpec follows each block's input width: the stem's, then block A's
    # hidden width, or block B's or C's width
    with pytest.raises(ValueError, match="block width 16 not a multiple of input 5"):
        ModelSpec("a", 5, 5, (BlockSpec("A", 3, 16, 8, 2),), head_width=8)
    with pytest.raises(ValueError, match="block width 12 not a multiple of input 8"):
        ModelSpec("a", 4, 2, (BlockSpec("A", 3, 8, 4), BlockSpec("C", 3, 8, 4),
                              BlockSpec("A", 3, 12, 4)), head_width=8)
    assert ModelSpec("a", 4, 2, (BlockSpec("A", 3, 8, 6), BlockSpec("A", 3, 12, 4)),
                     head_width=8).blocks[1].width == 12


def test_block_bc_requires_a_group_pair():
    # a B or C block's hidden width is G1*G2 with G1 dividing its input width
    # and G2 its width, or its pointwise pair could not be factorized
    with pytest.raises(ValueError, match="hidden width 5 with G1 dividing input width 4 "
                                         "and G2 dividing width 6$"):
        ModelSpec("b", 4, 2, (BlockSpec("B", 3, 6, 5),), head_width=8)
    # the input width follows the chain: here block A's hidden width 6
    with pytest.raises(ValueError, match="hidden width 4 with G1 dividing input width 6 "
                                         "and G2 dividing width 3$"):
        ModelSpec("c", 4, 2, (BlockSpec("A", 3, 8, 6), BlockSpec("C", 3, 3, 4)), head_width=8)
    spec = ModelSpec("c", 4, 2, (BlockSpec("A", 3, 8, 6), BlockSpec("C", 3, 3, 9)),
                     head_width=8)
    pw = list(Network(spec, rng=np.random.default_rng(0)).blocks)[1].pointwise
    assert (pw.g1, pw.g2) == (3, 3)


# the rows of verify_model's report that check each factorized pointwise
STRUCTURAL_ROWS = ("rank_law", "connectivity", "factorization")


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 24), st.sampled_from("BC"))
@settings(max_examples=40, deadline=None)
def test_accepted_specs_pass_structural_verification(c_in, width, hidden, kind):
    # ModelSpec accepts a hidden width exactly when some G1 | c_in and
    # G2 | width multiply to it, and every network it accepts passes the
    # structural rows of verify_model
    block = BlockSpec(kind, 3, width, hidden, 1, ("relu",) * 3)
    has_pair = any(c_in % g1 == 0 and width % (hidden // g1) == 0
                   for g1 in range(1, hidden + 1) if hidden % g1 == 0)
    if not has_pair:
        with pytest.raises(ValueError, match="no G1"):
            ModelSpec("g", c_in, 1, (block,), head_width=4, num_classes=2)
        return
    spec = ModelSpec("g", c_in, 1, (block,), head_width=4, num_classes=2)
    report = verify_model(Network(spec, rng=np.random.default_rng(0), dtype=np.float64),
                          np.random.default_rng(0))
    assert all(row["ok"] for key in STRUCTURAL_ROWS for row in report[key]), report


@pytest.mark.parametrize("variant", ["M0", "tiny"])
def test_forward_shapes(variant):
    net = build_model(variant, seed=0)
    res = 64 if variant == "M0" else 32
    x = np.random.default_rng(0).standard_normal((2, 3, res, res))
    out = net(x)
    assert out.shape == (2, net.spec.num_classes)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("variant, dtype, digest", [
    ("tiny", np.float64, "7608471b1ddccd7b33691c90c1b2f3cc"),
    ("M0", np.float32, "e1db738439690dcf159bfbff0219f983"),
])
def test_seeded_build_draws_fixed_weights(variant, dtype, digest):
    # a seed names one set of weights: the digest of every parameter and
    # buffer, in order, of a build at seed 7
    from micronet.weights_io import collect_state
    h = hashlib.sha256()
    for name, arr in collect_state(build_model(variant, seed=7, dtype=dtype)).items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest()[:32] == digest


def test_forward_casts_input_to_network_dtype():
    net = build_model("M0", seed=0, dtype=np.float32)
    x = np.random.default_rng(0).standard_normal((1, 3, 64, 64))
    with no_grad():
        got = net(x).data
        want = net(x.astype(np.float32)).data
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)


def test_forward_rejects_bad_inputs():
    net = build_model("tiny", seed=0)
    with pytest.raises(ValueError):
        net(np.zeros((2, 4, 32, 32)))
    with pytest.raises(ValueError):
        net(np.zeros((2, 3, 32)))
    bad = np.zeros((1, 3, 32, 32))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        net(bad)


def test_batch_norm_mode_switch():
    net = build_model("tiny", seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 32, 32))
    before = net.stem.norm.running_mean.copy()
    net(x, Context(training=True, rng=rng))
    after = net.stem.norm.running_mean.copy()
    assert not np.array_equal(before, after)

    e1 = net(x, Context(training=False)).data
    e2 = net(x, Context(training=False)).data
    np.testing.assert_array_equal(e1, e2)
    assert np.array_equal(net.stem.norm.running_mean, after)


def test_norm_after_conv_folds_at_eval_only():
    rng = np.random.default_rng(3)
    conv = Conv2dLayer(ConvSpec(4, 6, (3, 1), stride=(2, 1), padding=(1, 0), groups=2),
                       rng, np.float64)
    folded_bn = BatchNorm2d(6, np.float64)
    folded_bn.gamma.data[:] = 1.0 + 0.3 * rng.standard_normal(6)
    folded_bn.beta.data[:] = rng.standard_normal(6)
    folded_bn.running_mean[:] = rng.standard_normal(6)
    folded_bn.running_var[:] = rng.uniform(0.2, 2.0, 6)
    plain_bn = copy.deepcopy(folded_bn)
    x = Tensor(rng.standard_normal((3, 4, 6, 5)))
    # the norm on its own: conv2d with it after a unit per-channel 1x1 conv
    unit, unit_spec = Tensor(np.ones((6, 1, 1, 1))), ConvSpec(6, 6, 1, groups=6)

    ev = Context(training=False)
    y = conv(x, ev)
    a = plain_bn.gamma.data / np.sqrt(plain_bn.running_var + 1e-5)   # every norm's eps
    want = (y.data - plain_bn.running_mean[:, None, None]) * a[:, None, None] \
        + plain_bn.beta.data[:, None, None]
    np.testing.assert_allclose(conv(x, ev, norm=folded_bn).data, want, atol=1e-12)
    np.testing.assert_allclose(conv2d(y, unit, spec=unit_spec, norm=plain_bn).data,
                               want, atol=1e-12)

    # training runs the pair as one op with batch statistics: bitwise equal to
    # the norm on its own after the convolution, statistics updated once
    tr = Context(training=True, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(
        conv(x, tr, norm=folded_bn).data,
        conv2d(conv(x, tr), unit, spec=unit_spec, norm=plain_bn, training=True).data)
    np.testing.assert_array_equal(folded_bn.running_mean, plain_bn.running_mean)
    np.testing.assert_array_equal(folded_bn.running_var, plain_bn.running_var)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_eval_forward_folds_every_norm(training, monkeypatch):
    net = build_model("tiny", seed=0, dtype=np.float64)
    x = np.random.default_rng(4).standard_normal((2, 3, 32, 32))
    want = net(x, Context(training=training, rng=np.random.default_rng(0))).data
    calls = []                      # (weights, norm) of each convolution op
    real, real_composed = models.conv2d, microfac.conv2d_composed

    def counted(x, w, **kw):
        calls.append(((id(w),), kw.get("norm")))
        return real(x, w, **kw)

    def counted_composed(x, col_w, row_w, **kw):
        calls.append(((id(col_w), id(row_w)), kw.get("norm")))
        return real_composed(x, col_w, row_w, **kw)

    monkeypatch.setattr(models, "conv2d", counted)
    monkeypatch.setattr(microfac, "conv2d", counted)
    monkeypatch.setattr(microfac, "conv2d_composed", counted_composed)
    # a training forward's dropout draws the same mask from the same seed
    got = net(x, Context(training=training, rng=np.random.default_rng(0))).data
    np.testing.assert_array_equal(got, want)
    # block 0's expanding strided depthwise pair is one composed op in both modes
    assert sum(len(ws) == 2 for ws, _ in calls) == 1
    # each convolution weight of the network is read by one op, so no norm
    # ran on a convolution of its own; each of the 6 norms ran in one, once
    weights = [id(p) for _, p in net.named_params() if p.data.ndim == 4]
    assert sorted(w for ws, _ in calls for w in ws) == sorted(weights)
    norms = [id(m) for _, m in net.named_modules() if isinstance(m, BatchNorm2d)]
    assert sorted(id(n) for _, n in calls if n is not None) == sorted(norms)
    assert len(norms) == 6


def test_eval_batch_composition_invariance():
    net = build_model("tiny", seed=0, dtype=np.float64)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 3, 32, 32))
    full = net(x, Context(training=False)).data
    solo = net(x[:1], Context(training=False)).data
    np.testing.assert_allclose(full[:1], solo, atol=1e-12)


def test_dropout_only_in_training():
    spec = model_spec("tiny")
    spec = dataclasses.replace(spec, dropout=0.5)
    net = Network(spec, rng=np.random.default_rng(0), dtype=np.float64)
    x = np.random.default_rng(3).standard_normal((2, 3, 32, 32))
    a = net(x, Context(training=False)).data
    b = net(x, Context(training=False)).data
    np.testing.assert_array_equal(a, b)
    t1 = net(x, Context(training=True, rng=np.random.default_rng(4))).data
    t2 = net(x, Context(training=True, rng=np.random.default_rng(5))).data
    assert not np.array_equal(t1, t2)


def test_norm_none_variant_runs():
    spec = model_spec("tiny")
    spec = dataclasses.replace(spec, norm="none")
    net = Network(spec, rng=np.random.default_rng(0))
    out = net(np.random.default_rng(1).standard_normal((1, 3, 32, 32)) * 0.1)
    assert np.isfinite(out.data).all()
    assert not any("running_mean" in n for n, _ in net.named_buffers())


DRAWS = 32


def drawn_case(seed: int) -> tuple[ModelSpec, int, int]:
    """A buildable spec drawn from seed, and the batch size (1 or 2) and
    resolution (8-32) to run it at: a stem width that is a multiple of the
    stem's hidden width, two to four blocks with at most one B, A widths
    that are multiples of their input, B and C hidden widths G1*G2 <= 8 with
    G1 dividing their input width and G2 their width, kernels 3 or 5,
    strides 1 or 2, every slot kind, and J and K in 1..3."""
    r = random.Random(seed)
    hid = r.randint(1, 3)
    c = stem = hid * r.randint(1, 3)
    blocks = []
    for _ in range(r.randint(2, 4)):
        kind = r.choice("AC" if any(b.kind == "B" for b in blocks) else "ABC")
        width = c * r.randint(1, 3) if kind == "A" else (
            c if kind == "C" and r.random() < 0.4 else r.randint(2, 12))
        hidden = r.randint(2, 8) if kind == "A" else r.choice(sorted(
            {g1 * g2 for g1 in _divisors(c) for g2 in _divisors(width) if g1 * g2 <= 8}))
        acts = tuple(r.choice(["relu", "dysm", "none"]) for _ in range(2 if kind == "A" else 3))
        blocks.append(BlockSpec(kind, r.choice([3, 5]), width, hidden, r.randint(1, 2), acts))
        c = hidden if kind == "A" else width
    spec = ModelSpec("drawn", stem, hid, tuple(blocks), head_width=r.randint(2, 8),
                     num_classes=r.randint(2, 5), dropout=0.0, num_shifts=r.randint(1, 3),
                     num_fusions=r.randint(1, 3), hyper_reduction=r.randint(1, 16),
                     hyper_min_hidden=r.randint(1, 8), coeff_scale=r.uniform(0.5, 2.0),
                     group_lam=r.uniform(0.5, 2.0))
    return spec, r.randint(1, 2), r.randint(8, 32)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def perturbed(net, rng):
    """net with its parameters and buffers moved off their initial values:
    the norms off (1, 0) and the zero-initialized shift-max heads."""
    for _, p in net.named_params():
        p.data += 0.2 * rng.standard_normal(p.shape)
    for name, buf in net.named_buffers():
        buf[:] = rng.uniform(0.5, 2.0, buf.shape) if name.endswith("var") \
            else 0.1 * rng.standard_normal(buf.shape)
    return net


@pytest.mark.parametrize("variant", ["tiny", "tiny-skip", "M0",
                                     *(f"drawn-{i}" for i in range(DRAWS))])
def test_network_matches_naive_reference(variant, tmp_path):
    # the loop-based forward gives the same logits in both modes, its
    # multiply-add tally is the traced cost of every image, and an archive
    # round trip gives the same eval logits bitwise; the drawn specs pass
    # ModelSpec's checks and load back from their archives, and every
    # factorized pointwise passes verify_model's structural rows
    n, res = 2, 32
    if variant.startswith("drawn"):
        spec, n, res = drawn_case(int(variant.split("-")[1]))
    else:
        spec = model_spec("M0" if variant == "M0" else "tiny")
        if variant == "tiny-skip":
            spec = dataclasses.replace(spec, blocks=(
                BlockSpec("A", 3, 8, 4, 2), BlockSpec("C", 3, 4, 4, 1, ("dysm",) * 3)))
        spec = dataclasses.replace(spec, num_classes=10, dropout=0.0)
    net = Network(spec, rng=np.random.default_rng(0), dtype=np.float64)
    if not variant.startswith("drawn"):
        assert any(getattr(b, "skip", False) for b in net.blocks) == (variant == "tiny-skip")
    rng = np.random.default_rng(1)
    perturbed(net, rng)
    report = verify_model(net, np.random.default_rng(0))
    assert all(row["ok"] for key in STRUCTURAL_ROWS for row in report[key])
    madds = count_costs(net, res).total_madds
    x = rng.standard_normal((n, 3, res, res))
    for training in (False, True):
        counter = MAddCounter()
        want = network_forward(net, x, training, counter)
        with no_grad():
            got = net(x, Context(training=training, rng=np.random.default_rng(0))).data
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), training
        assert counter.count == n * madds
    save_weights(tmp_path / "w.mnwt", net)
    with no_grad():
        np.testing.assert_array_equal(load_model(tmp_path / "w.mnwt")(x).data, net(x).data)


def test_drawn_specs_reach_every_kernel(monkeypatch):
    # the eval and training forwards of the drawn cases above run every
    # kernel _conv_kernel picks, the composed depthwise pair and shift_max's
    # fusions, and some drawn B or C block has a dysm compress slot
    seen = set()

    def recorded(name, fn):
        def call(*args, **kwargs):
            seen.add(name)
            return fn(*args, **kwargs)
        return call

    real_kernel = tensor._conv_kernel

    def kernel(x, w, spec):
        picked = real_kernel(x, w, spec)
        seen.add(picked.__name__)
        return picked

    monkeypatch.setattr(tensor, "_conv_kernel", kernel)
    monkeypatch.setattr(microfac, "conv2d_composed",
                        recorded("conv2d_composed", microfac.conv2d_composed))
    monkeypatch.setattr(tensor, "_fusions_matmul",
                        recorded("_fusions_matmul", tensor._fusions_matmul))
    cases = [drawn_case(i) for i in range(DRAWS)]
    for spec, n, res in cases:
        net = perturbed(Network(spec, rng=np.random.default_rng(0), dtype=np.float64),
                        np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((n, 3, res, res))
        for training in (False, True):
            net(x, Context(training=training, rng=np.random.default_rng(0)))
    assert seen == {"_conv_pointwise", "_conv_banded", "_conv_depthwise", "_conv_rows",
                    "_conv_im2col", "conv2d_composed", "_fusions_matmul"}
    assert any(b.kind != "A" and b.activations[1] == "dysm"
               for spec, _, _ in cases for b in spec.blocks)


def record_branches(monkeypatch) -> list:
    """A list that each forward fills, in order, with the branch every
    piecewise op takes: the sign of each ReLU's input (conv2d's epilogue, the
    head's relu, the hidden layer of the coefficient head) and the winning
    fusion of each shift_max. Clear it before each forward."""
    taken = []
    epilogue, head_relu = tensor._epilogue, models.relu
    head, fuse = dyshiftmax.coefficient_head, dyshiftmax.shift_max

    def relu_epilogue(y, act):
        if act == "relu":
            taken.append(y > 0)
        return epilogue(y, act)

    def relu(x):
        taken.append(x.data > 0)
        return head_relu(x)

    def coefficients(x, w1, b1, *rest):
        taken.append(x.data.mean(axis=(2, 3)) @ w1.data.T + b1.data > 0)
        return head(x, w1, b1, *rest)

    def shift(x, a, groups):
        taken.append(shift_fusions(x.data, a.data, groups).argmax(axis=0))
        return fuse(x, a, groups)

    monkeypatch.setattr(tensor, "_epilogue", relu_epilogue)
    monkeypatch.setattr(models, "relu", relu)
    monkeypatch.setattr(dyshiftmax, "coefficient_head", coefficients)
    monkeypatch.setattr(dyshiftmax, "shift_max", shift)
    return taken


@pytest.mark.parametrize("draw", range(DRAWS))
def test_drawn_specs_train_like_finite_differences(draw, monkeypatch):
    # training-mode gradients of 16 parameters of each drawn spec on a small
    # map, with dropout on and its mask drawn from one fixed rng per
    # evaluation, against central differences; a probe whose perturbation
    # moves any ReLU across its kink or changes a shift_max winner is left out
    spec, _, _ = drawn_case(draw)
    net = perturbed(Network(dataclasses.replace(spec, dropout=0.25),
                            rng=np.random.default_rng(0), dtype=np.float64),
                    np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8))
    labels = np.arange(2) % spec.num_classes
    taken = record_branches(monkeypatch)

    def loss():
        taken.clear()
        ctx = Context(training=True, rng=np.random.default_rng(3))
        return softmax_cross_entropy(net(x, ctx), labels)

    loss()
    base = list(taken)
    rng = np.random.default_rng(draw)
    params = list(net.named_params())
    params = [params[i] for i in sorted(rng.choice(len(params), min(16, len(params)),
                                                   replace=False))]
    results = finite_difference_check(
        loss, params, probes=1, rng=rng,
        same_branches=lambda: all(np.array_equal(a, b) for a, b in zip(taken, base)))
    assert len(results) >= len(params) // 2
    bad = [r for r in results if not r.ok]
    assert not bad, bad[:3]


def taped_ops(net, x, training):
    """The names of the ops one forward of net on x records."""
    tensor._tape = tape = tensor.Tape()
    try:
        net(x, Context(training=training, rng=np.random.default_rng(0)))
    finally:
        tensor._tape = None
    return [op for op, *_ in tape.ops]


@pytest.mark.parametrize("acts", [
    (("relu", "none"), ("none", "dysm", "none"), ("relu", "none", "dysm")),
    (("none", "dysm"), ("dysm", "relu", "relu"), ("none", "none", "relu")),
], ids=["A-relu", "A-dysm"])
def test_slots_without_relu_run_as_their_own_ops(acts):
    # a dysm slot keeps its own op after the convolution, a none slot has
    # none, and every B/C block runs one shuffle op; the logits equal the
    # loop-based reference in both modes
    a, c1, c2 = acts
    spec = dataclasses.replace(model_spec("tiny"), num_classes=10, dropout=0.0, blocks=(
        BlockSpec("A", 3, 8, 4, 2, a), BlockSpec("C", 3, 8, 4, 1, c1),
        BlockSpec("C", 3, 8, 4, 1, c2)))
    net = Network(spec, rng=np.random.default_rng(0), dtype=np.float64)
    rng = np.random.default_rng(1)
    for _, p in net.named_params():
        p.data += 0.2 * rng.standard_normal(p.shape)
    x = rng.standard_normal((2, 3, 32, 32))
    slots = [s for b in spec.blocks for s in b.activations]
    for training in (False, True):
        with no_grad():
            got = net(x, Context(training=training, rng=np.random.default_rng(0))).data
        want = network_forward(net, x, training)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), training
        ops = taped_ops(net, x, training)
        # the head's ReLU is the only relu op; one shift_max per dysm slot
        assert ops.count("relu") == 1
        assert ops.count("shift_max") == slots.count("dysm")
        assert ops.count("permute_channels") == len(spec.blocks) - 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_relus_fuse_and_each_bc_block_keeps_one_shuffle(variant):
    # in the models' own slots every ReLU after a convolution runs as a
    # conv2d epilogue: the head's ReLU is the only relu op; each B/C block
    # keeps one shuffle op in the graph
    net = build_model(variant, seed=0)
    ops = taped_ops(net, np.zeros((1, 3, 32, 32), np.float32), False)
    assert ops.count("relu") == 1
    assert ops.count("permute_channels") == sum(b.kind != "A" for b in net.spec.blocks)


def test_row_window_kernel_takes_only_the_stem_conv1(monkeypatch):
    # the stem's dense 3x1 is the only dense k x 1 filter of the models
    picked = []
    real = tensor._conv_kernel

    def record(x, w, spec):
        kernel = real(x, w, spec)
        if kernel is tensor._conv_rows:
            picked.append(spec)
        return kernel

    monkeypatch.setattr(tensor, "_conv_kernel", record)
    for variant in VARIANTS:
        net = build_model(variant, seed=0)
        for n, training in ((1, False), (2, True)):
            picked.clear()
            net(np.zeros((n, 3, 32, 32), np.float32),
                Context(training=training, rng=np.random.default_rng(0)))
            assert picked == [net.stem.conv1.spec], (variant, training)


@pytest.mark.parametrize("resolution", [9, 15, 33])
def test_composed_block_a_costs_match_reference(resolution, monkeypatch):
    # a kernel-5 block A at odd sizes: the eval forward runs its depthwise
    # pair as one 5x5 convolution, priced as the two factorized stages the
    # loop-based reference runs, not as 25 taps
    spec = dataclasses.replace(model_spec("tiny"), num_classes=10, dropout=0.0, blocks=(
        BlockSpec("A", 5, 16, 8, 2), BlockSpec("B", 3, 8, 4, 2)))
    net = Network(spec, rng=np.random.default_rng(0), dtype=np.float64)
    composed = []
    real = microfac.conv2d_composed

    def counted(x, *args, **kw):
        composed.append(x.shape)
        return real(x, *args, **kw)

    monkeypatch.setattr(microfac, "conv2d_composed", counted)
    report = count_costs(net, resolution)
    assert len(composed) == 1
    _, _, h, w = composed[0]
    dw = list(net.blocks)[0].depthwise
    oh, ow = dw.dense_spec().out_size(h, w)
    record = {r.name: r for r in report.records}["blocks.0.depthwise"]
    assert record.madds == conv_madds(dw.col_spec, h, w) + conv_madds(dw.row_spec, oh, w)
    assert record.madds != conv_madds(dw.dense_spec(), h, w)
    x = np.random.default_rng(1).standard_normal((2, 3, resolution, resolution))
    counter = MAddCounter()
    want = network_forward(net, x, False, counter)
    with no_grad():
        got = net(x, Context(training=False)).data
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert counter.count == 2 * report.total_madds


def test_num_classes_override():
    net = build_model("M0", num_classes=10, seed=0)
    assert net.head.fc2_w.shape == (10, 640)
    x = np.random.default_rng(0).standard_normal((1, 3, 64, 64))
    assert net(x).shape == (1, 10)


def test_seed_reproducibility():
    a = build_model("tiny", seed=11)
    b = build_model("tiny", seed=11)
    c = build_model("tiny", seed=12)
    for (na, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)
    assert any(not np.array_equal(pa.data, pc.data)
               for (_, pa), (_, pc) in zip(a.named_params(), c.named_params()))


def test_named_params_unique_and_counted():
    net = build_model("M1", seed=0)
    names = [n for n, _ in net.named_params()]
    assert len(names) == len(set(names))
    assert param_count(net) == sum(int(np.prod(p.shape))
                                    for _, p in net.named_params())


def test_model_spec_config_round_trip():
    # every field off its default, so a to_config that drops one fails
    odd = ModelSpec("odd", 6, 3, (BlockSpec("A", 5, 12, 6, 2, ("none", "dysm")),
                                  BlockSpec("C", 3, 12, 4, 1, ("relu", "none", "dysm"))),
                    head_width=20, num_classes=7, dropout=0.2, norm="none", num_shifts=3,
                    num_fusions=1, hyper_reduction=4, hyper_min_hidden=2,
                    coeff_scale=0.5, group_lam=2.0)
    assert all(getattr(odd, f.name) != f.default for f in dataclasses.fields(ModelSpec)
               if f.default is not dataclasses.MISSING)
    for spec in [model_spec(v) for v in VARIANTS] + [odd]:
        assert ModelSpec.from_config(spec.to_config()) == spec
    with pytest.raises(ValueError):
        ModelSpec.from_config({"schema": "micronet.model/2"})
    # a block entry without activations takes the default slots; one that
    # states them null is rejected, since it would re-save as a list
    cfg = model_spec("tiny").to_config()
    del cfg["blocks"][1]["activations"]
    assert ModelSpec.from_config(cfg) == model_spec("tiny")
    cfg["blocks"][1]["activations"] = None
    with pytest.raises(ValueError, match="activations must be a list"):
        ModelSpec.from_config(cfg)
    # an entry that no field has is rejected, not dropped
    for path in ("dropuot", "dyshiftmax.reducton", "stem.depth"):
        cfg = model_spec("tiny").to_config()
        owner, _, key = path.rpartition(".")
        (cfg[owner] if owner else cfg)[key] = 1
        with pytest.raises(ValueError, match=f"unknown entry {path}$"):
            ModelSpec.from_config(cfg)


CONFIGS = Path(__file__).resolve().parent.parent / "src" / "micronet" / "configs"


@pytest.mark.parametrize("variant", VARIANTS)
def test_golden_config_files(variant):
    """src/micronet/configs/<variant>.json, one file per variant, is the
    variant's spec in canonical form: to_config() gives it back."""
    assert sorted(p.name for p in CONFIGS.iterdir()) == sorted(
        f"{v.lower()}.json" for v in VARIANTS)
    cfg = json.loads((CONFIGS / f"{variant.lower()}.json").read_text())
    assert cfg == model_spec(variant).to_config()
    assert model_spec(variant).name == variant


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec("D", 3, 16, 8)
    with pytest.raises(ValueError):
        BlockSpec("A", 3, 16, 8, 3)
    with pytest.raises(ValueError):
        BlockSpec("A", 3, 16, 8, 1, ("relu",))
    with pytest.raises(ValueError):
        BlockSpec("C", 3, 16, 8, 1, ("relu", "gelu", "relu"))
    assert BlockSpec("C", 3, 16, 8).activations == ("dysm", "relu", "relu")
    # no slots is a wrong slot count, not the default slots
    with pytest.raises(ValueError, match="takes 3 activation slots"):
        BlockSpec("C", 3, 16, 8, 1, ())


def test_model_spec_validation():
    base = model_spec("tiny")
    with pytest.raises(ValueError):
        dataclasses.replace(base, norm="layer")
    with pytest.raises(ValueError):
        dataclasses.replace(base, dropout=1.5)
    # each field's annotation gives its rule: an int field takes an integer
    # >= 1 (0 would divide by zero while building the network) and a float
    # field a finite number, and neither a boolean
    bad = {"int": (0, True), "float": (True, float("nan"), float("inf")), "str": (5, True)}
    fields = dataclasses.fields(ModelSpec)
    assert {"int", "float", "str"} <= {f.type for f in fields}
    for f in fields:
        for value in bad.get(f.type, ()):
            with pytest.raises(ValueError, match=f.name):
                dataclasses.replace(base, **{f.name: value})
    for scale in ("1", None, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="coeff_scale"):
            dataclasses.replace(base, coeff_scale=scale)
    with pytest.raises(ValueError):
        dataclasses.replace(base, blocks=(BlockSpec("B", 3, 16, 8),
                                          BlockSpec("B", 3, 32, 8)))
    # what ModelSpec accepts, build_model builds: the width law and an odd
    # kernel are checked here, and any finite group_lam fits its groups
    with pytest.raises(ValueError, match="stem width 4 not a multiple of stem hidden 3"):
        dataclasses.replace(base, stem_hidden=3)
    for change, message in (({"width": 9}, "not a multiple"), ({"kernel": 4}, "odd")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(base, blocks=(dataclasses.replace(base.blocks[0], **change),
                                              *base.blocks[1:]))
    def groups(lam):
        net = Network(dataclasses.replace(base, group_lam=lam), rng=np.random.default_rng(0))
        return [blk.squeeze.spec.groups if blk.kind == "A"
                else (blk.pointwise.g1, blk.pointwise.g2) for blk in net.blocks]
    assert groups(1e308) == groups(1e6)


def test_build_model_is_the_network_of_a_named_spec():
    # any other spec is built as Network(spec, rng, dtype)
    net = build_model("tiny", num_classes=3, seed=4, dtype=np.float64)
    want = Network(dataclasses.replace(model_spec("tiny"), num_classes=3),
                   rng=np.random.default_rng(4), dtype=np.float64)
    assert net.spec == want.spec
    for (name, p), (_, q) in zip(net.named_params(), want.named_params(), strict=True):
        assert p.data.tobytes() == q.data.tobytes(), name

"""The eval forward's one fold pass: the eval map of every norm of a
network is computed from the live values on each forward under no_grad,
and each convolution scales its own live weight by it, so no change to a
weight, a norm or its statistics is missed."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micronet import tensor
from micronet.models import BatchNorm2d, build_model
from micronet.module import Context
from micronet.tensor import Tensor, no_grad, softmax_cross_entropy
from micronet.train import SGD, make_synthetic, train_model
from micronet.weights_io import collect_state, load_model, restore_state, save_weights

X = np.random.default_rng(11).standard_normal((1, 3, 32, 32))
BATCH = np.random.default_rng(12).standard_normal((2, 3, 32, 32))


def perturbed(variant="tiny", seed=0):
    """A float64 network whose norms sit away from (1, 0) and whose running
    statistics are not (0, 1), so every input of the fold matters."""
    net = build_model(variant, dtype=np.float64, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _, p in net.named_params():
        p.data += 0.1 * rng.standard_normal(p.shape)
    for name, buf in net.named_buffers():
        buf[...] = rng.uniform(0.5, 2.0, buf.shape) if name.endswith("var") \
            else 0.1 * rng.standard_normal(buf.shape)
    return net


def eval_logits(net, x, grad: bool):
    """Eval logits under no_grad (one fold pass for the network) or with
    gradients on (each convolution folds its own norm)."""
    if grad:
        return net(x, Context()).data
    with no_grad():
        return net(x, Context()).data


def fresh(net, x=X):
    """The no_grad eval logits, checked bit for bit against the
    per-convolution fold."""
    got = eval_logits(net, x, False)
    assert got.tobytes() == eval_logits(net, x, True).tobytes()
    return got


def norms_of(net):
    return [m for _, m in net.named_modules() if isinstance(m, BatchNorm2d)]


def count_folds(monkeypatch):
    """Count the calls of the affine helper both fold paths share."""
    calls = []
    real = tensor._norm_affine

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(tensor, "_norm_affine", counted)
    return calls


def test_no_grad_eval_folds_every_norm_in_one_pass(monkeypatch):
    net = perturbed()
    norms = norms_of(net)
    composed = sum(blk.kind == "A" and blk.depthwise.composed for blk in net.blocks)
    assert len(norms) == 6 and composed == 1
    calls = count_folds(monkeypatch)
    # training folds nothing
    net(BATCH, Context(training=True, rng=np.random.default_rng(0)))
    assert calls == []
    want = eval_logits(net, X, True)
    assert len(calls) == len(norms)
    calls.clear()
    assert eval_logits(net, X, False).tobytes() == want.tobytes()
    # one call over the channels of every norm, the composed pair's included
    assert calls == [sum(n.gamma.shape[0] for n in norms)]


@pytest.mark.parametrize("variant", ["tiny", "M0", "M1", "M2", "M3"])
def test_pass_covers_every_norm(variant):
    net = build_model(variant, seed=0)
    norms = norms_of(net)
    folds = net._norm_folds.prepare()
    assert folds is not None and len(folds) == len(norms)
    assert all(tuple(v.shape for v in folds[n]) == (n.gamma.shape,) * 3 for n in norms)


@pytest.mark.parametrize("target", ["weight", "gamma", "beta", "running_mean",
                                    "running_var", "stem_weight"])
def test_fold_sees_in_place_writes(target):
    net = perturbed()
    blk = list(net.blocks)[1]
    norm = blk.norm2
    before = fresh(net)
    if target == "weight":
        w = blk.pointwise.compress_w
        w.data[...] = w.data * 1.5
    elif target == "stem_weight":
        net.stem.conv2.weight.data[0] += 0.25
    elif target in ("gamma", "beta"):
        p = getattr(norm, target)
        p.data[...] = p.data + 0.5
    else:
        getattr(norm, target)[...] *= 2.0
    assert not np.array_equal(fresh(net), before)


def test_fold_sees_sgd_steps():
    net = perturbed()
    opt = SGD(net.named_params(), lr=0.05)
    before = fresh(net)
    for _ in range(2):
        ctx = Context(training=True, rng=np.random.default_rng(0))
        loss = softmax_cross_entropy(net(BATCH, ctx), np.array([0, 1]))
        opt.zero_grad()
        loss.backward()
        opt.step()
        after = fresh(net)
        assert not np.array_equal(after, before)
        before = after


def test_fold_sees_train_model():
    net = perturbed()
    before = fresh(net)
    images, labels = make_synthetic(8, size=32, seed=3)
    train_model(net, images, labels, epochs=1, base_lr=0.05, batch_size=4, seed=3)
    assert not np.array_equal(fresh(net), before)


@pytest.mark.parametrize("how", ["restore_state", "load_model"])
def test_fold_sees_restored_state(tmp_path, how):
    net, donor = perturbed(seed=0), perturbed(seed=5)
    before = fresh(net)
    if how == "load_model":
        save_weights(tmp_path / "net.mnwt", net)
        net = load_model(tmp_path / "net.mnwt")
        assert fresh(net).tobytes() == before.tobytes()
    restore_state(net, collect_state(donor))
    assert fresh(net).tobytes() == eval_logits(donor, X, False).tobytes()


@pytest.mark.parametrize("target", ["weight", "gamma"])
def test_rebound_array_falls_back_to_each_convolution(target, monkeypatch):
    # a rebound norm array leaves the pass; a rebound weight needs no
    # fallback, since each convolution reads its weight live
    net = perturbed()
    before = fresh(net)
    blk = list(net.blocks)[1]
    p = blk.pointwise.expand_w if target == "weight" else blk.norm3.gamma
    p.data = p.data * 1.5
    calls = count_folds(monkeypatch)
    assert not np.array_equal(fresh(net), before)
    if target == "weight":
        assert len(calls) == 1 + 6
        assert net._norm_folds.prepare() is not None
    else:
        assert len(calls) == 2 * 6
        assert net._norm_folds.prepare() is None


def test_rebound_weight_tensor_is_never_served_a_fold():
    # a module given a new weight Tensor: the pass holds no weights, so it
    # still runs, and the convolution scales the new weight
    net = perturbed()
    before = fresh(net)
    w = list(net.blocks)[1].pointwise.compress_w
    list(net.blocks)[1].pointwise.compress_w = Tensor(w.data * 1.5, requires_grad=True)
    assert net._norm_folds.prepare() is not None
    assert not np.array_equal(fresh(net), before)


def test_sub_module_after_network_forward():
    # the folds are the network forward's alone: a block called afterwards,
    # with its norm changed in between, folds its own
    net = perturbed()
    with no_grad():
        t = list(net.blocks)[0](net.stem(Tensor(X), Context()), Context())
    eval_logits(net, X, False)
    blk = list(net.blocks)[1]
    blk.norm2.running_mean[...] += 1.0
    blk.pointwise.compress_w.data[...] *= 0.5
    with no_grad():
        got = blk(t, Context()).data
    assert got.tobytes() == blk(t, Context()).data.tobytes()


def test_eval_gradients_after_no_grad_forwards():
    # gradients of an eval forward with gradients on are those of a network
    # that never ran a no_grad forward, and stay so after a second forward
    net, twin = perturbed(), perturbed()
    labels = np.array([1])
    for _ in range(2):
        fresh(net)
        for n in (net, twin):
            for _, p in n.named_params():
                p.grad = None
            softmax_cross_entropy(n(X, Context()), labels).backward()
        for (name, p), (_, q) in zip(net.named_params(), twin.named_params()):
            assert p.grad.tobytes() == q.grad.tobytes(), name


def test_deep_copy_folds_its_own_values():
    net = perturbed()
    before = fresh(net)
    twin = copy.deepcopy(net)
    assert fresh(twin).tobytes() == before.tobytes()
    list(twin.blocks)[1].norm2.gamma.data[...] *= 3.0
    assert not np.array_equal(fresh(twin), before)
    assert fresh(net).tobytes() == before.tobytes()


def test_no_grad_eval_draws_no_rng(monkeypatch):
    # only a training forward's dropout reads the Context's rng
    net = perturbed()
    want = eval_logits(net, X, False)

    def refuse(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert eval_logits(net, X, False).tobytes() == want.tobytes()


def _step(net, donor, kind, rng):
    norms = norms_of(net)
    convs = [p for _, p in net.named_params() if p.data.ndim == 4]
    norm, w = norms[rng.integers(len(norms))], convs[rng.integers(len(convs))]
    if kind == "write":
        arrays = [w.data, norm.gamma.data, norm.beta.data, norm.running_mean]
        arr = arrays[rng.integers(len(arrays))]
        arr[...] = arr * rng.uniform(0.5, 1.5) + rng.uniform(-0.1, 0.1)
        norm.running_var[...] = rng.uniform(0.5, 2.0, norm.running_var.shape)
    elif kind == "sgd":
        opt = SGD(net.named_params(), lr=0.01)
        ctx = Context(training=True, rng=np.random.default_rng(0))
        loss = softmax_cross_entropy(net(BATCH, ctx), np.array([0, 1]))
        loss.backward()
        opt.step()
        opt.zero_grad()
    elif kind == "train":
        with no_grad():
            net(BATCH, Context(training=True, rng=np.random.default_rng(0)))
    elif kind == "restore":
        restore_state(net, collect_state(donor))
    else:
        p = (w, norm.gamma, norm.beta)[rng.integers(3)]
        p.data = p.data * rng.uniform(0.5, 1.5)


@given(variant=st.sampled_from(["tiny", "M0"]),
       steps=st.lists(st.tuples(st.sampled_from(
           ["write", "sgd", "train", "restore", "rebind"]),
           st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
@settings(max_examples=15, deadline=None)
def test_fold_follows_any_sequence_of_changes(variant, steps):
    net, donor = perturbed(variant), perturbed(variant, seed=9)
    fresh(net)
    for kind, seed in steps:
        _step(net, donor, kind, np.random.default_rng(seed))
        fresh(net)

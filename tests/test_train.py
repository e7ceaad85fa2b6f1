"""Optimizer math, schedule shape, loop determinism, gradient checking
and the synthetic dataset."""

import numpy as np
import pytest
from reference import finite_difference_check

from micronet import models
from micronet.models import build_model
from micronet.tensor import Tensor
from micronet.train import (SGD, NonFiniteError, cosine_lr, evaluate, iterate_batches,
                            make_synthetic, train_model)


def test_sgd_two_steps_by_hand():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = SGD([("p", p)], lr=0.1, momentum=0.9, weight_decay=0.01)
    w = np.array([1.0, -2.0])
    v = np.zeros(2)
    for g in (np.array([0.5, 0.5]), np.array([-1.0, 2.0])):
        p.grad = g.copy()
        opt.step()
        v = 0.9 * v + g + 0.01 * w
        w = w - 0.1 * v
    np.testing.assert_allclose(p.data, w, atol=1e-15)


def test_sgd_skips_unused_and_needs_parameters():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = SGD([("p", p)], lr=0.5)
    opt.step()
    np.testing.assert_array_equal(p.data, np.ones(3))
    with pytest.raises(ValueError):
        SGD([], lr=0.1)


def test_cosine_schedule_shape():
    assert cosine_lr(0.2, 0, 10) == pytest.approx(0.2)
    assert cosine_lr(0.2, 5, 10) == pytest.approx(0.1)
    assert cosine_lr(0.2, 10, 10) == pytest.approx(0.0)
    vals = [cosine_lr(0.2, e, 10) for e in range(11)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        cosine_lr(0.2, 0, 0)


def test_iterate_batches_partitions_data():
    images = np.arange(10)[:, None]
    labels = np.arange(10)
    seen = []
    for xb, yb in iterate_batches(images, labels, 3, np.random.default_rng(0)):
        assert (xb[:, 0] == yb).all()
        seen.extend(yb.tolist())
    assert sorted(seen) == list(range(10))


def test_training_is_deterministic_per_seed():
    images, labels = make_synthetic(48, seed=1)
    runs = []
    for _ in range(2):
        net = build_model("tiny", seed=5, dtype=np.float64)
        hist = train_model(net, images, labels, epochs=3, base_lr=0.05,
                           batch_size=16, weight_decay=3e-5, seed=5)
        runs.append((hist, {n: p.data.copy() for n, p in net.named_params()}))
    assert runs[0][0] == runs[1][0]
    for name, arr in runs[0][1].items():
        np.testing.assert_array_equal(arr, runs[1][1][name], err_msg=name)


def test_training_converges_single_seed():
    images, labels = make_synthetic(96, seed=2)
    net = build_model("tiny", seed=0, dtype=np.float64)
    hist = train_model(net, images, labels, epochs=15, base_lr=0.05,
                       batch_size=16, weight_decay=3e-5, seed=0,
                       target_accuracy=0.99)
    assert hist[-1].accuracy >= 0.99
    assert len(hist) < 15
    # the last step's gradients are dropped on return
    assert all(p.grad is None for _, p in net.named_params())
    loss, acc = evaluate(net, images, labels)
    assert acc >= 0.99 and loss < 0.5


def test_non_finite_loss_stops_training():
    images, labels = make_synthetic(64, seed=0)
    net = build_model("tiny", seed=0, dtype=np.float64)
    seen = []
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
        train_model(net, images, labels, epochs=3, base_lr=1e12, weight_decay=3e-5,
                    seed=0, log=seen.append)
    assert isinstance(err.value, ValueError)
    assert (err.value.epoch, err.value.step, err.value.tensor) == (1, 0, "loss")
    assert str(err.value) == "non-finite loss at epoch 1, step 0"
    assert [s.epoch for s in seen] == [0]


def test_non_finite_gradient_names_first_parameter(monkeypatch):
    images, labels = make_synthetic(32, seed=0)
    net = build_model("tiny", seed=0, dtype=np.float64)
    before = {name: p.data.copy() for name, p in net.named_params()}
    linear = models.linear

    def poisoned(x, w, b):
        # the head's biases get one NaN gradient element each
        out = linear(x, w, b)
        backward = out._backward

        def poison(g):
            backward(g)
            b.grad[-1] = np.nan

        out._backward = poison
        return out

    monkeypatch.setattr(models, "linear", poisoned)
    with pytest.raises(NonFiniteError) as err:
        train_model(net, images, labels, epochs=2, base_lr=0.05, seed=0)
    assert str(err.value) == "non-finite gradient of head.fc1_b at epoch 0, step 0"
    # raised before the update, with the step's gradients kept
    for name, p in net.named_params():
        np.testing.assert_array_equal(p.data, before[name])
    assert np.isnan(net.head.fc1_b.grad[-1])


def test_evaluate_matches_manual_accuracy():
    # 80 images: a full batch of 64, then one of 16
    images, labels = make_synthetic(80, seed=3)
    net = build_model("tiny", seed=1, dtype=np.float64)
    _, acc = evaluate(net, images, labels)
    from micronet.module import Context
    from micronet.tensor import no_grad
    with no_grad():
        preds = net(images, Context()).data.argmax(axis=1)
    assert acc == pytest.approx((preds == labels).mean())


def test_finite_difference_check_flags_wrong_gradient():
    from micronet.tensor import softmax_cross_entropy

    w = Tensor(np.array([[0.3, -0.4, 0.9]]), requires_grad=True)

    def bad_square(t):
        # deliberately wrong backward factor (1.8 instead of 2.0)
        out = Tensor(t.data ** 2)
        out.requires_grad = True
        out._parents = (t,)

        def backward(g):
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += 1.8 * t.data * g

        out._backward = backward
        return out

    def loss():
        return softmax_cross_entropy(bad_square(w), np.array([0]))

    probes = finite_difference_check(loss, [("w", w)], probes=3)
    assert any(not p.ok for p in probes)


def test_finite_difference_check_passes_correct_gradient():
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x, b = rng.standard_normal((2, 4)), Tensor(np.zeros(3))

    def loss():
        from micronet.tensor import linear, softmax_cross_entropy
        return softmax_cross_entropy(linear(Tensor(x), w, b), np.array([0, 2]))

    probes = finite_difference_check(loss, [("w", w)], probes=12)
    assert all(p.ok for p in probes)
    assert len(probes) == 12


def test_make_synthetic_is_balanced_and_separable():
    images, labels = make_synthetic(64, seed=4)
    assert images.shape == (64, 3, 32, 32)
    assert labels.dtype == np.uint32
    assert np.bincount(labels).tolist() == [32, 32]
    means = images.mean(axis=(2, 3))
    margin = means[:, 0] - means[:, 2]
    assert (margin[labels == 0] > 0.5).all()
    assert (margin[labels == 1] < -0.5).all()
    with pytest.raises(ValueError):
        make_synthetic(1)

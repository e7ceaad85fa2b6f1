"""Training utilities: SGD with momentum, cosine learning-rate decay, a
minibatch loop with per-epoch stats, and a small separable synthetic
dataset."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .module import Context
from .tensor import no_grad, softmax_cross_entropy


class SGD:
    """Momentum SGD. Weight decay is folded into the gradient:
    v <- momentum * v + g + wd * p, then p <- p - lr * v."""

    def __init__(self, params, lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        self.params = []
        seen = set()
        for item in params:
            p = item[1] if isinstance(item, tuple) else item
            if id(p) not in seen:
                seen.add(id(p))
                self.params.append(p)
        if not self.params:
            raise ValueError("no parameters to optimize")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Half-cosine decay from base_lr at epoch 0 toward zero."""
    if total_epochs <= 0:
        raise ValueError("total_epochs must be positive")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


class NonFiniteError(ValueError):
    """Training met a loss or a gradient that is not finite. step is None
    for a value taken after the epoch, such as an evaluation loss."""

    def __init__(self, epoch: int, step: int | None, tensor: str):
        where = f"after epoch {epoch}" if step is None else f"at epoch {epoch}, step {step}"
        super().__init__(f"non-finite {tensor} {where}")
        self.epoch = epoch
        self.step = step
        self.tensor = tensor


def _check_finite(loss, named_params, epoch: int, step: int):
    """Raise NonFiniteError naming the loss or the first parameter, in
    named_params order, whose gradient is not finite."""
    if not np.isfinite(loss.data):
        raise NonFiniteError(epoch, step, "loss")
    for name, p in named_params:
        g = p.grad
        # a finite sum clears a gradient without a full isfinite pass
        if g is not None and not np.isfinite(g.sum()) and not np.isfinite(g).all():
            raise NonFiniteError(epoch, step, f"gradient of {name}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    loss: float
    accuracy: float
    # wall time of the epoch; runs with equal results compare equal
    seconds: float = field(compare=False)


def iterate_batches(images, labels, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(labels))
    for start in range(0, len(order), batch_size):
        take = order[start:start + batch_size]
        yield images[take], labels[take]


def train_model(net, images, labels, *, epochs: int, base_lr: float,
                batch_size: int = 16, momentum: float = 0.9,
                weight_decay: float = 0.0, seed: int = 0,
                target_accuracy: float | None = None,
                log=None) -> list[EpochStats]:
    """Minibatch training with a cosine schedule. Stops early once the
    running training accuracy reaches target_accuracy, if given.
    Deterministic for a fixed seed. Raises NonFiniteError, before the
    update, on a step whose loss or any gradient is not finite; the
    gradients of that step stay on the parameters. A normal return leaves
    no gradients."""
    images = np.asarray(images, dtype=net.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    named = list(net.named_params())
    opt = SGD(named, lr=base_lr, momentum=momentum, weight_decay=weight_decay)
    history = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        opt.lr = cosine_lr(base_lr, epoch, epochs)
        total_loss = 0.0
        correct = 0
        for step, (xb, yb) in enumerate(iterate_batches(images, labels, batch_size, rng)):
            ctx = Context(training=True, rng=rng)
            logits = net(xb, ctx)
            loss = softmax_cross_entropy(logits, yb)
            opt.zero_grad()
            loss.backward()
            _check_finite(loss, named, epoch, step)
            opt.step()
            total_loss += float(loss.data) * len(yb)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
        stats = EpochStats(epoch, opt.lr, total_loss / len(labels),
                           correct / len(labels), time.perf_counter() - t0)
        history.append(stats)
        if log is not None:
            log(stats)
        if target_accuracy is not None and stats.accuracy >= target_accuracy:
            break
    # the trained network keeps its parameters and buffers, not the
    # gradients of the last step
    opt.zero_grad()
    return history


def evaluate(net, images, labels, batch_size: int = 64) -> tuple[float, float]:
    """Mean loss and accuracy without gradient tracking or stat updates."""
    images = np.asarray(images, dtype=net.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    total_loss = 0.0
    correct = 0
    with no_grad():
        for start in range(0, len(labels), batch_size):
            xb = images[start:start + batch_size]
            yb = labels[start:start + batch_size]
            logits = net(xb, Context(training=False))
            loss = softmax_cross_entropy(logits, yb)
            total_loss += float(loss.data) * len(yb)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
    return total_loss / len(labels), correct / len(labels)


# ---------------------------------------------------------------------------
# synthetic data

def make_synthetic(n: int, *, size: int = 32, seed: int = 0,
                   dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Two-class images separable by channel means: class 0 carries a
    constant bump of 1 on channel 0, class 1 on channel 2, over Gaussian
    noise of standard deviation 0.5. The per-channel spatial mean gives a
    margin of about 1 against noise of order 0.5/size, so the classes stay
    linearly separable after any channel-preserving pooling."""
    if n < 2:
        raise ValueError("need at least one image per class")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    rng.shuffle(labels)
    images = 0.5 * rng.standard_normal((n, 3, size, size))
    images[labels == 0, 0] += 1.0
    images[labels == 1, 2] += 1.0
    return images.astype(dtype), labels.astype(np.uint32)

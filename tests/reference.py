"""Independent oracles for the tests: naive scalar-loop kernels and a
whole-network forward built from them, the scalar Dynamic Shift-Max, a
brute-force path count, gradient checking by central differences, and
the ReLU op and the softmax that the fused kernels are checked against.

Each kernel optionally increments a multiply-accumulate counter once per
fused multiply-add, matching the analyzer's convention (bias adds,
normalization and activations are free), so the count of a
network_forward is an independent check of count_costs.
"""

from dataclasses import dataclass

import numpy as np

from micronet.microfac import adaptive_groups
from micronet.tensor import ConvSpec, Tensor, _accumulate, _result, no_grad


class MAddCounter:
    def __init__(self):
        self.count = 0

    def tick(self, n=1):
        self.count += n


def conv2d_naive(x: np.ndarray, w: np.ndarray, spec: ConvSpec,
                 counter: MAddCounter | None = None) -> np.ndarray:
    n, c, h, wd = x.shape
    kh, kw = spec.kernel
    sh, sw = spec.stride
    ph, pw = spec.padding
    g = spec.groups
    cg = spec.in_channels // g
    og = spec.out_channels // g
    oh, ow = spec.out_size(h, wd)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, spec.out_channels, oh, ow), dtype=x.dtype)
    for b in range(n):
        for co in range(spec.out_channels):
            grp = co // og
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (xp[b, grp * cg + ci, i * sh + u, j * sw + v]
                                        * w[co, ci, u, v])
                                if counter is not None:
                                    counter.tick()
                    out[b, co, i, j] = acc
    return out


def linear_naive(x: np.ndarray, w: np.ndarray, bias,
                 counter: MAddCounter | None = None) -> np.ndarray:
    n, din = x.shape
    dout = w.shape[0]
    out = np.zeros((n, dout), dtype=x.dtype)
    for b in range(n):
        for o in range(dout):
            acc = 0.0
            for i in range(din):
                acc += x[b, i] * w[o, i]
                if counter is not None:
                    counter.tick()
            out[b, o] = acc + bias[o]
    return out


def global_avg_pool_naive(x: np.ndarray,
                          counter: MAddCounter | None = None) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[b, ch, i, j]
                    if counter is not None:
                        counter.tick()
            out[b, ch] = acc / (h * w)
    return out


def relu(x: Tensor) -> Tensor:
    """ReLU as an op of its own, the reference for the ops' epilogue."""
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0), owned=True)

    return _result(out, [x], backward)


def softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row of (N, classes) logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Dynamic Shift-Max

def sigmoid_coefficients(layer, x: np.ndarray,
                         counter: MAddCounter | None = None) -> np.ndarray:
    """A DyShiftMax layer's coefficients (N, C, J, K) on x by the sigmoid
    formula, its head run through the naive kernels."""
    n, c = x.shape[:2]
    z = global_avg_pool_naive(x, counter)
    hid = np.maximum(linear_naive(z, layer.fc1_w.data, layer.fc1_b.data, counter), 0)
    raw = linear_naive(hid, layer.fc2_w.data, layer.fc2_b.data, counter)
    sig = 1.0 / (1.0 + np.exp(-raw))
    return (2.0 * layer.coeff_scale * sig - layer.coeff_scale).reshape(
        n, c, layer.num_shifts, layer.num_fusions) + layer.init_bias[None, None]


def coeff_bounds(layer) -> tuple[float, float]:
    """Closed interval containing every coefficient of a DyShiftMax layer
    for any input."""
    return (float(layer.init_bias.min()) - layer.coeff_scale,
            float(layer.init_bias.max()) + layer.coeff_scale)


def shift_fusions(x: np.ndarray, a: np.ndarray, groups: int) -> np.ndarray:
    """The K fusions (K, N, C, H, W) of coefficients a (N, C, J, K) over x:
    fusion k of channel i sums a[:, i, j, k] * x[:, (i + j*C/G) mod C]."""
    stride = x.shape[1] // groups
    return np.stack([sum(a[:, :, j, k, None, None] * np.roll(x, -j * stride, axis=1)
                         for j in range(a.shape[2])) for k in range(a.shape[3])])


def reference_eval(layer, x: np.ndarray,
                   counter: MAddCounter | None = None) -> np.ndarray:
    """Direct per-element evaluation of the shift-max definition."""
    n, c, hh, ww = x.shape
    j_n, k_n = layer.num_shifts, layer.num_fusions
    stride = c // layer.groups
    a = sigmoid_coefficients(layer, x, counter)
    out = np.empty_like(x)
    for b in range(n):
        for i in range(c):
            for p in range(hh):
                for q in range(ww):
                    best = -np.inf
                    for k in range(k_n):
                        acc = 0.0
                        for j in range(j_n):
                            acc += a[b, i, j, k] * x[b, (i + j * stride) % c, p, q]
                            if counter is not None:
                                counter.tick()
                        if acc > best:
                            best = acc
                    out[b, i, p, q] = best
    return out


# ---------------------------------------------------------------------------
# whole network

def network_forward(net, x: np.ndarray, training: bool = False,
                    counter: MAddCounter | None = None) -> np.ndarray:
    """The logits of net on x from the kernels above, reading the network's
    own parameters and, from net.spec, each block's kind and activation
    slots: every convolution stage through conv2d_naive, batch norm as its
    formula (batch statistics in training, running statistics at eval),
    dynamic shift-max through reference_eval, the shuffle as a channel
    index, and the skip add. Dropout is not applied, so a training forward
    is compared on a network built with dropout 0."""

    def conv(t, w, spec, norm=None):
        y = conv2d_naive(t, w.data, spec, counter)
        if norm is None:
            return y
        if training:
            mean, var = y.mean(axis=(0, 2, 3)), y.var(axis=(0, 2, 3))
        else:
            mean, var = norm.running_mean, norm.running_var
        scale = norm.gamma.data / np.sqrt(var + 1e-5)      # every norm's eps
        return ((y - mean[:, None, None]) * scale[:, None, None]
                + norm.beta.data[:, None, None])

    def act(slot, layer, t):
        if slot == "dysm":
            return reference_eval(layer, t, counter)
        return np.maximum(t, 0) if slot == "relu" else t

    stem = net.stem
    t = conv(x, stem.conv1.weight, stem.conv1.spec)
    t = np.maximum(conv(t, stem.conv2.weight, stem.conv2.spec, stem.norm), 0)
    for blk, bs in zip(net.blocks, net.spec.blocks):
        s = bs.activations
        dw = blk.depthwise
        y = conv(conv(t, dw.col_w, dw.col_spec), dw.row_w, dw.row_spec, blk.norm1)
        y = act(s[0], blk.act1, y)
        if bs.kind == "A":
            t = act(s[1], blk.act2, conv(y, blk.squeeze.weight, blk.squeeze.spec, blk.norm2))
            continue
        pw = blk.pointwise
        y = act(s[1], blk.act2, conv(y, pw.compress_w, pw.compress_spec, blk.norm2))
        y = act(s[2], blk.act3, conv(y[:, pw.perm], pw.expand_w, pw.expand_spec, blk.norm3))
        t = y + t if blk.skip else y
    head = net.head
    z = global_avg_pool_naive(t, counter)
    z = np.maximum(linear_naive(z, head.fc1_w.data, head.fc1_b.data, counter), 0)
    return linear_naive(z, head.fc2_w.data, head.fc2_b.data, counter)


# ---------------------------------------------------------------------------
# counts

def conv_madds(spec: ConvSpec, h: int, w: int) -> int:
    """Multiply-adds of one image through spec at h x w: every weight of an
    output channel once per output position."""
    oh, ow = spec.out_size(h, w)
    return oh * ow * spec.out_channels * spec.fan_in()


def param_count(module) -> int:
    """The number of scalars in module's parameters."""
    return sum(p.data.size for _, p in module.named_params())


# ---------------------------------------------------------------------------
# factorized pointwise: paths and the conventional alternative

def path_count_oracle(layer, out_channel: int) -> int:
    """Count (input channel, hidden channel) routes of a MicroFacPointwise
    reaching one output by brute-force graph walk, independent of the
    connectivity formula."""
    cin, hid = layer.in_channels, layer.hidden
    in_per_g1 = cin // layer.g1
    hid_per_g1 = hid // layer.g1
    hid_per_g2 = hid // layer.g2
    out_group = out_channel // (layer.out_channels // layer.g2)
    inv = np.argsort(layer.perm)
    return sum(1 for i in range(cin) for h in range(hid)
               if i // in_per_g1 == h // hid_per_g1 and inv[h] // hid_per_g2 == out_group)


def regular_combination_madds(in_channels: int, dw_channels: int,
                              out_channels: int, kernel: int,
                              h: int, w: int, lam: float = 1.0) -> int:
    """Cost of the conventional alternative at the same spatial width:
    grouped pointwise expand, factorized depthwise, grouped pointwise fuse."""
    ge = adaptive_groups(in_channels, dw_channels, lam)
    gs = adaptive_groups(dw_channels, out_channels, lam)
    expand = conv_madds(ConvSpec(in_channels, dw_channels, 1, groups=ge), h, w)
    dw = 2 * kernel * dw_channels * h * w
    fuse = conv_madds(ConvSpec(dw_channels, out_channels, 1, groups=gs), h, w)
    return expand + dw + fuse


# ---------------------------------------------------------------------------
# gradient checking

@dataclass(frozen=True)
class GradProbe:
    param: str
    index: int
    analytic: float
    numeric: float
    ok: bool


def finite_difference_check(loss_fn, named_params, *, probes: int = 20,
                            step: float = 1e-6, rtol: float = 1e-5,
                            atol: float = 1e-8,
                            rng: np.random.Generator | None = None,
                            same_branches=None) -> list[GradProbe]:
    """Compare backpropagated gradients against central differences.

    loss_fn must be a deterministic zero-argument callable returning a
    scalar Tensor; parameters should be float64 for the default step.
    same_branches, if given, is called after each perturbed evaluation and
    says whether it took the branches of the unperturbed one: a probe for
    which either call says no straddles a kink and is left out."""
    rng = rng or np.random.default_rng(0)
    named_params = list(named_params)
    for _, p in named_params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in named_params}

    results = []
    with no_grad():
        for name, p in named_params:
            flat = p.data.reshape(-1)
            n = flat.size
            picks = rng.choice(n, size=min(probes, n), replace=False)
            for i in picks:
                saved = flat[i]
                flat[i] = saved + step
                up = float(loss_fn().data)
                kept = same_branches is None or same_branches()
                flat[i] = saved - step
                down = float(loss_fn().data)
                kept = kept and (same_branches is None or same_branches())
                flat[i] = saved
                if not kept:
                    continue
                numeric = (up - down) / (2.0 * step)
                ana = float(analytic[name].reshape(-1)[i])
                ok = abs(numeric - ana) <= atol + rtol * max(abs(numeric), abs(ana))
                results.append(GradProbe(name, int(i), ana, numeric, ok))
    return results

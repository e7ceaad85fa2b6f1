"""Naive scalar-loop reference kernels, and a whole-network forward built
from them.

These exist to check the vectorized implementations and the cost model,
not to be fast. Each kernel optionally increments a multiply-accumulate
counter once per fused multiply-add, matching the analyzer's convention
(bias adds, normalization and activations are free), so the count of a
network_forward is an independent check of count_costs.
"""

from __future__ import annotations

import numpy as np

from .tensor import ConvSpec


class MAddCounter:
    def __init__(self):
        self.count = 0

    def tick(self, n=1):
        self.count += n


def conv2d_naive(x: np.ndarray, w: np.ndarray, bias, spec: ConvSpec,
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
                    if bias is not None:
                        acc += bias[co]
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
            if bias is not None:
                acc += bias[o]
            out[b, o] = acc
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


def network_forward(net, x: np.ndarray, training: bool = False,
                    counter: MAddCounter | None = None) -> np.ndarray:
    """The logits of net on x from the kernels above, reading the network's
    own parameters and, from net.spec, each block's kind and activation
    slots: every convolution stage through conv2d_naive, batch norm as its
    formula (batch statistics in training, running statistics at eval),
    dynamic shift-max through reference_eval, the shuffle as a channel
    index, and the skip add. Dropout is not applied, so a training forward
    is compared on a network built with dropout 0."""
    # imported here: dyshiftmax, and through it models, import this module
    from .dyshiftmax import reference_eval

    def conv(t, w, spec, norm=None):
        y = conv2d_naive(t, w.data, None, spec, counter)
        if norm is None:
            return y
        if training:
            mean, var = y.mean(axis=(0, 2, 3)), y.var(axis=(0, 2, 3))
        else:
            mean, var = norm.running_mean, norm.running_var
        scale = norm.gamma.data / np.sqrt(var + norm.eps)
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

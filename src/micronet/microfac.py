"""Micro-factorized convolution operators.

A pointwise (1x1) convolution from C_in to C_out channels is factorized
into two grouped 1x1 convolutions around a channel shuffle (a
permute_channels op of its own), so that its dense equivalent
W = expand . shuffle . compress splits into low-rank blocks. A k x k
depthwise convolution is factorized into a k x 1 and a 1 x k stage, one
rank-1 spatial kernel per channel. The pointwise group counts multiply to
the bottleneck width, each kept near its square root.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .module import Context, Module, he_normal
from .tensor import ConvSpec, Tensor, conv2d, conv2d_composed, permute_channels


# ---------------------------------------------------------------------------
# group-count laws

def fit_groups(target: float, *channel_counts: int) -> int:
    """Clamp target to [1, min(counts)], round it half-up, then step down to
    a common divisor of all channel counts."""
    g = int(math.floor(min(max(target, 1), min(channel_counts)) + 0.5))
    while g > 1 and any(c % g for c in channel_counts):
        g -= 1
    return g


def adaptive_groups(in_channels: int, out_channels: int, lam: float = 1.0) -> int:
    """Group count for a single group-adaptive 1x1 convolution."""
    target = lam * math.sqrt(min(in_channels, out_channels))
    return fit_groups(target, in_channels, out_channels)


def pick_group_pair(hidden: int, in_channels: int, out_channels: int,
                    lam: float = 1.0) -> tuple[int, int]:
    """Choose (G1, G2) with G1*G2 == hidden, G1 | C_in and G2 | C_out.

    The complementary-divisor constraint routes exactly one hidden channel
    to every (compress group, expand group) pair, which is what makes each
    block of the dense equivalent rank 1 and gives every output channel
    exactly C_in input paths. Both factors are kept as close as possible
    to lam * sqrt(hidden). Raises ValueError when no such pair exists.
    """
    # G1 divides hidden and C_in: the divisors of their gcd, up to its square
    # root; a hidden width below 1 has none
    g = math.gcd(hidden, in_channels) if hidden > 0 else 0
    pairs = [(g1, hidden // g1) for d in range(1, math.isqrt(g) + 1) if g % d == 0
             for g1 in (d, g // d) if out_channels % (hidden // g1) == 0]
    if not pairs:
        raise ValueError(f"no G1*G2 = hidden width {hidden} with G1 dividing input "
                         f"width {in_channels} and G2 dividing width {out_channels}")
    t = lam * math.sqrt(hidden)
    return min(pairs, key=lambda p: (abs(p[0] - t) + abs(p[1] - t), p[0]))


# ---------------------------------------------------------------------------
# channel shuffle

def shuffle_permutation(channels: int, groups: int) -> np.ndarray:
    """Transpose shuffle: view channels as (groups, C/groups), transpose,
    flatten. Output channel i takes input channel perm[i]."""
    if channels % groups:
        raise ValueError(f"groups {groups} does not divide {channels} channels")
    return np.arange(channels).reshape(groups, channels // groups).T.reshape(-1)


# ---------------------------------------------------------------------------
# factorized pointwise convolution

class MicroFacPointwise(Module):
    """1x1 convolution factorized as compress (G1 groups), shuffle, expand
    (G2 groups) through a hidden bottleneck."""

    def __init__(self, in_channels: int, out_channels: int, hidden: int,
                 groups: tuple[int, int] | None = None, lam: float = 1.0, *,
                 rng: np.random.Generator, dtype=np.float64):
        g1, g2 = groups if groups is not None else pick_group_pair(
            hidden, in_channels, out_channels, lam)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.hidden = hidden
        self.g1 = g1
        self.g2 = g2
        self.compress_spec = ConvSpec(in_channels, hidden, 1, groups=g1)
        self.expand_spec = ConvSpec(hidden, out_channels, 1, groups=g2)
        self.compress_w = he_normal(self.compress_spec.weight_shape,
                                    in_channels // g1, rng, dtype)
        self.expand_w = he_normal(self.expand_spec.weight_shape,
                                  hidden // g2, rng, dtype)

    @cached_property
    def perm(self) -> np.ndarray:
        """The shuffle between compress and expand, made on first use, so a
        rebuild that claims a hidden width its archive lacks never fills it."""
        return shuffle_permutation(self.hidden, self.g1)

    def compress(self, x: Tensor, ctx: Context, norm: Module | None = None,
                 act: str | None = None) -> Tensor:
        return conv2d(x, self.compress_w, spec=self.compress_spec, norm=norm,
                      training=ctx.training, act=act)

    def shuffle(self, x: Tensor) -> Tensor:
        """The channel shuffle between compress (after its norm and
        activation) and expand, as one permute_channels op."""
        return permute_channels(x, self.perm)

    def expand(self, x: Tensor, ctx: Context, norm: Module | None = None,
               act: str | None = None) -> Tensor:
        return conv2d(x, self.expand_w, spec=self.expand_spec, norm=norm,
                      training=ctx.training, act=act)

    def forward(self, x: Tensor, ctx: Context) -> Tensor:
        return self.expand(self.shuffle(self.compress(x, ctx)), ctx)

    def expand_dense(self) -> np.ndarray:
        """Multiply the three factors out to the dense (C_out, C_in) matrix."""
        return _dense_product(self, self.compress_w.data, self.expand_w.data)


def _dense_product(layer: MicroFacPointwise, compress_w, expand_w) -> np.ndarray:
    """expand . shuffle . compress of layer with the given factor weights;
    the shuffle is a row index of the compress matrix."""
    q = _group_conv_matrix(compress_w, layer.g1)
    return _group_conv_matrix(expand_w, layer.g2) @ q[layer.perm]


def _group_conv_matrix(w: np.ndarray, groups: int) -> np.ndarray:
    """Dense matrix of a grouped 1x1 convolution weight (C_out, C_in/g, 1, 1)."""
    o, cg = w.shape[0], w.shape[1]
    og = o // groups
    m = np.zeros((o, cg * groups), dtype=w.dtype)
    for g in range(groups):
        m[g * og:(g + 1) * og, g * cg:(g + 1) * cg] = w[g * og:(g + 1) * og, :, 0, 0]
    return m


def path_count_matrix(layer: MicroFacPointwise) -> np.ndarray:
    """Path counts for all (output, input) pairs: the dense product of
    factors whose every weight is 1."""
    return _dense_product(layer, np.ones(layer.compress_spec.weight_shape, np.int64),
                          np.ones(layer.expand_spec.weight_shape, np.int64))


# ---------------------------------------------------------------------------
# factorized depthwise convolution

class MicroFacDepthwise(Module):
    """Per-channel k x k kernel expressed as the outer product of a k x 1
    column filter and a 1 x k row filter.

    With expansion > 1 the column stage applies several filters per input
    channel, so the operator widens the feature map while staying
    depthwise. Stride is split along the matching kernel direction.
    """

    def __init__(self, channels: int, kernel: int, stride: int = 1,
                 expansion: int = 1, *, rng: np.random.Generator, dtype=np.float64):
        if kernel % 2 == 0:
            raise ValueError("kernel size must be odd")
        if expansion < 1:
            raise ValueError("expansion must be >= 1")
        out = channels * expansion
        pad = (kernel - 1) // 2
        self.channels = channels
        self.out_channels = out
        self.kernel = kernel
        self.stride = stride
        self.col_spec = ConvSpec(channels, out, (kernel, 1), stride=(stride, 1),
                                 padding=(pad, 0), groups=channels)
        self.row_spec = ConvSpec(out, out, (1, kernel), stride=(1, stride),
                                 padding=(0, pad), groups=out)
        self.col_w = he_normal(self.col_spec.weight_shape, kernel, rng, dtype)
        self.row_w = he_normal(self.row_spec.weight_shape, kernel, rng, dtype)

    def forward(self, x: Tensor, ctx: Context, norm: Module | None = None,
                act: str | None = None) -> Tensor:
        """The column then the row stage; norm and then act, if given, follow
        the row stage.

        A pair that expands runs as its one k x k convolution, the outer
        product col_w * row_w under dense_spec(), at eval and in training
        alike (README "Kernels")."""
        if self.composed:
            return conv2d_composed(x, self.col_w, self.row_w, spec=self.dense_spec(),
                                   norm=norm, training=ctx.training, act=act)
        return conv2d(conv2d(x, self.col_w, spec=self.col_spec), self.row_w,
                      spec=self.row_spec, norm=norm, training=ctx.training, act=act)

    @property
    def composed(self) -> bool:
        """Whether the pair runs as one k x k convolution: whenever it
        expands, so every 1-D depthwise stage has one output per channel. A
        pair that does not expand stays factorized: 2k taps, where composed
        it would run k^2."""
        return self.out_channels > self.channels

    def dense_spec(self) -> ConvSpec:
        pad = (self.kernel - 1) // 2
        return ConvSpec(self.channels, self.out_channels, self.kernel,
                        stride=self.stride, padding=pad, groups=self.channels)

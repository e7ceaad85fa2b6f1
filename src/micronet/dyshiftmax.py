"""Dynamic shift-max activation.

Each output channel takes the maximum over K candidate fusions; fusion k
sums J circularly shifted copies of the input weighted by coefficients
predicted per sample from globally pooled features:

    y[i] = max_k  sum_j  a[i, j, k](x) * x[(i + j*C/G) mod C]

The coefficient head is a squeeze of the pooled vector through two fully
connected layers and a sigmoid, affinely remapped so the operator starts
at an identity-biased point; it runs as one op, `tensor.coefficient_head`,
which computes the remapped sigmoid as a scaled tanh.
"""

from __future__ import annotations

import numpy as np

from .module import Context, Module, he_normal, zeros_param
from .reference import MAddCounter, global_avg_pool_naive, linear_naive
from .tensor import Tensor, coefficient_head, shift_max


def circular_shift(x: np.ndarray, j: int, groups: int) -> np.ndarray:
    """Shift channels by j * C/groups positions: output i reads input
    (i + j*C/G) mod C."""
    c = x.shape[1]
    if c % groups:
        raise ValueError(f"groups {groups} does not divide {c} channels")
    return np.roll(x, -(j * (c // groups)) % c, axis=1)


class DyShiftMax(Module):
    """Max-of-fusions activation with input-dependent coefficients.

    num_shifts is the fusion width J, num_fusions the max arity K. groups
    sets the circular shift stride C/G. With zero-initialized final head
    weights the activation starts as max(x, 0) for the default J = K = 2
    and as the identity for J = K = 1.
    """

    def __init__(self, channels: int, groups: int, num_shifts: int = 2,
                 num_fusions: int = 2, reduction: int = 16, min_hidden: int = 8,
                 coeff_scale: float = 1.0, rng: np.random.Generator | None = None,
                 dtype=np.float64):
        super().__init__()
        if channels % groups:
            raise ValueError(f"groups {groups} does not divide {channels} channels")
        if num_shifts < 1 or num_fusions < 1:
            raise ValueError("num_shifts and num_fusions must be >= 1")
        rng = rng or np.random.default_rng()
        self.channels = channels
        self.groups = groups
        self.num_shifts = num_shifts
        self.num_fusions = num_fusions
        self.hidden = max(channels // reduction, min_hidden)
        self.coeff_scale = coeff_scale
        self.fc1_w = he_normal((self.hidden, channels), channels, rng, dtype)
        self.fc1_b = zeros_param((self.hidden,), dtype)
        # zero init keeps the activation at its identity-biased start
        self.fc2_w = zeros_param((channels * num_shifts * num_fusions, self.hidden), dtype)
        self.fc2_b = zeros_param((channels * num_shifts * num_fusions,), dtype)
        bias = np.zeros((num_shifts, num_fusions), dtype=dtype)
        bias[0, 0] = 1.0
        self.init_bias = bias

    def coefficients(self, x: Tensor) -> Tensor:
        """Per-sample coefficients, shape (N, C, J, K)."""
        return coefficient_head(x, self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b,
                                self.coeff_scale, self.init_bias)

    def coeff_bounds(self) -> tuple[float, float]:
        """Closed interval containing every coefficient for any input."""
        lo = float(self.init_bias.min()) - self.coeff_scale
        hi = float(self.init_bias.max()) + self.coeff_scale
        return lo, hi

    def forward(self, x: Tensor, ctx: Context | None = None) -> Tensor:
        return shift_max(x, self.coefficients(x), self.groups)


def reference_eval(layer: DyShiftMax, x: np.ndarray,
                   counter: MAddCounter | None = None) -> np.ndarray:
    """Direct per-element evaluation of the shift-max definition."""
    n, c, hh, ww = x.shape
    j_n, k_n = layer.num_shifts, layer.num_fusions
    stride = c // layer.groups
    z = global_avg_pool_naive(x, counter)
    hid = np.maximum(linear_naive(z, layer.fc1_w.data, layer.fc1_b.data, counter), 0)
    raw = linear_naive(hid, layer.fc2_w.data, layer.fc2_b.data, counter)
    sig = 1.0 / (1.0 + np.exp(-raw))
    a = (2.0 * layer.coeff_scale * sig - layer.coeff_scale).reshape(n, c, j_n, k_n)
    a = a + layer.init_bias[None, None]
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

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
from .tensor import Tensor, coefficient_head, shift_max


class DyShiftMax(Module):
    """Max-of-fusions activation with input-dependent coefficients.

    num_shifts is the fusion width J, num_fusions the max arity K. groups
    sets the circular shift stride C/G. With zero-initialized final head
    weights the activation starts as max(x, 0) for the default J = K = 2
    and as the identity for J = K = 1.
    """

    def __init__(self, channels: int, groups: int, num_shifts: int = 2,
                 num_fusions: int = 2, reduction: int = 16, min_hidden: int = 8,
                 coeff_scale: float = 1.0, *, rng: np.random.Generator,
                 dtype=np.float64):
        if channels % groups:
            raise ValueError(f"groups {groups} does not divide {channels} channels")
        if num_shifts < 1 or num_fusions < 1:
            raise ValueError("num_shifts and num_fusions must be >= 1")
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

    def forward(self, x: Tensor, ctx: Context | None = None) -> Tensor:
        return shift_max(x, self.coefficients(x), self.groups)


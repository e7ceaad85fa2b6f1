"""Tiny layer base: parameters, buffers and children read off a module's
attributes, and the per-call Context that carries the training flag."""

from __future__ import annotations

import numpy as np

from . import tensor
from .tensor import Tensor


class Context:
    """Per-call state threaded through forward passes: the training flag and
    the rng that dropout draws from."""

    __slots__ = ("training", "_rng")

    def __init__(self, training: bool = False, rng: np.random.Generator | None = None):
        self.training = training
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        # made on first read, which only a training forward's dropout does;
        # seeded so that a training forward without an explicit rng repeats
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return self._rng


class Module:
    """A module's state is its attributes, which the walks read off vars():
    parameters are the Tensors with requires_grad, children the Modules and
    buffers the arrays its class names in buffer_names; own entries first,
    then each child's, in attribute order."""

    buffer_names: tuple[str, ...] = ()

    def _submodules(self):
        return [(name, v) for name, v in vars(self).items() if isinstance(v, Module)]

    def named_params(self, prefix=""):
        for name, v in vars(self).items():
            if isinstance(v, Tensor) and v.requires_grad:
                yield prefix + name, v
        for cname, child in self._submodules():
            yield from child.named_params(f"{prefix}{cname}.")

    def named_buffers(self, prefix=""):
        for name in self.buffer_names:
            yield prefix + name, getattr(self, name)
        for cname, child in self._submodules():
            yield from child.named_buffers(f"{prefix}{cname}.")

    def named_modules(self, path=""):
        yield path, self
        for cname, child in self._submodules():
            yield from child.named_modules(f"{path}.{cname}" if path else cname)

    def forward(self, x: Tensor, ctx: Context) -> Tensor:
        raise NotImplementedError

    def __call__(self, x, ctx: Context | None = None, **kwargs) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        tape = tensor._tape
        if tape is None:
            return self.forward(x, ctx or Context(), **kwargs)
        tape.modules.append(self)       # a forward that raises ends the trace
        out = self.forward(x, ctx or Context(), **kwargs)
        tape.modules.pop()
        return out


# Passed as the rng of a network whose values are all about to be copied
# in (weights_io.load_model): he_normal then draws nothing and BatchNorm2d
# sets no ones; both leave zeros, whose pages np.zeros (calloc) leaves
# untouched until written.
_NO_DRAW = object()


def he_normal(shape, fan_in: int, rng: np.random.Generator, dtype) -> Tensor:
    """Gaussian init with variance 2/fan_in; zeros when rng is _NO_DRAW."""
    if rng is _NO_DRAW:
        return zeros_param(shape, dtype)
    std = np.sqrt(2.0 / fan_in)
    return Tensor((rng.standard_normal(shape) * std).astype(dtype), requires_grad=True)


def zeros_param(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


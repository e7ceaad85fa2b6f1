"""Model assembly: stem, micro-blocks, classifier head, and the variant
table, read once at import from the package's configs/<variant>.json.

Block kinds:
  A: depthwise expansion followed by one group-adaptive squeeze (two
     activation slots).
  B: depthwise stage plus a full factorized pointwise pair that changes
     the channel budget between stages (three slots, one per model).
  C: depthwise stage plus a full factorized pointwise pair, with a skip
     connection whenever input and output shapes agree (three slots).
A B or C block's pair compresses in G1 and expands in G2 groups, where
G1*G2 = hidden (microfac.pick_group_pair), or ModelSpec rejects the block.

Batch normalization follows every convolution stage and precedes its
activation. A BatchNorm2d is only the norm's state: each convolution runs
with the norm after it as one `conv2d` op, with batch statistics in
training, and at eval time with the running statistics folded into the
convolution. The norms' values are views of a flat buffer of the Network,
so that an eval forward under no_grad computes every norm's eval map at
once (_NormFolds), and each convolution scales its own weight by it.
Each activation slot is the kind its BlockSpec names: a relu slot runs
inside the convolution's op as its epilogue, a none slot is nothing, and
only a dysm slot is a module (DyShiftMax), run after the op. The shuffle
follows the compress slot's activation, whatever its kind, as its own op.
Stage-leading blocks carry stride 2 in the depthwise stage.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from importlib import resources

import numpy as np

from . import tensor
from .dyshiftmax import DyShiftMax
from .microfac import (MicroFacDepthwise, MicroFacPointwise, adaptive_groups,
                       pick_group_pair)
from .module import _NO_DRAW, Context, Module, he_normal, zeros_param
from .tensor import (ConvSpec, Tensor, add, conv2d, dropout, global_avg_pool,
                     linear, relu)

VARIANTS = ("M0", "M1", "M2", "M3", "tiny")


# ---------------------------------------------------------------------------
# specs

_RULES = {"int": ("an integer >= 1", lambda v: isinstance(v, numbers.Integral) and v >= 1),
          "float": ("a finite number",
                    lambda v: isinstance(v, numbers.Real) and math.isfinite(v)),
          "str": ("a string", lambda v: isinstance(v, str))}


def _check_fields(spec):
    """Raise ValueError unless each field of spec holds what the rule of its
    annotation (_RULES) admits, and no int, float or str field a bool, so
    that no config builds a network other than it states."""
    for f in fields(spec):
        wording, admits = _RULES.get(f.type, (None, None))
        value = getattr(spec, f.name)
        if wording and (isinstance(value, bool) or not admits(value)):
            raise ValueError(f"{f.name} must be {wording}, got {value!r}")


@dataclass(frozen=True)
class BlockSpec:
    """One micro-block row: kind, spatial kernel, depthwise/output width,
    bottleneck width, stride, and per-slot activations (None: dysm, then
    relu in every other slot)."""

    kind: str
    kernel: int
    width: int
    hidden: int
    stride: int = 1
    activations: tuple[str, ...] | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in ("A", "B", "C"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        slots = 2 if self.kind == "A" else 3
        acts = (("dysm",) + ("relu",) * (slots - 1) if self.activations is None
                else tuple(self.activations))
        if len(acts) != slots:
            raise ValueError(f"block {self.kind} takes {slots} activation slots")
        for a in acts:
            if a not in ("relu", "dysm", "none"):
                raise ValueError(f"unknown activation {a!r}")
        object.__setattr__(self, "activations", acts)


@dataclass(frozen=True)
class ModelSpec:
    """Complete, buildable description of one network. Each field's
    annotation gives its rule (_check_fields); the stem width is a multiple
    of the stem hidden width, each block A's width of its input width, and
    each block B's or C's hidden width has a group pair (pick_group_pair).
    A config holds each field at its path in _PATHS, and a field whose
    entry it lacks takes its default here."""

    name: str
    stem_width: int
    stem_hidden: int
    blocks: tuple[BlockSpec, ...]
    head_width: int
    num_classes: int = 1000
    dropout: float = 0.05
    norm: str = "bn"
    num_shifts: int = 2
    num_fusions: int = 2
    hyper_reduction: int = 16
    hyper_min_hidden: int = 8
    coeff_scale: float = 1.0
    group_lam: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if self.norm not in ("bn", "none"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if sum(1 for b in self.blocks if b.kind == "B") > 1:
            raise ValueError("at most one transition (B) block per model")
        if self.stem_width % self.stem_hidden:
            raise ValueError(f"stem width {self.stem_width} not a multiple of "
                             f"stem hidden {self.stem_hidden}")
        c_in = self.stem_width
        for b in self.blocks:
            if b.kind == "A" and b.width % c_in:
                raise ValueError(f"block width {b.width} not a multiple of input {c_in}")
            if b.kind != "A":
                pick_group_pair(b.hidden, c_in, b.width)
            c_in = b.hidden if b.kind == "A" else b.width

    def to_config(self) -> dict:
        cfg = {"schema": "micronet.model/1"}
        for name, path in _PATHS.items():
            owner, key = _entry(cfg, path, make=True)
            owner[key] = getattr(self, name)
        cfg["blocks"] = [{**asdict(b), "activations": list(b.activations)} for b in self.blocks]
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "ModelSpec":
        """The spec cfg describes. A missing entry takes its field's
        default; one whose field has none, and an entry that no field has,
        are a ValueError naming its path."""
        if cfg.get("schema") != "micronet.model/1":
            raise ValueError(f"unsupported model config schema {cfg.get('schema')!r}")
        found = {}
        for name, path in _PATHS.items():
            owner, key = _entry(cfg, path)
            if key in owner:
                found[name] = owner[key]
            elif ModelSpec.__dataclass_fields__[name].default is MISSING:
                raise ValueError(f"missing entry {path}")
        # every entry of cfg and of its objects (stem, dyshiftmax) is a field's
        entries = [key for key in cfg if key not in _OBJECTS]
        entries += [f"{obj}.{key}" for obj in _OBJECTS for key in cfg.get(obj, {})]
        for path in entries:
            if path != "schema" and path not in _PATHS.values():
                raise ValueError(f"unknown entry {path}")
        found["blocks"] = tuple(BlockSpec(**b) for b in cfg["blocks"])
        # a stated null would load as the default slots and re-save as a list
        if any(b.get("activations", ()) is None for b in cfg["blocks"]):
            raise ValueError("blocks: activations must be a list, got None")
        return ModelSpec(**found)


# where each field of ModelSpec sits in a micronet.model/1 config
_PATHS = {"name": "name", "stem_width": "stem.width", "stem_hidden": "stem.hidden",
          "blocks": "blocks", "head_width": "head_width", "num_classes": "num_classes",
          "dropout": "dropout", "norm": "norm", "num_shifts": "dyshiftmax.num_shifts",
          "num_fusions": "dyshiftmax.num_fusions", "hyper_reduction": "dyshiftmax.reduction",
          "hyper_min_hidden": "dyshiftmax.min_hidden",
          "coeff_scale": "dyshiftmax.coeff_scale", "group_lam": "group_lam"}


# the objects of a config that hold entries
_OBJECTS = sorted({path.rpartition(".")[0] for path in _PATHS.values() if "." in path})


def _entry(cfg: dict, path: str, make: bool = False) -> tuple[dict, str]:
    """The object of cfg that holds the entry at the dotted path, and the
    entry's key; make adds the objects on the way that cfg lacks."""
    *outer, key = path.split(".")
    for part in outer:
        cfg = cfg.setdefault(part, {}) if make else cfg.get(part, {})
        if not isinstance(cfg, dict):
            raise ValueError(f"{part} must be an object, got {cfg!r}")
    return cfg, key


# the only description of each variant; model_spec is a lookup, not a read
_CONFIGS = resources.files(__package__) / "configs"
_TABLE = {v: ModelSpec.from_config(json.loads((_CONFIGS / f"{v.lower()}.json").read_text()))
          for v in VARIANTS}


def model_spec(variant: str) -> ModelSpec:
    try:
        return _TABLE[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


# ---------------------------------------------------------------------------
# elementary layers

class ModuleList(Module):
    def __init__(self, mods):
        for i, m in enumerate(mods):
            setattr(self, str(i), m)

    def __iter__(self):
        return (m for _, m in self._submodules())


class Conv2dLayer(Module):
    """Convolution without bias; norm, if given, follows it."""

    def __init__(self, spec: ConvSpec, rng, dtype):
        self.spec = spec
        self.weight = he_normal(spec.weight_shape, spec.fan_in(), rng, dtype)

    def forward(self, x: Tensor, ctx: Context, norm: BatchNorm2d | None = None,
                act: str | None = None) -> Tensor:
        return conv2d(x, self.weight, spec=self.spec, norm=norm, training=ctx.training, act=act)


class BatchNorm2d(Module):
    """The state of the batch norm after a convolution, which conv2d reads
    from its norm argument: gamma, beta and the running statistics. Its eps
    and momentum are the same for every norm (tensor._BN_EPS,
    tensor._BN_MOMENTUM). With rng _NO_DRAW (module.he_normal) every value
    starts at zero. In a Network, gamma, beta and the running statistics
    (its buffers) are views of the network's flat buffer (_NormFolds)."""

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype, rng=None):
        fill = np.zeros if rng is _NO_DRAW else np.ones
        self.gamma = Tensor(fill(channels, dtype=dtype), requires_grad=True)
        self.beta = zeros_param((channels,), dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = fill(channels, dtype=dtype)


def _make_norm(spec: ModelSpec, channels: int, rng, dtype) -> BatchNorm2d | None:
    return BatchNorm2d(channels, dtype, rng=rng) if spec.norm == "bn" else None


def _stage(conv, slot: str, dysm: DyShiftMax | None, x: Tensor, ctx: Context,
           norm: BatchNorm2d | None) -> Tensor:
    """conv(x, ctx, norm=norm), then the activation of its slot: a relu slot
    runs as conv2d's epilogue, a dysm slot as dysm, the slot's DyShiftMax,
    after it."""
    t = conv(x, ctx, norm=norm, act="relu" if slot == "relu" else None)
    return t if dysm is None else dysm(t, ctx)


def _make_activation(kind: str, channels: int, groups: int, spec: ModelSpec,
                     rng, dtype) -> DyShiftMax | None:
    """The module of a dysm slot; a relu or none slot has none."""
    if kind != "dysm":
        return None
    return DyShiftMax(channels, groups,
                      num_shifts=spec.num_shifts,
                      num_fusions=spec.num_fusions,
                      reduction=spec.hyper_reduction,
                      min_hidden=spec.hyper_min_hidden,
                      coeff_scale=spec.coeff_scale,
                      rng=rng, dtype=dtype)


# ---------------------------------------------------------------------------
# stem, blocks, head

class Stem(Module):
    """3x1 conv (vertical stride 2) into a grouped 1x3 expansion (horizontal
    stride 2); the expansion is depthwise over its input channels."""

    def __init__(self, spec: ModelSpec, rng, dtype):
        c, hid = spec.stem_width, spec.stem_hidden
        self.conv1 = Conv2dLayer(
            ConvSpec(3, hid, (3, 1), stride=(2, 1), padding=(1, 0)), rng, dtype)
        self.conv2 = Conv2dLayer(
            ConvSpec(hid, c, (1, 3), stride=(1, 2), padding=(0, 1), groups=hid),
            rng, dtype)
        self.norm = _make_norm(spec, c, rng, dtype)

    def forward(self, x: Tensor, ctx: Context) -> Tensor:
        return self.conv2(self.conv1(x, ctx), ctx, norm=self.norm, act="relu")


class MicroBlockA(Module):
    """Lite combination: factorized depthwise expansion, then one
    group-adaptive squeeze down to the block width."""

    def __init__(self, c_in: int, bs: BlockSpec, spec: ModelSpec, rng, dtype):
        self.kind = "A"
        self.depthwise = MicroFacDepthwise(c_in, bs.kernel, bs.stride,
                                           expansion=bs.width // c_in,
                                           rng=rng, dtype=dtype)
        g = adaptive_groups(bs.width, bs.hidden, spec.group_lam)
        self.squeeze = Conv2dLayer(ConvSpec(bs.width, bs.hidden, 1, groups=g),
                                   rng, dtype)
        self.norm1 = _make_norm(spec, bs.width, rng, dtype)
        self.norm2 = _make_norm(spec, bs.hidden, rng, dtype)
        self.slots = bs.activations
        self.act1 = _make_activation(bs.activations[0], bs.width, g, spec, rng, dtype)
        self.act2 = _make_activation(bs.activations[1], bs.hidden, g, spec, rng, dtype)

    def forward(self, x: Tensor, ctx: Context) -> Tensor:
        t = _stage(self.depthwise, self.slots[0], self.act1, x, ctx, self.norm1)
        return _stage(self.squeeze, self.slots[1], self.act2, t, ctx, self.norm2)


class MicroBlockBC(Module):
    """Regular combination: factorized depthwise stage, then the full
    factorized pointwise pair through the bottleneck."""

    def __init__(self, c_in: int, bs: BlockSpec, spec: ModelSpec, rng, dtype):
        self.kind = bs.kind
        self.depthwise = MicroFacDepthwise(c_in, bs.kernel, bs.stride,
                                           rng=rng, dtype=dtype)
        self.pointwise = MicroFacPointwise(c_in, bs.width, bs.hidden,
                                           lam=spec.group_lam, rng=rng, dtype=dtype)
        self.norm1 = _make_norm(spec, c_in, rng, dtype)
        self.norm2 = _make_norm(spec, bs.hidden, rng, dtype)
        self.norm3 = _make_norm(spec, bs.width, rng, dtype)
        g1, g2 = self.pointwise.g1, self.pointwise.g2
        self.slots = bs.activations
        self.act1 = _make_activation(bs.activations[0], c_in, g1, spec, rng, dtype)
        self.act2 = _make_activation(bs.activations[1], bs.hidden, g2, spec, rng, dtype)
        self.act3 = _make_activation(bs.activations[2], bs.width, g2, spec, rng, dtype)
        self.skip = bs.kind == "C" and bs.stride == 1 and c_in == bs.width

    def forward(self, x: Tensor, ctx: Context) -> Tensor:
        pw = self.pointwise
        t = _stage(self.depthwise, self.slots[0], self.act1, x, ctx, self.norm1)
        t = pw.shuffle(_stage(pw.compress, self.slots[1], self.act2, t, ctx, self.norm2))
        t = _stage(pw.expand, self.slots[2], self.act3, t, ctx, self.norm3)
        if self.skip:
            t = add(t, x)
        return t


class Head(Module):
    """Global average pool into a two-layer classifier."""

    def __init__(self, c_in: int, spec: ModelSpec, rng, dtype):
        self.drop_rate = spec.dropout
        self.fc1_w = he_normal((spec.head_width, c_in), c_in, rng, dtype)
        self.fc1_b = zeros_param((spec.head_width,), dtype)
        self.fc2_w = he_normal((spec.num_classes, spec.head_width),
                               spec.head_width, rng, dtype)
        self.fc2_b = zeros_param((spec.num_classes,), dtype)

    def forward(self, x: Tensor, ctx: Context) -> Tensor:
        z = global_avg_pool(x)
        z = relu(linear(z, self.fc1_w, self.fc1_b))
        if ctx.training and self.drop_rate > 0.0:
            z = dropout(z, self.drop_rate, ctx.rng)
        return linear(z, self.fc2_w, self.fc2_b)


# ---------------------------------------------------------------------------
# network

class _NormFolds:
    """Flat storage for the values of every norm of a network, and the pass
    that computes all of their eval maps at once.

    The four rows of values hold the norms' gamma, beta, running_mean and
    running_var, laid end to end in the order of norms, and each norm's
    attributes are rebound to views of them. With zeros (a network whose
    values are about to be copied in) the buffer comes from np.zeros and
    nothing is copied; otherwise each value is copied into its view. The
    three rows of affine, laid out alike, receive the pass's (inv, a, b);
    nothing writes them before the first eval pass."""

    def __init__(self, norms: list, dtype, zeros: bool):
        total = sum(norm.gamma.shape[0] for norm in norms)
        self.values = (np.zeros if zeros else np.empty)((4, total), dtype)
        self.affine = np.empty((3, total), dtype)
        self.views = []     # (norm, then the views it must keep)
        self.folds = {}
        co = 0
        for norm in norms:
            c = norm.gamma.shape[0]
            view = self.values[:, co:co + c]
            if not zeros:
                view[...] = (norm.gamma.data, norm.beta.data, norm.running_mean,
                             norm.running_var)
            g, b, m, v = view
            norm.gamma.data, norm.beta.data, norm.running_mean, norm.running_var = g, b, m, v
            self.views.append((norm, g, b, m, v))
            self.folds[norm] = tuple(self.affine[:, co:co + c])
            co += c

    def __reduce__(self):
        # a copy of the network (copy.deepcopy, pickle) holds copies of the
        # views, not views of the copied buffers: it gets no fold pass
        return _NormFolds, ([], self.values.dtype, True)

    def prepare(self) -> dict | None:
        """Every norm's eval map from the live values: {norm: (inv, a, b)},
        the form tensor._folds takes. None when an array is no longer its
        view: each convolution then folds its own norm."""
        if not self.views:                  # no norms, or a copy
            return None
        for norm, g, b, m, v in self.views:
            if (norm.gamma.data is not g or norm.beta.data is not b
                    or norm.running_mean is not m or norm.running_var is not v):
                return None
        tensor._norm_affine(*self.values, out=self.affine)
        return self.folds


class Network(Module):
    """A buildable, runnable model instance with its spec attached.

    The parameters and running statistics of every norm are views of a
    flat network buffer (_NormFolds), so that an eval forward under no_grad
    computes every norm's eval map in a few numpy calls."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.stem = Stem(spec, rng, dtype)
        blocks = []
        c = spec.stem_width
        for bs in spec.blocks:
            blocks.append((MicroBlockA if bs.kind == "A" else MicroBlockBC)(
                c, bs, spec, rng, dtype))
            c = bs.hidden if bs.kind == "A" else bs.width
        self.blocks = ModuleList(blocks)
        self.head = Head(c, spec, rng, dtype)
        norms = [m for _, m in self.named_modules() if isinstance(m, BatchNorm2d)]
        self._norm_folds = _NormFolds(norms, self.dtype, rng is _NO_DRAW)

    def forward(self, x, ctx: Context) -> Tensor:
        """The logits of x. An eval forward under no_grad first computes
        every norm's eval map from the live buffers, and each convolution
        then scales its own live weight by its norm's map while this forward
        runs (tensor._folds). Each forward recomputes the maps, so nothing
        can go stale."""
        if x.dtype != self.dtype:
            x = Tensor(x.data.astype(self.dtype))
        if x.data.ndim != 4 or x.shape[1] != 3:
            raise ValueError(f"expected input (N, 3, H, W), got {x.shape}")
        if not np.isfinite(x.data).all():
            raise ValueError("input contains non-finite values")
        folds = None
        if not (ctx.training or tensor._grad_enabled):
            folds = self._norm_folds.prepare()
        outer, tensor._folds = tensor._folds, folds
        try:
            t = self.stem(x, ctx)
            for blk in self.blocks:
                t = blk(t, ctx)
            return self.head(t, ctx)
        finally:
            tensor._folds = outer


def build_model(variant_or_spec, *, num_classes: int | None = None,
                dtype=np.float32, seed: int | None = None) -> Network:
    """Construct a network from a variant name or an explicit ModelSpec,
    its weights drawn from seed (0 when None)."""
    if isinstance(variant_or_spec, ModelSpec):
        spec = variant_or_spec
    else:
        spec = model_spec(variant_or_spec)
    if num_classes is not None and num_classes != spec.num_classes:
        spec = replace(spec, num_classes=num_classes)
    rng = np.random.default_rng(0 if seed is None else seed)
    return Network(spec, rng=rng, dtype=dtype)

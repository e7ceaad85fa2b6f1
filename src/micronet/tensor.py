"""Dense tensor kernels with reverse-mode automatic differentiation.

Feature maps use NCHW layout. Every operator is a pure function from
input tensors to a fresh output tensor; gradients are accumulated by
walking the recorded graph backwards from a scalar loss.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_grad_enabled = True
# a Tape while analysis.trace_costs runs its forward, None otherwise
_tape = None
# while a network's eval forward runs under no_grad, the eval map of each
# of its norms, computed for all of them at once ({norm: (inv, a, b)}, see
# models.Network.forward), None otherwise
_folds = None


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tape:
    """Installed as _tape, it records each op's name, output shape and
    operands' (id, shape), with the stack of modules (Module.__call__) it
    ran in. It keeps no arrays, so a taped forward needs no more memory."""

    def __init__(self):
        self.modules, self.ops = [], []


class Tensor:
    """An n-d array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Seed d(self)/d(self) = 1 and push gradients to all ancestors. An
        op's node is released (grad, closure and parents) once its backward
        has run, after all its consumers', so only leaves keep .grad, and a
        consumed graph is a constant that backward() refuses."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if not self.requires_grad:
            raise ValueError("backward() requires a tensor that requires grad")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = node._backward = None
                node._parents, node.requires_grad = (), False


def _result(data, parents, backward):
    if _tape is not None:
        # an op's backward is defined in it, so its qualname names the op
        _tape.ops.append((backward.__qualname__.split(".")[0], data.shape,
                          [(id(p), p.shape) for p in parents], tuple(_tape.modules)))
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add g to t.grad, which later gradients are added to in place.

    A first gradient becomes t.grad as a C-ordered copy of t's dtype: the
    same g may be handed to several parents (add), or be a view (the
    broadcast gx of coefficient_head, the banded kernel's transposed gx).
    owned says that g is a fresh buffer the caller built for t alone and
    no longer reads; it is kept without a copy when it already is C-ordered
    and of t's dtype."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if owned and g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = g.astype(t.data.dtype, order="C", copy=True)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# convolution

@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a grouped 2-d convolution.

    stride and padding may be scalars or (vertical, horizontal) pairs;
    padding is symmetric zero padding. groups must divide both channel
    counts and each group convolves a contiguous channel slice.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    groups: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", _pair(self.kernel))
        object.__setattr__(self, "stride", _pair(self.stride))
        object.__setattr__(self, "padding", _pair(self.padding))
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if any(s <= 0 for s in self.stride) or any(k <= 0 for k in self.kernel):
            raise ValueError("kernel and stride must be positive")
        if any(p < 0 for p in self.padding):
            raise ValueError("padding must be non-negative")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in={self.in_channels} "
                f"and out={self.out_channels}"
            )

    @property
    def weight_shape(self):
        kh, kw = self.kernel
        return (self.out_channels, self.in_channels // self.groups, kh, kw)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(f"kernel {self.kernel} does not fit input {h}x{w}")
        return oh, ow

    def fan_in(self) -> int:
        kh, kw = self.kernel
        return (self.in_channels // self.groups) * kh * kw


def _pair(v):
    if isinstance(v, (tuple, list)):
        a, b = v
        return (int(a), int(b))
    return (int(v), int(v))


# Each kernel below maps (x, w, spec) arrays to (out, vjp), where
# vjp(gout, need_x, need_w) returns (gx, gw) with None for what is not needed.
# out is a C-ordered array the kernel owns, never a view of x or w, and vjp
# never reads it; conv2d adds a folded norm's shift to it in place (_output),
# a training norm overwrites it with xhat, and _epilogue's ReLU runs on it in
# place.

def _output(out: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """A kernel's C-ordered output plus the folded norm's shift, in place.

    With several images it is one pass over (N, C*H*W), the shift repeated
    over H*W as the training norm repeats its factors, rather than rows of
    W = 7-56; for one image the repeat costs more than it saves (README
    "Kernels")."""
    n, _, h, w = out.shape
    if n > 1:
        flat = out.reshape(n, -1)
        flat += np.repeat(shift, h * w)
    else:
        out += shift[:, None, None]
    return out


def _epilogue(y: np.ndarray, act: str | None):
    """conv2d's activation on its C-ordered output y: a ReLU in place.

    Returns y and grad(g), which maps y's gradient to its input's: masked
    where the output is not positive, as in-place ABN's backward reads its
    output (arXiv:1712.02616). It is exact, so the result equals conv2d and
    relu run one by one."""
    if act == "relu":
        np.maximum(y, 0, out=y)
    elif act is not None:
        raise ValueError(f"unknown conv2d activation {act!r}")

    def grad(g):
        return g if act is None else g * (y > 0)

    return y, grad


def _conv_pointwise(xd: np.ndarray, wd: np.ndarray, spec: ConvSpec):
    """1x1 kernel, stride 1, no padding: a matmul per (image, group) on
    reshaped views of x and w."""
    n, c, h, wdt = xd.shape
    g = spec.groups
    xv = xd.reshape(n, g, c // g, h * wdt)                 # (N, g, cg, HW)
    wm = wd.reshape(g, spec.out_channels // g, c // g)     # (g, og, cg)
    out = np.matmul(wm, xv).reshape(n, spec.out_channels, h, wdt)

    def vjp(gout, need_x, need_w):
        gv = gout.reshape(n, g, -1, h * wdt)               # (N, g, og, HW)
        gx = np.matmul(wm.transpose(0, 2, 1), gv).reshape(xd.shape) if need_x else None
        gw = (np.matmul(gv, xv.transpose(0, 1, 3, 2)).sum(axis=0).reshape(wd.shape)
              if need_w else None)
        return gx, gw

    return out, vjp


def _conv_depthwise(xd: np.ndarray, wd: np.ndarray, spec: ConvSpec):
    """A depthwise 1-D filter with one output per channel and no padding
    across it (_banded_axis(spec) is not None), forward only.

    Along the filtered axis the padded input is split by stride phase a::s,
    each phase stored on an (hq, across) grid. Tap i then reads one
    contiguous run of phase i % s, and the taps of a phase are the windows
    of one strided view, contracted by one einsum. A row filter runs on the
    transposed map: einsum is fast when taps lie whole grid rows apart, slow
    when one element apart. The vjp is im2col's, on columns rebuilt from x.
    """
    row = _banded_axis(spec) == 3
    ax = 1 if row else 0
    k, s, p = spec.kernel[ax], spec.stride[ax], spec.padding[ax]
    olen = spec.out_size(*xd.shape[2:])[ax]
    xt = xd.swapaxes(2, 3) if row else xd
    n, c, length, across = xt.shape
    hq = (k - 1) // s + olen
    wk = wd.reshape(c, k)
    out = None
    for a in range(min(s, k)):
        # grid row r holds padded index a + s * r, which tap a of output r reads
        r0, r1, xr = _tap_range(a, s, p, length, hq)
        xq = np.zeros((n, c, hq, across), dtype=xd.dtype)
        xq[:, :, r0:r1] = xt[:, :, xr]
        # (N, C, taps, OL * across): tap t of the phase starts t grid rows down
        windows = np.ndarray((n, c, len(range(a, k, s)), olen * across),
                             xq.dtype, xq, strides=xq.strides)
        part = np.einsum("nctl,ct->ncl", windows, wk[:, a::s])
        if out is None:
            out = part
        else:
            out += part
    out = out.reshape(n, c, olen, across)

    def vjp(gout, need_x, need_w):
        return _im2col_vjp(xd, wd, spec, *_im2col(xd, spec))(gout, need_x, need_w)

    # a row filter's result is transposed back by one C-ordered copy
    return (np.ascontiguousarray(out.swapaxes(2, 3)) if row else out), vjp


# The longest filtered axis _conv_kernel gives _conv_banded: the band
# holds OL x L entries per filter against k x OL taps, and on longer axes
# the phase-grid einsum is faster.
_BANDED_MAX_LENGTH = 32


# The most taps a strided depthwise 1-D filter with one output per channel
# may have for _conv_kernel to give it _conv_im2col: with more, its one column
# copy per tap costs more than the phase-grid einsum.
_IM2COL_MAX_TAPS = 3


def _banded_axis(spec: ConvSpec) -> int | None:
    """The axis of the input a depthwise spec with one output per channel
    filters along, if _conv_banded takes it: 2 for a k x 1 column filter, 3
    for a 1 x k row filter, each with stride 1 and no padding across; else
    None. In the models only an expanding depthwise pair has more outputs
    per channel, and it runs composed (MicroFacDepthwise.composed)."""
    if spec.out_channels == spec.in_channels:
        for axis, across in ((2, 1), (3, 0)):
            if (spec.kernel[across] == 1 and spec.stride[across] == 1
                    and spec.padding[across] == 0):
                return axis
    return None


def _conv_banded(xd: np.ndarray, wd: np.ndarray, spec: ConvSpec):
    """A depthwise 1-D filter as a product with each channel's banded matrix.

    Takes a k x 1 column or 1 x k row filter with one output per channel,
    stride 1 and no padding across the filter (_banded_axis). Along the
    filtered axis of length L, output y of channel c is
    sum_i band[c, y, i] * x[..., i, ...] with band[c, y, i] =
    w[c, i + p - s*y], zero outside the taps. A column filter is one
    matmul (C, OH, H) @ (N, C, H, W), broadcast over N, and a row filter
    one matmul (N, C, H, W) @ (C, W, OW): both write NCHW. Each band is
    built C-ordered, since BLAS read a fancy-indexed one strided, 1.25-1.9x
    slower per call. The backward of both runs on a transposed copy that
    puts N on the matrix's other axis, (C, H, N*W) or (C, N*H, W), so that
    each channel is one matmul however small the map.
    """
    n, c, h, wdt = xd.shape
    oh, ow = spec.out_size(h, wdt)
    col = _banded_axis(spec) == 2
    ax = 0 if col else 1
    k, s, p = spec.kernel[ax], spec.stride[ax], spec.padding[ax]
    length, olen = (h, oh) if col else (wdt, ow)
    # tap[y, i] = i + p - s*y, or k for taps outside the kernel, which read
    # an appended zero: the band is one np.take of the weights
    tap = np.arange(length) + p - s * np.arange(olen)[:, None]
    tap = np.where((tap >= 0) & (tap < k), tap, k)
    wz = np.zeros((c, k + 1), wd.dtype)
    wz[:, :k] = wd.reshape(c, k)
    band = np.take(wz, tap, axis=1)                        # (C, OL, L)

    def tap_sums(gband, taps):
        """gw from the band gradient: tap t sums the entries where taps == t."""
        onehot = (taps.reshape(-1, 1) == np.arange(k)).astype(gband.dtype)
        return (gband.reshape(c, -1) @ onehot).reshape(wd.shape)

    if col:
        out = np.matmul(band, xd)

        def vjp(gout, need_x, need_w):
            gt = gout.transpose(1, 2, 0, 3).reshape(c, oh, n * wdt)
            gx = gw = None
            if need_x:
                gx = np.matmul(band.transpose(0, 2, 1), gt)             # (C, H, N*W)
                gx = gx.reshape(c, h, n, wdt).transpose(2, 0, 1, 3)
            if need_w:
                xt = xd.transpose(1, 2, 0, 3).reshape(c, h, n * wdt)
                gw = tap_sums(np.matmul(gt, xt.transpose(0, 2, 1)), tap)
            return gx, gw

        return out, vjp

    out = np.matmul(xd, np.ascontiguousarray(band.transpose(0, 2, 1)))

    def vjp(gout, need_x, need_w):
        gt = gout.transpose(1, 0, 2, 3).reshape(c, n * h, ow)
        gx = gw = None
        if need_x:
            gx = np.matmul(gt, band).reshape(c, n, h, wdt).transpose(1, 0, 2, 3)
        if need_w:
            xt = xd.transpose(1, 0, 2, 3).reshape(c, n * h, wdt)
            # the band gradient transposed, (C, W, OW), so its taps are tap.T
            gw = tap_sums(np.matmul(xt.transpose(0, 2, 1), gt), tap.T)
        return gx, gw

    return out, vjp


def _tap_range(t: int, s: int, p: int, size: int, olen: int):
    """The outputs o0 <= o < o1 of one axis whose tap t reads inside the
    input, o*s + t - p in [0, size), and the slice of input it reads."""
    o0 = min(olen, max(0, -((t - p) // s)))
    o1 = max(o0, min(olen, (size - 1 + p - t) // s + 1))
    x0 = o0 * s + t - p
    return o0, o1, slice(x0, x0 + s * (o1 - o0), s)


def _im2col(xd: np.ndarray, spec: ConvSpec):
    """Copy each tap's window of the unpadded input into (N, C, kh, kw, OH, OW)
    columns, zeroing only the strips where the tap reads padding. Returns
    them as (N, g, cg*kh*kw, OH*OW), a view, with each axis's tap ranges."""
    n, c, h, wdt = xd.shape
    kh, kw = spec.kernel
    sh, sw = spec.stride
    ph, pw = spec.padding
    oh, ow = spec.out_size(h, wdt)

    row_taps = [_tap_range(i, sh, ph, h, oh) for i in range(kh)]
    col_taps = [_tap_range(j, sw, pw, wdt, ow) for j in range(kw)]
    # (source, column slice) per column tap. A window with several rows and a
    # horizontal stride reads each column phase b::sw kh times or more, so
    # each phase is copied once and every tap's copy then runs over
    # contiguous rows: on block A's composed 3x3 at batch 16 (16, 4, 112, 112)
    # this gather took 1.8 ms against 2.2 ms with every tap read strided
    # (float32, one thread)
    sources = [(xd, xs) for _, _, xs in col_taps]
    if kh > 1 and sw > 1:
        phases = {}
        for j, (c0, c1, xs) in enumerate(col_taps):
            b, q = xs.start % sw, xs.start // sw
            if b not in phases:
                phases[b] = np.ascontiguousarray(xd[:, :, :, b::sw])
            sources[j] = (phases[b], slice(q, q + c1 - c0))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xd.dtype)
    for i, (r0, r1, ys) in enumerate(row_taps):
        for j, (c0, c1, _) in enumerate(col_taps):
            dst = cols[:, :, i, j]
            if r0:
                dst[:, :, :r0] = 0
            if r1 < oh:
                dst[:, :, r1:] = 0
            if c0:
                dst[:, :, r0:r1, :c0] = 0
            if c1 < ow:
                dst[:, :, r0:r1, c1:] = 0
            src, xs = sources[j]
            dst[:, :, r0:r1, c0:c1] = src[:, :, ys, xs]
    return cols.reshape(n, spec.groups, -1, oh * ow), row_taps, col_taps


def _im2col_vjp(xd: np.ndarray, wd: np.ndarray, spec: ConvSpec, cols, row_taps, col_taps):
    """im2col's vjp from _im2col's columns and tap ranges: one matmul for gw
    (summed over N), one for the column gradient, and a slice-add of each
    tap's column gradient straight into gx."""
    n, c, h, wdt = xd.shape
    kh, kw = spec.kernel
    g = spec.groups
    oh, ow = spec.out_size(h, wdt)
    wmat = wd.reshape(g, spec.out_channels // g, -1)       # (g, og, cg*kh*kw)

    def vjp(gout, need_x, need_w):
        gv = gout.reshape(n, g, -1, oh * ow)               # (N, g, og, OH*OW)
        gx = gw = None
        if need_w:
            gw = np.matmul(gv, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(wd.shape)
        if need_x:
            gcols = np.matmul(wmat.transpose(0, 2, 1), gv).reshape(n, c, kh, kw, oh, ow)
            gx = np.zeros(xd.shape, gcols.dtype)
            for i, (r0, r1, ys) in enumerate(row_taps):
                for j, (c0, c1, xs) in enumerate(col_taps):
                    gx[:, :, ys, xs] += gcols[:, :, i, j, r0:r1, c0:c1]
        return gx, gw

    return vjp


def _conv_im2col(xd: np.ndarray, wd: np.ndarray, spec: ConvSpec):
    """Any geometry: _im2col's columns, then one matmul per (image, group)
    gives NCHW directly."""
    cols, row_taps, col_taps = _im2col(xd, spec)
    oh, ow = spec.out_size(*xd.shape[2:])
    wmat = wd.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    out = np.matmul(wmat, cols).reshape(xd.shape[0], spec.out_channels, oh, ow)
    return out, _im2col_vjp(xd, wd, spec, cols, row_taps, col_taps)


def _conv_rows(xd: np.ndarray, wd: np.ndarray, spec: ConvSpec):
    """A dense (groups 1) k x 1 filter with stride 1 and no padding across
    it, one matmul per output row.

    x is copied once to rows-major (N, H + 2p, C, W) with zero pad rows, so
    output row y reads one contiguous (k*C, W) block, padded rows y*s to
    y*s + k - 1: the windows are a strided view of that copy. One np.matmul
    of the tap-major (O, k*C) weights with them writes, through out=, into
    the transposed view of an NCHW buffer. gw is one batched matmul of the
    gradient with the windows, summed over (N, OH); gx is im2col's, on
    columns rebuilt from the input, as _conv_depthwise's is: only the stem's
    first convolution takes this kernel, and its input is the image.
    """
    n, c, h, wdt = xd.shape
    k, s, p = spec.kernel[0], spec.stride[0], spec.padding[0]
    o = spec.out_channels
    oh, _ = spec.out_size(h, wdt)
    xr = np.empty((n, h + 2 * p, c, wdt), xd.dtype)
    xr[:, :p] = 0
    xr[:, p + h:] = 0
    xr[:, p:p + h] = xd.transpose(0, 2, 1, 3)
    b0, b1, b2, b3 = xr.strides
    windows = np.ndarray((n, oh, k * c, wdt), xr.dtype, xr, strides=(b0, s * b1, b2, b3))
    wt = wd[:, :, :, 0].transpose(0, 2, 1).reshape(o, k * c)   # column t*C + c is w[:, c, t]
    out = np.empty((n, o, oh, wdt), np.result_type(xd, wd))
    np.matmul(wt, windows, out=out.transpose(0, 2, 1, 3))

    def vjp(gout, need_x, need_w):
        gx = gw = None
        if need_w:
            gt = gout.transpose(0, 2, 1, 3)                # (N, OH, O, W)
            gwt = np.matmul(gt, windows.transpose(0, 1, 3, 2)).sum(axis=(0, 1))
            gw = np.ascontiguousarray(gwt.reshape(o, k, c).transpose(0, 2, 1)[..., None])
        if need_x:
            gx, _ = _im2col_vjp(xd, wd, spec, *_im2col(xd, spec))(gout, True, False)
        return gx, gw

    return out, vjp


def _conv_kernel(x: Tensor, w: Tensor | np.ndarray, spec: ConvSpec):
    """Check the operands' shapes against spec and pick the kernel that runs it."""
    _, c, _, _ = x.shape
    if c != spec.in_channels:
        raise ValueError(f"expected {spec.in_channels} input channels, got {c}")
    if w.shape != spec.weight_shape:
        raise ValueError(f"weight shape {w.shape} != {spec.weight_shape}")
    if spec.kernel == (1, 1) and spec.stride == (1, 1) and spec.padding == (0, 0):
        return _conv_pointwise
    if spec.groups == spec.in_channels:
        # banded for a batch of short 1-D filters, the phase-grid einsum for
        # other 1-D filters with one output per channel unless they stride
        # with few taps, im2col for the rest; README "Kernels" has the tables
        axis = _banded_axis(spec)
        if axis is not None and x.shape[0] > 1 and x.shape[axis] <= _BANDED_MAX_LENGTH:
            return _conv_banded
        kh, kw = spec.kernel
        if axis is not None and (spec.stride == (1, 1) or kh * kw > _IM2COL_MAX_TAPS):
            return _conv_depthwise
    if (spec.groups == 1 and spec.kernel[1] == 1 and spec.stride[1] == 1
            and spec.padding[1] == 0):
        return _conv_rows
    return _conv_im2col


# Every batch norm's eps, and the weight of a batch's statistics in its
# running update: PyTorch's BatchNorm2d defaults.
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


def _norm_affine(gamma, beta, mean, var, out=(None, None, None)):
    """A norm's eval map y -> a*y + b as (inv, a, b): inv = 1/sqrt(var + eps),
    a = gamma * inv and b = beta - mean * a, written into the three arrays
    of out if given. The arrays are one norm's, or every norm of a network
    laid end to end; each value is the same either way."""
    inv_out, a_out, b_out = out
    inv = np.divide(1.0, np.sqrt(var + _BN_EPS), out=inv_out)
    a = np.multiply(gamma, inv, out=a_out)
    return inv, a, np.subtract(beta, mean * a, out=b_out)


def _conv_affine(x: Tensor, wd: np.ndarray, spec: ConvSpec, kernel, norm,
                 training: bool, need_w: bool):
    """kernel on x and the weights wd, then nothing (no norm), norm with
    this batch's statistics in training (_conv_batch_norm), or norm's eval
    map y -> a*y + b (_norm_affine) folded into the convolution:
    conv(x, wd * a) + b, b added in place on the kernel's C-ordered output.
    While a network's eval forward runs under no_grad, norm's (inv, a, b)
    come from the pass it made over all of its norms (_folds); wd is read
    live either way.

    Returns the output, the parents after x and the weights (none, or gamma
    and beta) and backward(gout), which accumulates the gradients of x and
    of those parents and returns the gradient of wd (None unless need_w)."""
    if norm is not None and training:
        return _conv_batch_norm(x, wd, spec, kernel, norm, need_w)
    if norm is None:
        out, vjp = kernel(x.data, wd, spec)

        def backward(gout):
            gx, gw = vjp(gout, x.requires_grad, need_w)
            if gx is not None:
                _accumulate(x, gx, owned=True)
            return gw

        return out, [], backward

    gamma, beta = norm.gamma, norm.beta
    fold = _folds.get(norm) if _folds else None
    inv, a, b = fold or _norm_affine(gamma.data, beta.data, norm.running_mean,
                                     norm.running_var)
    out, vjp = kernel(x.data, wd * a[:, None, None, None], spec)

    def backward(gout):
        need_gamma = gamma.requires_grad
        gx, gw = vjp(gout, x.requires_grad, need_w or need_gamma)
        if gx is not None:
            _accumulate(x, gx, owned=True)
        gb = gout.sum(axis=(0, 2, 3))
        if need_gamma:
            ga = (gw * wd).sum(axis=(1, 2, 3)) - norm.running_mean * gb
            _accumulate(gamma, ga * inv, owned=True)
        if beta.requires_grad:
            _accumulate(beta, gb, owned=True)
        return gw * a[:, None, None, None] if need_w else None

    return _output(out, b), [gamma, beta], backward


def _conv_batch_norm(x: Tensor, wd: np.ndarray, spec: ConvSpec, kernel, norm,
                     need_w: bool):
    """kernel on x and wd, then norm with this batch's statistics over
    (N, H, W), updating its running buffers in place; _conv_affine's
    contract. The kernel's output buffer becomes xhat in place, and the
    backward hands the norm's input gradient to the kernel's vjp."""
    gamma, beta = norm.gamma, norm.beta
    running_mean, running_var = norm.running_mean, norm.running_var
    y, vjp = kernel(x.data, wd, spec)
    n, c, h, wdt = y.shape
    hw = h * wdt
    m = n * hw
    ones = np.ones(hw, y.dtype)

    def channel_sum(a):
        return (a.reshape(n, c, hw) @ ones).sum(axis=0)

    def per_element(v):
        # factors repeated over H*W: elementwise passes run on (N, C*H*W)
        return np.repeat(v, hw)

    mean = channel_sum(y) / m
    xhat = y.reshape(n, c * hw)                         # y centred, then scaled
    xhat -= per_element(mean)
    xv = xhat.reshape(n, c, hw)
    var = np.einsum("ncl,ncl->c", xv, xv) / m
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat *= per_element(inv)
    out = xhat * per_element(gamma.data)
    out += per_element(beta.data)
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mean
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var

    def backward(g):
        sg = channel_sum(g)
        sgx = np.einsum("ncl,ncl->c", g.reshape(n, c, hw), xv)
        # gamma * inv * (g - (sum(g) + xhat * sum(g * xhat)) / m), in one buffer
        gy = xhat * per_element(-sgx / m)
        gy -= per_element(sg / m)
        gy += g.reshape(n, c * hw)
        gy *= per_element(gamma.data * inv)
        if gamma.requires_grad:
            _accumulate(gamma, sgx, owned=True)
        if beta.requires_grad:
            _accumulate(beta, sg, owned=True)
        gx, gw = vjp(gy.reshape(y.shape), x.requires_grad, need_w)
        if gx is not None:
            _accumulate(x, gx, owned=True)
        return gw

    return out.reshape(y.shape), [gamma, beta], backward


def conv2d(x: Tensor, w: Tensor, *, spec: ConvSpec, norm=None, training: bool = False,
           act: str | None = None) -> Tensor:
    """Grouped 2-d convolution (cross-correlation) of x with w, followed by
    norm, the per-channel batch normalization after it, when one is given,
    then by the epilogue act ("relu" or None), see _epilogue.

    x: (N, C_in, H, W); w: (C_out, C_in/groups, kh, kw); no bias: the
    norm after a convolution has a shift of its own. Unpadded stride-1 1x1
    kernels and depthwise 1-D filters (one input channel per group) take
    specialized paths, a batch of short 1-D filters runs as banded matrix
    products, and a dense k x 1 filter runs on row windows; everything
    else, k x k, expanding and short strided depthwise filters included,
    unfolds windows.

    norm holds the batch-norm state (a models.BatchNorm2d), its four arrays:
    gamma and beta Tensors, running_mean and running_var arrays; its eps and
    momentum are the constants _BN_EPS and _BN_MOMENTUM. At eval time the
    norm uses the running statistics: it is the map y -> a*y + b with
    a = gamma / sqrt(var + eps) and b = beta - mean * a, so it folds into
    the convolution, conv2d(x, w * a) + b, with b added in place on the
    kernel's C-ordered output, and the ReLU runs in place on that buffer.
    When a network's eval forward runs under no_grad, a and b come from
    the pass it made over all of its norms at once
    (models.Network.forward), bit for bit the same.

    In training it uses this batch's statistics over (N, H, W), computed
    once (channel sums as matrix-vector products over the contiguous H*W
    axis, the variance two-pass), and updates the running buffers in place:
    r <- (1 - momentum) * r + momentum * stat, with the biased variance.
    The kernel's output buffer becomes xhat in place, so the backward keeps
    only the convolution's input and xhat. It needs two reductions, sum(g)
    and sum(g * xhat), and hands the norm's gradient to the kernel's vjp.
    The ReLU runs in place on the norm's output, and the backward masks
    with it.
    """
    out, tail, affine_backward = _conv_affine(x, w.data, spec, _conv_kernel(x, w, spec), norm,
                                              training, w.requires_grad)
    out, grad = _epilogue(out, act)

    def backward(gout):
        gw = affine_backward(grad(gout))
        if gw is not None:
            _accumulate(w, gw, owned=True)

    return _result(out, [x, w, *tail], backward)


def conv2d_composed(x: Tensor, col_w: Tensor, row_w: Tensor, *, spec: ConvSpec,
                    norm=None, training: bool = False, act: str | None = None) -> Tensor:
    """A depthwise kh x 1 column stage, then a 1 x kw row stage, with nothing
    between them, run as one kh x kw depthwise convolution whose kernel is
    their outer product, followed by norm and the activation act, exactly
    as conv2d runs them: the eval map, folded (from a network's pass over
    its norms when one runs), or in training this batch's statistics. The
    product of the factors is formed on every call.

    spec is the composed convolution (groups == C_in): its vertical stride
    and padding are the column stage's, its horizontal ones the row stage's.
    col_w: (C_out, 1, kh, 1); row_w: (C_out, 1, 1, kw). The gradient gW of
    the composed weight maps back onto the factors: gcol = sum_j gW * row,
    grow = sum_i gW * col. The tape records one op, which analysis prices
    as the two factorized stages."""
    o, _, kh, kw = spec.weight_shape
    if (spec.groups != spec.in_channels or col_w.shape != (o, 1, kh, 1)
            or row_w.shape != (o, 1, 1, kw)):
        raise ValueError(f"factors {col_w.shape} and {row_w.shape} do not compose "
                         f"to the depthwise weight {spec.weight_shape}")
    wd = col_w.data * row_w.data                            # (C_out, 1, kh, kw)
    out, tail, affine_backward = _conv_affine(x, wd, spec, _conv_kernel(x, wd, spec), norm,
                                              training, col_w.requires_grad or row_w.requires_grad)
    out, grad = _epilogue(out, act)

    def backward(gout):
        gw = affine_backward(grad(gout))
        if col_w.requires_grad:
            _accumulate(col_w, (gw * row_w.data).sum(axis=3, keepdims=True), owned=True)
        if row_w.requires_grad:
            _accumulate(row_w, (gw * col_w.data).sum(axis=2, keepdims=True), owned=True)

    return _result(out, [x, col_w, row_w, *tail], backward)


# ---------------------------------------------------------------------------
# dense / pooling / elementwise

def linear(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """y = x @ w.T + bias, with x (N, D_in), w (D_out, D_in) and bias
    (D_out,), computed as (w @ x.T).T into a C-ordered result
    (_affine_rows)."""
    out = _affine_rows(x.data, w.data, bias.data)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data, owned=True)
        if w.requires_grad:
            _accumulate(w, g.T @ x.data, owned=True)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0), owned=True)

    return _result(out, [x, w, bias], backward)


def _affine_rows(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ w.T + bias, C-ordered, as (w @ x.T).T: bitwise the same values on
    the models' shapes, but BLAS reads w as stored, where with the
    transposed view w.T float32 sgemm at batch 16 ran about 2x slower
    ((16, 640) @ (640, 1000): 0.42 against 0.81 ms, one thread). The bias
    is added in the copy to C order."""
    return np.add((w @ x.T).T, bias, order="C")


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean: (N, C, H, W) -> (N, C)."""
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def backward(g):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.shape).copy(),
                        owned=True)

    return _result(out, [x], backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0), owned=True)

    return _result(out, [x], backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    out = a.data + b.data

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(out, [a, b], backward)


def permute_channels(x: Tensor, perm: np.ndarray) -> Tensor:
    """Reorder channels: output channel i is input channel perm[i]."""
    # np.take, unlike x.data[:, perm] at N > 1, gives a C-ordered array
    out = np.take(x.data, perm, axis=1)

    def backward(g):
        if x.requires_grad:
            # np.take, unlike g[:, inverse], gives a C-ordered array
            _accumulate(x, np.take(g, np.argsort(perm), axis=1), owned=True)

    return _result(out, [x], backward)


def _fusions_matmul(xv: np.ndarray, ad: np.ndarray, s: int):
    """The K fusions of x, as (N, C, H*W), as one batched matmul of the
    transposed coefficients ad with a strided (N, C, J, H*W) view whose
    slice j is x shifted by j*s: a view of one copy of x extended by its
    first (J-1)*s channels, wrapping as often as needed (at J = 1, a copy
    of x). The matmul writes, through out=, into a K-major (K, N, C, H*W)
    buffer, so each fusion is contiguous.

    Returns the fusions and vjp(gf, need_a, need_x) -> (da, dx terms) for
    the routed gradient gf laid out like the fusions: da is one matmul of
    the view with gf; the J terms of dx, the gradient of shifted copy j as
    (N, C, H*W), are one matmul of ad with gf, written J-major."""
    n, c, hw = xv.shape
    _, _, jn, kn = ad.shape
    xx = np.take(xv, np.arange(c + (jn - 1) * s), axis=1, mode="wrap")
    b0, b1, b2 = xx.strides
    view = np.ndarray((n, c, jn, hw), xx.dtype, xx, strides=(b0, b1, s * b1, b2))
    view.flags.writeable = False
    fus = np.empty((kn, n, c, hw), np.result_type(ad, xv))
    np.matmul(ad.transpose(0, 1, 3, 2), view, out=fus.transpose(1, 2, 0, 3))

    def vjp(gf, need_a, need_x):
        da = np.matmul(view, gf.transpose(1, 2, 3, 0)) if need_a else None
        terms = None
        if need_x:
            terms = np.empty((jn, n, c, hw), np.result_type(ad, gf))
            np.matmul(ad, gf.transpose(1, 2, 0, 3), out=terms.transpose(1, 2, 0, 3))
        return da, terms

    return fus, vjp


def _route(g: np.ndarray, out: np.ndarray, parts: np.ndarray, dst: np.ndarray):
    """Write into dst[k] the share of g that fusion parts[k] wins: each
    element's gradient goes to the earliest fusion equal to the maximum out,
    or, where out is NaN, to the first NaN fusion (np.argmax's rule). For
    K = 2 that is one test of fusion 0 and its negation."""
    free = None
    for part, d in zip(parts[:-1], dst):
        # NaN never equals the maximum; np.maximum makes every output with a
        # NaN fusion NaN, so a NaN part marks exactly those
        win = (part == out) | np.isnan(part)
        if free is None:
            free = ~win
        else:
            win &= free
            free &= ~win
        np.multiply(g, win, out=d)
    # every output equals one of the fusions, so the last wins the rest
    np.multiply(g, free, out=dst[-1])


def shift_max(x: Tensor, a: Tensor, groups: int) -> Tensor:
    """Dynamic Shift-Max: y = max_k sum_j a[:, :, j, k] * roll(x, j*C/G).

    x: (N, C, H, W); a: (N, C, J, K) per-sample coefficients, and groups
    must divide C. Term j of output channel i reads input channel
    (i + j*C/G) mod C. The fusions, da and the J terms of dx are batched
    matmuls on every map size (_fusions_matmul), with the K fusions laid
    out K-major, so the maximum and the routing of its gradient read
    contiguous fusions. Ties route the gradient to the earliest winning
    fusion, and an output that is NaN routes it to the first NaN fusion.
    """
    n, c, h, w = x.shape
    if c % groups:
        raise ValueError(f"groups {groups} does not divide {c} channels")
    if a.data.ndim != 4 or a.shape[:2] != (n, c):
        raise ValueError(f"coefficients {a.shape} do not match input {x.shape}")
    _, _, jn, kn = a.shape
    s = c // groups
    fus, vjp = _fusions_matmul(x.data.reshape(n, c, h * w), a.data, s)
    if not (_grad_enabled and (x.requires_grad or a.requires_grad)):
        # no backward will run: free the shifted copy of x that vjp keeps
        # before the maximum allocates the output. This lowers the peak of
        # an eval forward (M0 at batch 16: 20.9 -> 17.7 MB), so that glibc
        # does not trim the heap and fault it back in on every forward
        vjp = None
    # on equal inputs np.maximum returns its second operand, so the earlier
    # fusion (and its sign, for -0.0 against 0.0) is kept
    out = np.maximum(fus[1], fus[0]) if kn > 1 else fus[0]
    for part in fus[2:]:
        np.maximum(part, out, out=out)

    def backward(g):
        g = g.reshape(out.shape)
        if kn == 1:
            gf = g[None]
        else:
            gf = np.empty(fus.shape, np.result_type(g, fus))
            _route(g, out, fus, gf)
        da, terms = vjp(gf, a.requires_grad, x.requires_grad)
        if da is not None:
            _accumulate(a, da, owned=True)
        if terms is not None:
            # term j of channel i is the gradient of input channel
            # (i + j*s) mod C: the J terms are summed into one fresh buffer
            gx = terms[0]
            if jn > 1:
                gx = np.empty(terms[0].shape, terms[0].dtype)
                r = s % c
                np.add(terms[0][:, r:], terms[1][:, :c - r], out=gx[:, r:])
                np.add(terms[0][:, :r], terms[1][:, c - r:], out=gx[:, :r])
            for j in range(2, jn):
                r = j * s % c
                gx[:, r:] += terms[j][:, :c - r]
                gx[:, :r] += terms[j][:, c - r:]
            _accumulate(x, gx.reshape(x.shape), owned=True)

    return _result(out.reshape(x.shape), [x, a], backward)


def coefficient_head(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                     scale: float, bias: np.ndarray) -> Tensor:
    """Dynamic Shift-Max coefficients: spatial mean, fc1, relu, fc2, then
    scale * tanh(raw / 2) + bias.

    x: (N, C, H, W); w1: (D, C); w2: (C*J*K, D); bias: (J, K); the output is
    (N, C, J, K). scale * tanh(raw / 2) equals 2*scale*sigmoid(raw) - scale:
    it is exactly bias where raw is 0 and stays within bias +- scale for any
    raw, and tanh cannot overflow. fc1 and fc2 run as (W @ z.T).T, as linear
    does (_affine_rows): at batch 16 in float32, (16, 384) @ (384, 640) took
    0.14 ms against 0.27 ms with the transposed view of W.
    """
    n, c, h, w = x.shape
    # the spatial mean as a matrix-vector product: 3-4x faster than mean()
    z = x.data.reshape(n, c, h * w) @ np.full(h * w, 1.0 / (h * w), x.dtype)
    hid = np.maximum(_affine_rows(z, w1.data, b1.data), 0)  # (N, D)
    t = np.tanh(0.5 * _affine_rows(hid, w2.data, b2.data))  # (N, C*J*K)
    out = (scale * t).reshape(n, c, *bias.shape) + bias

    def backward(g):
        graw = g.reshape(n, -1) * (0.5 * scale) * ((1.0 - t) * (1.0 + t))
        if w2.requires_grad:
            _accumulate(w2, graw.T @ hid, owned=True)
        if b2.requires_grad:
            _accumulate(b2, graw.sum(axis=0), owned=True)
        ghid = (graw @ w2.data) * (hid > 0)
        if w1.requires_grad:
            _accumulate(w1, ghid.T @ z, owned=True)
        if b1.requires_grad:
            _accumulate(b1, ghid.sum(axis=0), owned=True)
        if x.requires_grad:
            gz = (ghid @ w1.data) / (h * w)
            _accumulate(x, np.broadcast_to(gz[:, :, None, None], x.shape))

    return _result(out, [x, w1, b1, w2, b2], backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout, on the training path only; rate 0 still draws a mask."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * mask, owned=True)

    return _result(x.data * mask, [x], backward)


# ---------------------------------------------------------------------------
# loss

def softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row of (N, classes) logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels against softmax(logits)."""
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    loss = (logsum - z[np.arange(n), labels]).mean()

    def backward(g):
        if logits.requires_grad:
            p = softmax(logits.data)
            p[np.arange(n), labels] -= 1.0
            _accumulate(logits, g * p / n, owned=True)

    return _result(np.asarray(loss), [logits], backward)

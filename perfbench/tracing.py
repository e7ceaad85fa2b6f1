"""In-memory span tracer and the per-unit join with ``count_costs``.

The tracer swaps function bindings for timing wrappers and puts every
binding back when it is closed. Spans are aggregated by name in memory:
calls, total time, self time (total minus the time covered by spans
nested inside) and calls that raised. Nothing is written until the run
ends, and the process is single-threaded, so no span ever waits on
another.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import micronet
from micronet.module import Module
from micronet.tensor import Tensor

# Modules whose public functions are wrapped. A span is named
# "<module>.<function>" or "<module>.<Class>.<method>".
LAYERS = ("tensor", "microfac", "dyshiftmax", "models", "train",
          "weights_io", "data", "analysis")

# Methods wrapped besides the module-level functions: the ones the
# per-layer table reports. Every other method adds spans to each forward
# pass and so adds tracing overhead without a metric.
METHODS = {
    "tensor": {"Tensor": ("backward",)},
    "microfac": {"MicroFacDepthwise": ("forward",),
                 "MicroFacPointwise": ("compress", "shuffle", "expand")},
    "dyshiftmax": {"DyShiftMax": ("forward", "coefficients")},
    "models": {"Network": ("forward",)},
    "train": {"SGD": ("step", "zero_grad")},
}

# count_costs records timed through the models-module bindings that the
# classifier head calls, rather than through a submodule.
HEAD_RECORDS = ("head.pool", "head.fc1", "head.fc2")


class Span:
    """Aggregate of every call recorded under one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "failed", "madds", "nbytes",
                 "images", "shape")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.failed = 0
        self.madds = self.nbytes = self.images = 0
        self.shape = None


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._open = [0]        # time covered by child spans, per open span
        self._patches = []      # (owner, attr, had_own_binding, old, new)

    def wrap(self, fn, name, on_result=None):
        """Return `fn` timed under `name`, which is a string or a function
        of (args, kwargs) returning one. `on_result(span, name, args, out)`
        runs after the clock stops, for counters that need the output."""
        spans, stack = self.spans, self._open
        dynamic = callable(name)

        def traced(*args, **kwargs):
            key = name(args, kwargs) if dynamic else name
            stack.append(0)
            ok = False
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                stack[-1] += dt
                span = spans.get(key)
                if span is None:
                    span = spans[key] = Span()
                span.calls += 1
                span.total_ns += dt
                span.self_ns += dt - child
                if not ok:
                    span.failed += 1
            if on_result is not None:
                on_result(span, key, args, out)
            return out

        return traced

    def patch(self, owner, attr, new):
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr), new))
        setattr(owner, attr, new)

    def _unpatch(self):
        for owner, attr, had, old, _ in reversed(self._patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    @contextmanager
    def detached(self):
        """Run the block with every original binding in place."""
        self._unpatch()
        try:
            yield
        finally:
            for owner, attr, _, _, new in self._patches:
                setattr(owner, attr, new)

    def take(self) -> dict:
        """Return the spans recorded so far and start an empty set."""
        out = dict(self.spans)
        self.spans.clear()
        return out

    def close(self):
        self._unpatch()
        self._patches.clear()


# ---------------------------------------------------------------------------
# package instrumentation

def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "micronet" or n.startswith("micronet.")]


def _public_functions(mod):
    for attr, fn in list(vars(mod).items()):
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(inspect.unwrap(fn))):
            yield attr, fn


def conv_kind(spec) -> str:
    """pw: 1x1 kernel; dw: one input channel per group; dense: the rest."""
    if spec.kernel == (1, 1):
        return "pw"
    if spec.groups == spec.in_channels:
        return "dw"
    return "dense"


def _conv_name(args, kwargs):
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    return "tensor.conv2d." + conv_kind(spec)


def instrument(tracer: Tracer) -> set:
    """Wrap the public functions of every module in LAYERS and the METHODS,
    rebinding each wrapper in every micronet module that imported
    the function by name. Returns the span names of the tensor ops that
    add a node to the graph (those annotated to return a Tensor)."""
    layers = {layer: importlib.import_module(f"micronet.{layer}") for layer in LAYERS}
    modules = _package_modules()
    ops = set()

    def op_result(span, key, args, out):
        if type(out) is not Tensor:
            return
        if key.startswith("tensor.conv2d."):
            x, w = args[0].data, args[1].data
            span.madds += out.data.size * w[0].size
            span.nbytes += x.nbytes + w.nbytes + out.data.nbytes
        if out._backward is not None:
            out._backward = tracer.wrap(out._backward, key + ".bwd")

    for layer, mod in layers.items():
        for attr, fn in _public_functions(mod):
            if layer == "tensor":
                if attr == "conv2d":
                    name = _conv_name
                    names = [f"tensor.conv2d.{k}" for k in ("pw", "dw", "dense")]
                else:
                    name = f"tensor.{attr}"
                    names = [name]
                if fn.__annotations__.get("return") == "Tensor":
                    ops.update(names)
                wrapper = tracer.wrap(fn, name, op_result)
            else:
                wrapper = tracer.wrap(fn, f"{layer}.{attr}")
            for m in modules:
                for a, v in list(vars(m).items()):
                    if v is fn:
                        tracer.patch(m, a, wrapper)
        for cls_name, attrs in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                tracer.patch(cls, attr, tracer.wrap(vars(cls)[attr],
                                                    f"{layer}.{cls_name}.{attr}"))
    return ops


# ---------------------------------------------------------------------------
# join with count_costs

def _record_shape(span, key, args, out):
    span.shape = tuple(out.shape[1:])


def _count_images(span, key, args, out):
    span.images += args[0].shape[0]


def _unit_targets(net, name):
    """(owner, attribute) bindings that execute one count_costs record."""
    *path, leaf = name.split(".")
    owner = net
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, Module):
            return []
    child = getattr(owner, leaf, None)
    if isinstance(child, Module):
        return [(child, "forward")]
    if leaf == "norm":
        # one record covers all of a block's norm1..norm3 layers
        return [(m, "forward") for a, m in vars(owner).items()
                if re.fullmatch(r"norm\d+", a) and isinstance(m, Module)]
    pointwise = getattr(owner, "pointwise", None)
    if leaf in ("compress", "expand") and pointwise is not None:
        return [(pointwise, leaf)]
    return []


class CostJoin:
    """Times every count_costs record of an attached network under
    "<prefix>.<record name>" and keeps the shape each unit produced."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.reports = {}       # prefix -> CostReport
        self.untimed = {}       # prefix -> record names with no binding
        self._head_weights = {}
        self._current = [None]
        self._head_patched = False
        self._attached = []

    def _patch_head(self):
        models = micronet.models
        tr = self.tracer
        tr.patch(models, "linear", tr.wrap(
            models.linear,
            lambda a, k: self._head_weights.get(id(a[1]), "models.linear"),
            _record_shape))
        tr.patch(models, "global_avg_pool", tr.wrap(
            models.global_avg_pool,
            lambda a, k: f"{self._current[0]}.head.pool", _record_shape))
        self._head_patched = True

    def attach(self, net, prefix: str, resolution: int):
        """Instrument `net` once; later calls with the same network return."""
        if any(n is net for n in self._attached):
            return
        self._attached.append(net)
        tr = self.tracer
        if not self._head_patched:
            self._patch_head()
        report = micronet.analysis.count_costs(net, resolution)
        self.reports[prefix] = report
        traced_forward = tr.wrap(net.forward, f"{prefix}.forward", _count_images)

        def forward(*args, **kwargs):
            self._current[0] = prefix
            return traced_forward(*args, **kwargs)

        tr.patch(net, "forward", forward)
        self._head_weights[id(net.head.fc1_w)] = f"{prefix}.head.fc1"
        self._head_weights[id(net.head.fc2_w)] = f"{prefix}.head.fc2"
        untimed = []
        for rec in report.records:
            if rec.name in HEAD_RECORDS:
                continue
            targets = _unit_targets(net, rec.name)
            if not targets:
                untimed.append(rec.name)
            for owner, attr in targets:
                tr.patch(owner, attr, tr.wrap(getattr(owner, attr),
                                              f"{prefix}.{rec.name}",
                                              _record_shape))
        self.untimed[prefix] = untimed

    def table(self, spans: dict) -> dict:
        """Per prefix: one row per record, plus forward and outside time.

        Records that never ran count as untimed; a record whose out_shape
        differs from the traced output shape counts as a mismatch."""
        out = {}
        for prefix, report in self.reports.items():
            fwd = spans.get(f"{prefix}.forward") or Span()
            rows, units_ns = [], 0
            for rec in report.records:
                span = spans.get(f"{prefix}.{rec.name}")
                ns = span.total_ns if span else 0
                units_ns += ns
                want = tuple(rec.out_shape) if rec.out_shape else None
                got = span.shape if span else None
                rows.append({
                    "name": rec.name, "kind": rec.kind, "madds": rec.madds,
                    "ns": ns, "timed": span is not None,
                    "out_shape": want, "traced_shape": got,
                    "mismatch": want is not None and got is not None and want != got,
                })
            out[prefix] = {"rows": rows, "forward_ns": fwd.total_ns,
                           "images": fwd.images,
                           "outside_ns": fwd.total_ns - units_ns}
        return out


# ---------------------------------------------------------------------------
# per-layer metrics

def _group(name: str) -> str:
    """stem, blocks.<i> or head: the unit of the models table a record is in."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "blocks" else parts[0]


def layer_metrics(setup: dict, loop: dict, ops: set, join: CostJoin,
                  requests: int, io_bytes: dict, untraced_p50_ms: float,
                  traced_p50_ms: float, model_blocks: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the join table.

    Times, calls and bytes of the timed loop are per request. Set-up and
    I/O calls are per call. `model_blocks` maps each model prefix the
    benchmark can report to its block count; a model the workload does not
    run reports zeros."""
    spans = dict(loop)
    every = dict(setup)
    for k, s in loop.items():
        if k in every:
            merged = Span()
            for src in (every[k], s):
                merged.calls += src.calls
                merged.total_ns += src.total_ns
                merged.failed += src.failed
            every[k] = merged
        else:
            every[k] = s
    empty = Span()
    per = max(requests, 1)

    def get(name):
        return spans.get(name, empty)

    def ms(name):
        return get(name).total_ns / 1e6 / per

    def per_call_ms(name):
        s = every.get(name, empty)
        return s.total_ns / 1e6 / s.calls if s.calls else 0.0

    def mb_s(name):
        t = per_call_ms(name)
        return io_bytes.get(name, 0) / 1e6 / (t / 1e3) if t else 0.0

    m = {}
    for kind in ("pw", "dw", "dense"):
        s = get(f"tensor.conv2d.{kind}")
        m[f"tensor.conv2d.{kind}.ms"] = s.total_ns / 1e6 / per
        m[f"tensor.conv2d.{kind}.calls"] = s.calls / per
        m[f"tensor.conv2d.{kind}.gmac_s"] = s.madds / s.total_ns if s.total_ns else 0.0
        m[f"tensor.conv2d.{kind}.bytes_computed"] = s.nbytes / 1e6 / per
        m[f"tensor.conv2d.{kind}.bwd_ms"] = ms(f"tensor.conv2d.{kind}.bwd")
    for op in ("stack_max", "channel_scale", "roll_channels", "take_index",
               "batch_norm_inference", "batch_norm"):
        m[f"tensor.{op}.ms"] = ms(f"tensor.{op}")
    for op in ("stack_max", "channel_scale", "take_index", "batch_norm"):
        m[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
    m["tensor.nodes"] = sum(get(op).calls for op in ops) / per
    m["tensor.bwd_ms"] = sum(s.total_ns for k, s in spans.items()
                             if k.endswith(".bwd")) / 1e6 / per
    m["tensor.backward.ms"] = ms("tensor.Tensor.backward")
    m["tensor.backward.self_ms"] = get("tensor.Tensor.backward").self_ns / 1e6 / per

    m["microfac.MicroFacDepthwise.forward.ms"] = ms("microfac.MicroFacDepthwise.forward")
    for fn in ("compress", "shuffle", "expand"):
        m[f"microfac.MicroFacPointwise.{fn}.ms"] = ms(f"microfac.MicroFacPointwise.{fn}")
    m["dyshiftmax.DyShiftMax.forward.ms"] = ms("dyshiftmax.DyShiftMax.forward")
    m["dyshiftmax.DyShiftMax.forward.self_ms"] = (
        get("dyshiftmax.DyShiftMax.forward").self_ns / 1e6 / per)
    m["dyshiftmax.DyShiftMax.coefficients.ms"] = ms("dyshiftmax.DyShiftMax.coefficients")

    table = join.table(spans)
    accounted_ns = 0
    for prefix, nblocks in model_blocks.items():
        t = table.get(prefix)
        groups = {"stem": [0, 0], "head": [0, 0]}
        groups.update({f"blocks.{i}": [0, 0] for i in range(nblocks)})
        if t is not None:
            accounted_ns += t["forward_ns"]
            for row in t["rows"]:
                g = groups.setdefault(_group(row["name"]), [0, 0])
                g[0] += row["ns"]
                g[1] += row["madds"] * t["images"]
        fwd_ns = t["forward_ns"] if t else 0
        for g, (ns, madds) in groups.items():
            m[f"{prefix}.{g}.ms"] = ns / 1e6 / per
            m[f"{prefix}.{g}.share"] = ns / fwd_ns if fwd_ns else 0.0
            m[f"{prefix}.{g}.gmac_s"] = madds / ns if ns else 0.0
        m[f"{prefix}.outside.ms"] = (t["outside_ns"] / 1e6 / per) if t else 0.0
    m["models.build_model.ms"] = per_call_ms("models.build_model")

    # train_model calls the network, the loss, backward and the optimizer
    # once per step; every traced forward of train_m0 runs inside it.
    training = "train.train_model" in spans
    for name in ("train.SGD.step", "train.SGD.zero_grad"):
        m[f"{name}.ms"] = ms(name)
    m["train.softmax_cross_entropy.ms"] = ms("tensor.softmax_cross_entropy")
    m["train.forward.ms"] = ms("models.Network.forward") if training else 0.0
    if training:
        accounted_ns += sum(get(n).total_ns for n in (
            "tensor.Tensor.backward", "train.SGD.step", "train.SGD.zero_grad",
            "tensor.softmax_cross_entropy"))
    accounted_ms = accounted_ns / 1e6 / per
    m["models.join_error_share"] = (abs(accounted_ms / untraced_p50_ms - 1.0)
                                    if untraced_p50_ms else 0.0)

    for name in ("weights_io.load_archive", "weights_io.save_weights",
                 "data.load_dataset"):
        m[f"{name}.ms"] = per_call_ms(name)
        m[f"{name}.mb_s"] = mb_s(name)
    m["weights_io.restore_state.ms"] = per_call_ms("weights_io.restore_state")
    m["analysis.count_costs.ms"] = per_call_ms("analysis.count_costs")
    m["analysis.shape_mismatches"] = sum(
        r["mismatch"] for t in table.values() for r in t["rows"])
    m["analysis.untimed_records"] = sum(
        not r["timed"] for t in table.values() for r in t["rows"])
    for layer in LAYERS:
        m[f"{layer}.failed"] = sum(s.failed for k, s in every.items()
                                   if k.startswith(layer + "."))
    m["trace.overhead_share"] = (traced_p50_ms / untraced_p50_ms - 1.0
                                 if untraced_p50_ms else 0.0)
    return m, {"table": table, "accounted_ms": accounted_ms}

"""perfbench's tracer against the package: the bindings it swaps for timing
wrappers reach the calls a forward and a training step make, its backward
included, and closing the tracer puts the original objects back.
perfbench/tracing.py is loaded by path, as perfbench/run.py runs it, not
imported as a package."""

import importlib.util
from pathlib import Path

import numpy as np

from micronet import microfac, models, tensor
from micronet.models import build_model
from micronet.module import Context
from micronet.tensor import no_grad, softmax_cross_entropy
from micronet.train import SGD

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# spans the per-layer metrics read, each of which a tiny forward reaches,
# the shuffle of every B/C block (tensor.permute_channels) included
SPANS = ("tensor.conv2d.pw", "tensor.conv2d.dw", "tensor.conv2d.dense",
         "microfac.MicroFacPointwise.compress", "microfac.MicroFacPointwise.shuffle",
         "tensor.permute_channels", "microfac.MicroFacPointwise.expand",
         "microfac.MicroFacDepthwise.forward", "dyshiftmax.DyShiftMax.coefficients")
# spans of the training step's backward: the closures the tracer wraps as
# each op is created (tensor.bwd_ms sums them) and Tensor.backward itself,
# which releases each closure after it has run
BACKWARD_SPANS = ("tensor.conv2d.pw.bwd", "tensor.conv2d.dw.bwd",
                  "tensor.conv2d_composed.bwd", "tensor.shift_max.bwd",
                  "tensor.Tensor.backward")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {"tensor.conv2d": tensor.conv2d, "microfac.conv2d": microfac.conv2d,
            "models.conv2d": models.conv2d, "models.linear": models.linear,
            "MicroFacPointwise.shuffle": vars(microfac.MicroFacPointwise)["shuffle"]}


def test_tracer_times_the_package_calls_and_restores_its_bindings():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        net = build_model("tiny", seed=0)
        rng = np.random.default_rng(0)
        with no_grad():
            for n in (1, 2):
                net(rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
                    Context(training=False))
        net = build_model("tiny", seed=0, dtype=np.float64)
        opt = SGD(net.named_params(), lr=0.01)
        logits = net(rng.standard_normal((2, 3, 32, 32)), Context(training=True, rng=rng))
        softmax_cross_entropy(logits, np.arange(2)).backward()
        opt.step()
    finally:
        tracer.close()

    spans = tracer.spans
    assert {name: (spans[name].calls, spans[name].failed) for name in SPANS + BACKWARD_SPANS
            if name not in spans or not spans[name].calls or spans[name].failed} == {}
    after = _bindings()
    assert [name for name in before if after[name] is not before[name]] == []

"""Every draw of the package is seeded by its caller: no generator is made
without a seed or from a constant one, and nothing that draws can be
built or run without a seed or a generator."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import micronet
from micronet.analysis import verify_model
from micronet.dyshiftmax import DyShiftMax
from micronet.microfac import MicroFacDepthwise, MicroFacPointwise
from micronet.models import Network, build_model, model_spec
from micronet.module import Context

PACKAGE = Path(micronet.__file__).resolve().parent


def generator_calls():
    """(file, line, seed) of each default_rng call in the package: seed is
    "none" without an argument, "constant" when every argument is a
    literal, and "caller" otherwise."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None))
                    == "default_rng"):
                args = node.args + [k.value for k in node.keywords]
                seed = ("none" if not args else
                        "constant" if all(isinstance(a, ast.Constant) for a in args)
                        else "caller")
                found.append((path.name, node.lineno, seed))
    return found


def test_every_generator_is_seeded():
    calls = generator_calls()
    assert calls and [c for c in calls if c[2] != "caller"] == []


@pytest.mark.parametrize("build,missing", [
    (lambda: MicroFacPointwise(8, 8, 4), "rng"),
    (lambda: MicroFacDepthwise(4, 3), "rng"),
    (lambda: DyShiftMax(8, 2), "rng"),
    (lambda: Network(model_spec("tiny")), "rng"),
    (lambda: build_model("tiny"), "seed"),
    (lambda: verify_model(build_model("tiny", seed=0)), "rng"),
], ids=["MicroFacPointwise", "MicroFacDepthwise", "DyShiftMax", "Network", "build_model",
        "verify_model"])
def test_layers_that_draw_need_a_generator(build, missing):
    with pytest.raises(TypeError, match=missing):
        build()


def test_training_context_needs_a_generator():
    with pytest.raises(ValueError, match="rng"):
        Context(training=True)
    assert Context().rng is None
    # dropout draws its masks from the Context's generator: equal seeds repeat
    spec = dataclasses.replace(model_spec("tiny"), dropout=0.5)
    net = Network(spec, rng=np.random.default_rng(0), dtype=np.float64)
    x = np.random.default_rng(3).standard_normal((2, 3, 32, 32))
    a, b = (net(x, Context(training=True, rng=np.random.default_rng(0))).data
            for _ in range(2))
    assert a.tobytes() == b.tobytes()

"""Every draw of the package is seeded: no generator is made without a seed,
and no layer that draws weights can be built without one."""

import ast
from pathlib import Path

import pytest

import micronet
from micronet.dyshiftmax import DyShiftMax
from micronet.microfac import MicroFacDepthwise, MicroFacPointwise
from micronet.models import Network, model_spec

PACKAGE = Path(micronet.__file__).resolve().parent


def generator_calls():
    """(file, line, seeded) of each default_rng call in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None))
                    == "default_rng"):
                found.append((path.name, node.lineno, bool(node.args or node.keywords)))
    return found


def test_every_generator_is_seeded():
    calls = generator_calls()
    assert calls and [c for c in calls if not c[2]] == []


@pytest.mark.parametrize("build", [
    lambda: MicroFacPointwise(8, 8, 4),
    lambda: MicroFacDepthwise(4, 3),
    lambda: DyShiftMax(8, 2),
    lambda: Network(model_spec("tiny")),
], ids=["MicroFacPointwise", "MicroFacDepthwise", "DyShiftMax", "Network"])
def test_layers_that_draw_need_a_generator(build):
    with pytest.raises(TypeError, match="rng"):
        build()

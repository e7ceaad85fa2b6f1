"""Every package statement runs for a reason: the shipped surface, traced
with sys.settrace, reaches every statement inside a function body of
src/micronet except error paths (a raise, or an except body) and the
groups of UNREACHED, which README "Layout" lists with the reason each is
kept."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import micronet
import micronet.cli as cli_mod
from micronet.cli import main
from micronet.models import VARIANTS, build_model
from micronet.module import Context
from micronet.tensor import no_grad, softmax_cross_entropy
from micronet.train import SGD

PACKAGE = Path(micronet.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# Each group of statements the shipped surface leaves unreached that is not
# an error path, by its name in README "Layout", which gives the reason it
# is kept. A statement is named as (file, function, start): function is the
# dotted name of the innermost function holding it (methods and closures
# included), start the beginning of its first line, or None for every
# statement of the function.
UNREACHED = {
    "`_conv_affine`'s eval-mode backward": [
        ("tensor.py", "_conv_affine.backward", text) for text in (
            "need_gamma = ", "gx, gw = vjp(gout, x.requires_grad, need_w or need_gamma)",
            "_accumulate(x, gx", "gb = ", "ga = ", "_accumulate(gamma", "_accumulate(beta",
            "return gw * a")],
    "`shift_max`'s J ≠ 2 and K ≠ 2 branches": [
        ("tensor.py", "_route", "win &= free"),
        ("tensor.py", "_route", "free &= ~win"),
        ("tensor.py", "shift_max", "np.maximum(part, out, out=out)"),
        ("tensor.py", "shift_max.backward", "gf = g[None]"),
        ("tensor.py", "shift_max.backward", "r = j * s % c"),
        ("tensor.py", "shift_max.backward", "gx[:, r:] +="),
        ("tensor.py", "shift_max.backward", "gx[:, :r] +=")],
    "`_conv_rows`' input gradient": [
        ("tensor.py", "_conv_rows.vjp", "gx, _ = _im2col_vjp")],
    "`_accumulate`'s return for a tensor without gradient": [
        ("tensor.py", "_accumulate", "return")],
    "`dropout`'s zero rate": [
        ("tensor.py", "dropout", "return x")],
    "`_NormFolds`' copy and rebound-array guards": [
        ("models.py", "_NormFolds.__reduce__", None),
        ("models.py", "_NormFolds.prepare", "return None")],
    "`Network.forward`'s dtype cast": [
        ("models.py", "Network.forward", "x = Tensor(x.data.astype")],
    "`build_model` given a `ModelSpec`": [
        ("models.py", "build_model", "spec = variant_or_spec")],
    "`Context`'s default rng": [
        ("module.py", "Context.rng", "self._rng = ")],
    "the rank law's degenerate blocks": [
        ("analysis.py", "rank_law_holds", "continue")],
    "SGD's skip of a parameter without a gradient": [
        ("train.py", "SGD.step", "continue")],
    "`_read`'s short read": [
        ("weights_io.py", "_read", "return buf[:got]")],
}


def _statements(source: str):
    """(function, first line, last line, error) of each statement inside a
    function body. A compound statement is its statements; a nested def is
    its decorator and signature lines. error marks the error paths: a
    raise, every statement of an except body, and the methods of an
    exception class, which run only to raise it. Statements without
    bytecode (a docstring or other constant, global) have no line to trace
    and are skipped."""
    found = []

    def walk(body, scope, in_function, error):
        for st in body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function:
                    first = min([d.lineno for d in st.decorator_list] + [st.lineno])
                    found.append((scope, first, st.body[0].lineno - 1, error))
                bases = [getattr(b, "id", getattr(b, "attr", "")) for b in
                         getattr(st, "bases", [])]
                walk(st.body, f"{scope}.{st.name}" if scope else st.name,
                     in_function or not isinstance(st, ast.ClassDef),
                     error or any(b.endswith(("Error", "Exception")) for b in bases))
            elif isinstance(st, (ast.Global, ast.Nonlocal)) or (
                    isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)):
                continue
            elif any(hasattr(st, field) for field in ("body", "orelse", "finalbody")):
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(st, field, []), scope, in_function, error)
                for handler in getattr(st, "handlers", []):
                    walk(handler.body, scope, in_function, True)
            elif in_function:
                found.append((scope, st.lineno, st.end_lineno,
                              error or isinstance(st, ast.Raise)))

    walk(ast.parse(source).body, "", False, False)
    return found


def _traced_lines(run) -> set:
    """(file name, line) of each line event in the package while run()
    runs. Any tracer set before is restored afterwards."""
    hits = set()
    names = {}      # code file -> its name in the package, or None

    def local(frame, event, arg):
        if event == "line":
            hits.add((names[frame.f_code.co_filename], frame.f_lineno))
        return local

    def enter(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in names:
            resolved = Path(path).resolve()
            names[path] = resolved.name if resolved.parent == PACKAGE else None
        return local if names[path] else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def _shipped_surface(tmp: Path):
    """--help, a usage error, every command on tiny, analyze and verify on
    M0-M3, and eval forwards and a float64 training step of every variant."""
    def command(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, (argv, code)

    def exits(code, *argv):
        with pytest.raises(SystemExit) as e:
            main(list(argv))
        assert e.value.code == code, (argv, e.value.code)

    ds, weights = tmp / "ds", tmp / "w.mnwt"
    exits(0, "--help")
    exits(2, "train", "--epochs", "0")
    command("analyze", "--variant", "tiny")
    command("analyze", "--variant", "tiny", "--json", "--output", tmp / "cost.json")
    command("verify", "--variant", "tiny")
    # G* = (108 / 4)^(1/3) = 3: one row is balanced
    command("sweep", "--budget", 108, "--reduction", 2)
    command("sweep", "--budget", 100, "--reduction", 4, "--json")
    # 17 images: a batch of 16 ends with a batch of one image
    command("dataset", "--count", 17, "--output", ds)
    command("train", "--synthetic", 8, "--epochs", 2, "--target-accuracy", 0,
            "--output", weights)
    command("train", "--data", ds, "--epochs", 1, "--json")
    command("infer", "--weights", weights, "--data", ds, "--batch-size", 1)
    command("infer", "--weights", weights, "--data", ds, "--batch-size", 4, "--json")
    command("bench", "--variant", "tiny", "--resolution", 32, "--repeats", 2,
            "--warmup", 1)
    for variant in ("M0", "M1", "M2", "M3"):
        command("analyze", "--variant", variant, "--json")
        command("verify", "--variant", variant)
    for variant in VARIANTS:
        net = build_model(variant, seed=0)
        with no_grad():
            for n in (1, 2):
                net(np.zeros((n, 3, 32, 32), np.float32), Context(training=False))
        net = build_model(variant, seed=0, dtype=np.float64, num_classes=2)
        rng = np.random.default_rng(0)
        opt = SGD(net.named_params(), lr=0.01)
        logits = net(rng.standard_normal((2, 3, 32, 32)), Context(training=True, rng=rng))
        softmax_cross_entropy(logits, np.arange(2)).backward()
        opt.step()


def _unreached(hits):
    """(file, function, line, source line, error) of every statement that
    no line event reached."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for function, first, last, error in _statements(source):
            if not any((path.name, i) in hits for i in range(first, last + 1)):
                out.append((path.name, function, first, lines[first - 1].strip(), error))
    return out


def _named(statement, entry) -> bool:
    file, function, _, text, _ = statement
    return (file, function) == entry[:2] and (entry[2] is None or text.startswith(entry[2]))


def test_shipped_surface_reaches_every_statement(tmp_path, monkeypatch, capsys):
    # bench times one thread only: count them, then report one
    real = cli_mod._running_threads
    monkeypatch.setattr(cli_mod, "_running_threads", lambda: real() and 1)
    missed = _unreached(_traced_lines(lambda: _shipped_surface(tmp_path)))
    capsys.readouterr()

    entries = [entry for group in UNREACHED.values() for entry in group]
    unexplained = [f"{s[0]}:{s[2]} {s[1]}: {s[3]}" for s in missed
                   if not s[4] and not any(_named(s, e) for e in entries)]
    assert not unexplained, "unreached, not an error path and not named:\n" + "\n".join(
        unexplained)
    stale = [entry for entry in entries if not any(_named(s, entry) for s in missed)]
    assert not stale, f"named but reached, or gone: {stale}"


def test_readme_names_every_unreached_group():
    text = README.read_text(encoding="utf-8")
    layout = text[text.index("## Layout"):text.index("## Install")]
    assert [g for g in UNREACHED if g not in layout] == []


def test_statements_are_split_as_traced():
    # a compound statement is its statements, a nested def its signature
    source = ('def f(x):\n'
              '    """doc"""\n'
              '    global G\n'
              '    if x:\n'
              '        y = (1,\n'
              '             2)\n'
              '    try:\n'
              '        pass\n'
              '    except OSError:\n'
              '        return None\n'
              '    def g(a,\n'
              '          b):\n'
              '        raise ValueError(a)\n'
              '    return g\n')
    assert _statements(source) == [("f", 5, 6, False), ("f", 8, 8, False),
                                   ("f", 10, 10, True), ("f", 11, 12, False),
                                   ("f.g", 13, 13, True), ("f", 14, 14, False)]
    before = sys.gettrace()
    assert _traced_lines(lambda: None) == set() and sys.gettrace() is before

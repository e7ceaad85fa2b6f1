"""Cost accounting against frozen desk-checked totals, verification
reports, and the trade-off sweep."""

import dataclasses
import functools
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import param_count

from micronet.analysis import (BUDGETS, MAX_SWEEP_ROWS, _OP_COSTS, CostReport,
                               check_budget, count_costs, format_json, format_sweep,
                               rank_law_holds, sweep_tradeoff, verify_model)
from micronet import tensor
from micronet.microfac import MicroFacPointwise
from micronet.models import VARIANTS, Network, build_model, model_spec
from micronet.module import Context
from micronet.tensor import no_grad

FROZEN_TOTALS = {
    "M0": (4_152_672, 937_886),
    "M1": (6_222_208, 1_709_429),
    "M2": (12_126_480, 2_284_641),
    "M3": (20_922_544, 2_592_495),
}


@pytest.mark.parametrize("variant", sorted(FROZEN_TOTALS))
def test_cost_totals_frozen(variant):
    report = count_costs(build_model(variant, seed=0), 224)
    assert (report.total_madds, report.total_params) == FROZEN_TOTALS[variant]


def test_m2_dynamic_share_frozen():
    report = count_costs(build_model("M2", seed=0), 224)
    assert report.dynamic_madds == 1_688_400
    assert report.dynamic_params == 189_573
    static = report.total_madds - report.dynamic_madds
    assert static == 10_438_080


@pytest.mark.parametrize("variant", sorted(BUDGETS))
def test_budgets_within_ten_percent(variant):
    report = count_costs(build_model(variant, seed=0), 224)
    rows = check_budget(report)
    assert [r["metric"] for r in rows] == ["madds", "params"]
    for r in rows:
        assert r["within"] and abs(r["value"] - r["target"]) <= 0.10 * r["target"], r


def test_budget_tolerance_boundary():
    report = count_costs(build_model("M0", seed=0), 224)
    # M0's multiply-add target is 4,000,000: 20% over is out of the 10% band
    over = CostReport("M0", 224, [dataclasses.replace(report.records[0], madds=4_800_000)]
                      + [dataclasses.replace(r, madds=0) for r in report.records[1:]])
    assert [r["within"] for r in check_budget(over)] == [False, True]
    assert check_budget(count_costs(build_model("tiny", seed=0), 32)) == []
    # budgets are stated at 224x224, so no other resolution is compared
    assert check_budget(count_costs(build_model("M0", seed=0), 64)) == []


def test_report_params_match_live_arrays():
    for variant in ("M0", "tiny"):
        net = build_model(variant, seed=0)
        report = count_costs(net, 224 if variant == "M0" else 32)
        assert report.total_params == param_count(net)
        names = [r.name for r in report.records]
        assert len(names) == len(set(names))
        assert {r.kind for r in report.records} <= {
            "conv", "linear", "pool", "dysm", "norm"}


def test_tiny_report_geometry():
    report = count_costs(build_model("tiny", seed=0), 32)
    by_name = {r.name: r for r in report.records}
    assert by_name["stem.conv1"].out_shape == (2, 16, 32)
    assert by_name["stem.conv2"].out_shape == (4, 16, 16)
    assert by_name["blocks.0.depthwise"].out_shape == (8, 8, 8)
    assert by_name["head.pool"].madds == 8 * 8 * 8
    assert by_name["head.fc1"].madds == 8 * 16
    assert by_name["head.fc2"].madds == 16 * 2


@functools.cache
def _built(variant):
    return build_model(variant, seed=0)


@given(st.sampled_from(VARIANTS), st.integers(8, 256))
@settings(max_examples=40, deadline=None)
def test_cost_shapes_match_forward(variant, resolution):
    # the padded stride-2 stages produce ceil(h / 2); resolutions that are
    # not multiples of 32 round up at some stage
    net = _built(variant)
    records = {r.name: r for r in count_costs(net, resolution).records}
    shapes = {name: r.out_shape for name, r in records.items()}
    ctx = Context(training=False)
    with no_grad():
        x = np.zeros((1, 3, resolution, resolution), net.dtype)
        assert shapes["stem.conv1"] == net.stem.conv1(x, ctx).shape[1:]
        t = net.stem(x, ctx)
        assert shapes["stem.conv2"] == t.shape[1:]
        real = [("stem", t.shape[1], t.shape[2])]
        walk = [("stem",) + shapes["stem.conv2"][:2]]
        for i, blk in enumerate(net.blocks):
            assert shapes[f"blocks.{i}.depthwise"] == blk.depthwise(t, ctx).shape[1:]
            t = blk(t, ctx)
            last = "squeeze" if blk.kind == "A" else "expand"
            assert shapes[f"blocks.{i}.{last}"] == t.shape[1:]
            for name, shape in shapes.items():
                if name.startswith(f"blocks.{i}.") and shape is not None:
                    assert shape[1:] == t.shape[2:], name
            real.append((blk.kind, t.shape[1], t.shape[2]))
            walk.append((blk.kind,) + shapes[f"blocks.{i}.{last}"][:2])
    assert walk == real
    assert records["head.pool"].madds == t.data[0].size


def test_record_order_per_unit():
    # convolutions, pooling and linear layers, then dynamic activations, then
    # the unit's folded norms, whatever order the forward runs them in
    m0 = model_spec("M0")
    spec = dataclasses.replace(m0, blocks=tuple(
        dataclasses.replace(b, activations=("dysm",) * (2 if b.kind == "A" else 3))
        for b in m0.blocks))
    want = ["stem.conv1", "stem.conv2", "stem.norm"]
    for i, b in enumerate(spec.blocks):
        convs = ["squeeze"] if b.kind == "A" else ["compress", "expand"]
        acts = ["act1", "act2"] if b.kind == "A" else ["act1", "act2", "act3"]
        want += [f"blocks.{i}.{n}" for n in ["depthwise", *convs, *acts, "norm"]]
    want += ["head.pool", "head.fc1", "head.fc2"]

    def names(spec):
        net = Network(spec, rng=np.random.default_rng(0))
        return [r.name for r in count_costs(net, 33).records]

    assert names(spec) == want
    assert names(dataclasses.replace(spec, norm="none")) == [
        n for n in want if not n.endswith(".norm")]


def test_failed_trace_leaves_no_tape():
    net = _built("tiny")
    with pytest.raises(ValueError, match="does not fit"):
        count_costs(net, 0)
    assert tensor._tape is None
    assert count_costs(net, 32).total_params == param_count(net)


def test_tape_keeps_no_arrays():
    # a tape that held the ops' backward closures, and so their operands,
    # peaked at 7x the memory of the forward itself
    net = _built("M3")
    x = np.zeros((1, 3, 224, 224), net.dtype)
    tracemalloc.start()
    try:
        with no_grad():
            net(x, Context(training=False))
        _, forward = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        count_costs(net, 224)
        _, traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced <= 2 * forward, (traced, forward)


def test_op_costs_name_live_ops():
    # a deleted or renamed op cannot leave a cost entry behind: each key is
    # a tensor op, a function of micronet.tensor that returns a Tensor
    for op in _OP_COSTS:
        fn = getattr(tensor, op, None)
        assert callable(fn) and fn.__module__ == tensor.__name__, op
        assert fn.__annotations__.get("return") == "Tensor", op


def test_every_op_is_priced_or_free():
    # a new op cannot go unpriced unnoticed: each function of micronet.tensor
    # that returns a Tensor or adds a node (calls _result) has a cost entry
    # or is one of the ops that count_costs counts free
    free = {"add", "permute_channels", "dropout", "softmax_cross_entropy"}
    ops = {name for name, fn in vars(tensor).items()
           if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
           and not name.startswith("_")
           and (fn.__annotations__.get("return") == "Tensor"
                or "_result" in fn.__code__.co_names)}
    assert ops == set(_OP_COSTS) | free


def test_cost_json_and_table_formats():
    report = count_costs(build_model("tiny", seed=0), 32)
    payload = report.to_json()
    assert payload["schema"] == "micronet.cost/1"
    assert payload["totals"]["madds"] == report.total_madds
    parsed = json.loads(format_json(payload))
    assert parsed == payload
    table = report.format_table()
    assert "total" in table and f"{report.total_madds:,}" in table


def test_verify_model_passes_and_serializes():
    net = build_model("M1", seed=3, dtype=np.float64)
    report = verify_model(net, np.random.default_rng(0))
    assert report["passed"]
    assert report["schema"] == "micronet.verify/1"
    assert report["resolution"] == 224 and len(report["budget"]) == 2
    json.loads(format_json(report))
    assert all(r["ok"] for r in report["rank_law"])
    assert all(r["ok"] for r in report["connectivity"])
    assert all(r["ok"] for r in report["factorization"])


def test_verify_model_traces_only_for_a_budget(monkeypatch):
    # tiny has no budget: its report's budget rows are what check_budget
    # makes of the 224x224 trace, without running that trace
    import micronet.analysis as analysis
    calls = []

    def counted(net, *args):
        calls.append(net.spec.name)
        return count_costs(net, *args)

    monkeypatch.setattr(analysis, "count_costs", counted)
    net = build_model("tiny", seed=0, dtype=np.float64)
    report = verify_model(net, np.random.default_rng(0))
    assert calls == []
    assert report["budget"] == check_budget(count_costs(net)) == []
    assert report["passed"] and report["variant"] == "tiny"
    assert len(report["rank_law"]) == len(report["factorization"]) == 1
    verify_model(build_model("M0", seed=0), np.random.default_rng(0))
    assert calls == ["M0"]


def test_verifiers_catch_broken_shuffle():
    net = build_model("M0", seed=0, dtype=np.float64)
    layer = next(m for _, m in net.named_modules() if isinstance(m, MicroFacPointwise))
    layer.perm = np.arange(layer.hidden)
    report = verify_model(net, np.random.default_rng(0))
    ranks, conn = report["rank_law"], report["connectivity"]
    assert not ranks[0]["ok"]
    assert not conn[0]["ok"]
    assert all(r["ok"] for r in ranks[1:])
    assert not report["passed"]
    # a failing row serializes like a passing one
    assert json.loads(format_json(report)) == report


def test_verify_factorization_reports_tolerance():
    net = build_model("tiny", seed=0, dtype=np.float64)
    rows = verify_model(net, np.random.default_rng(0))["factorization"]
    assert rows and all(r["ok"] for r in rows)
    assert max(r["max_error"] for r in rows) < 1e-12


def test_rank_law_trivial_blocks_skipped():
    layer = MicroFacPointwise(4, 4, 4, groups=(4, 1),
                              rng=np.random.default_rng(0))
    ok, worst = rank_law_holds(layer)
    assert ok and worst == 0.0


# ---------------------------------------------------------------------------
# sweep

def test_sweep_frozen_crossing():
    sweep = sweep_tradeoff(108, 2)
    assert sweep["schema"] == "micronet.sweep/1"
    cross = sweep["crossing"]
    assert cross["exact"] and cross["groups"] == pytest.approx(3.0)
    assert cross["channels"] == pytest.approx(18.0)
    rows = {r["groups"]: r for r in sweep["rows"]}
    assert rows[3]["regime"] == "balanced"
    assert rows[3]["channels"] == pytest.approx(18.0)
    assert rows[3]["connectivity"] == pytest.approx(18.0)
    assert rows[2]["regime"] == "over-connected"
    assert rows[4]["regime"] == "under-connected"


def test_sweep_rows_satisfy_cost_identities():
    budget, reduction = 340.0, 4
    sweep = sweep_tradeoff(budget, reduction, max_groups=10)
    for row in sweep["rows"]:
        c, g, e = row["channels"], row["groups"], row["connectivity"]
        assert 2 * c * c / (reduction * g) == pytest.approx(budget)
        assert c * c / (reduction * g * g) == pytest.approx(e)
    regimes = [r["regime"] for r in sweep["rows"]]
    flips = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
    assert flips <= 2 and regimes[0] == "over-connected"
    assert regimes[-1] == "under-connected"


def test_sweep_validation_and_format():
    with pytest.raises(ValueError):
        sweep_tradeoff(0, 2)
    with pytest.raises(ValueError):
        sweep_tradeoff(108, 0)
    for budget in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            sweep_tradeoff(budget, 2)
    with pytest.raises(ValueError, match="--max-groups"):
        sweep_tradeoff(108, 2, max_groups=MAX_SWEEP_ROWS + 1)
    rows = sweep_tradeoff(108, 2, max_groups=MAX_SWEEP_ROWS)["rows"]
    assert len(rows) == MAX_SWEEP_ROWS
    text = format_sweep(sweep_tradeoff(108, 2))
    assert "balance point" in text and "G=3" in text

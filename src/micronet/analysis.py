"""Analysis of built networks: multiply-add and parameter accounting read
off one traced forward, structural verification of the factorized layers,
and the connectivity/channel trade-off sweep.

Counting convention (per image): one multiply-add per weight application.
Convolution costs out_h * out_w * C_out * (C_in / groups) * kh * kw, a
linear layer costs d_in * d_out, global pooling costs h * w * c. Bias
adds, normalization, plain activations and residual adds are free. The
coefficient heads of dynamic activations are counted. Each op's cost is
read off the shapes it ran with (_OP_COSTS), so costs follow the network.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .microfac import MicroFacPointwise, path_count_matrix
from .models import Network
from .module import Context, Module
from .tensor import no_grad

COST_SCHEMA = "micronet.cost/1"
VERIFY_SCHEMA = "micronet.verify/1"
SWEEP_SCHEMA = "micronet.sweep/1"

# (multiply-adds, parameters) targets per variant at 224x224, with a
# +-10% acceptance band.
BUDGETS = {
    "M0": (4_000_000, 1_000_000),
    "M1": (6_000_000, 1_800_000),
    "M2": (12_000_000, 2_400_000),
    "M3": (21_000_000, 2_600_000),
}
BUDGET_TOLERANCE = 0.10

# the most rows (group counts) sweep_tradeoff makes
MAX_SWEEP_ROWS = 4096


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    madds: int
    params: int
    out_shape: tuple | None

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind, "madds": self.madds,
                "params": self.params,
                "out_shape": list(self.out_shape) if self.out_shape else None}


@dataclass
class CostReport:
    variant: str
    resolution: int
    records: list

    @property
    def total_madds(self) -> int:
        return sum(r.madds for r in self.records)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.records)

    @property
    def dynamic_madds(self) -> int:
        return sum(r.madds for r in self.records if r.kind == "dysm")

    @property
    def dynamic_params(self) -> int:
        return sum(r.params for r in self.records if r.kind == "dysm")

    def to_json(self) -> dict:
        return {
            "schema": COST_SCHEMA,
            "variant": self.variant,
            "resolution": self.resolution,
            "layers": [r.to_json() for r in self.records],
            "totals": {
                "madds": self.total_madds,
                "params": self.total_params,
                "dynamic_madds": self.dynamic_madds,
                "dynamic_params": self.dynamic_params,
            },
        }

    def format_table(self) -> str:
        rows = [("layer", "kind", "madds", "params", "out")]
        for r in self.records:
            out = "x".join(str(d) for d in r.out_shape) if r.out_shape else "-"
            rows.append((r.name, r.kind, f"{r.madds:,}", f"{r.params:,}", out))
        rows.append(("total", "", f"{self.total_madds:,}",
                     f"{self.total_params:,}", ""))
        widths = [max(len(row[i]) for row in rows) for i in range(5)]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0 or i == len(rows) - 2:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


# op name -> (record kind, per-image multiply-adds from the output shape and
# the operand shapes); ops not listed (relu, add, permute_channels, ...) are free
_OP_COSTS = {
    "conv2d": ("conv", lambda out, x, w, *_: math.prod(out[1:]) * math.prod(w[1:])),
    # the column stage makes (C_out, OH, W), the row stage (C_out, OH, OW)
    "conv2d_composed": ("conv", lambda out, x, col, row, *_:
                        out[1] * out[2] * (x[3] * col[2] + out[3] * row[3])),
    "linear": ("linear", lambda out, x, w, *_: math.prod(w)),
    "global_avg_pool": ("pool", lambda out, x: math.prod(x[1:])),
    "coefficient_head": ("dysm", lambda out, x, w1, b1, w2, b2:
                         math.prod(x[1:]) + math.prod(w1) + math.prod(w2)),
    "shift_max": ("dysm", lambda out, x, a: math.prod(out[1:]) * math.prod(a[2:])),
}
_KIND_ORDER = {"conv": 0, "pool": 0, "linear": 0, "dysm": 1, "norm": 2}


def trace_costs(module: Module, x) -> list[LayerCost]:
    """The cost records of one eval forward of module on x, read off a Tape.

    A record is named by the innermost module whose call ran the op, plus a
    leaf for the pooling op ("pool") and for a linear op, an op whose weight
    (second operand) another module holds, or an op the root module runs
    itself: the weight's attribute without "_w" (head.fc1, blocks.3.compress,
    and compress for a bare MicroFacPointwise). Ops of one name add up and
    keep the last output shape. A parameter counts toward the op that reads
    it, a folded norm's toward "<parent>.norm". Records are ordered by the
    top-level unit they ran in, then convolutions, pooling and linear
    layers before dynamic activations before norms."""
    paths = {id(m): path for path, m in module.named_modules()}
    # parameter id -> (path of the module holding it, attribute)
    owners = {id(p): name.rpartition(".")[::2] for name, p in module.named_params()}
    tensor._tape = tape = tensor.Tape()
    try:
        with no_grad():
            module(x, Context(training=False))
    finally:
        tensor._tape = None

    records, units = {}, {}     # name -> [kind, madds, params, shape, unit]
    for op, out, operands, stack in tape.ops:
        if op not in _OP_COSTS:
            continue
        kind, madds = _OP_COSTS[op]
        top = paths[id(stack[-1])]
        unit = units.setdefault(paths[id(stack[:2][-1])], len(units))
        weight = owners.get(operands[1][0]) if len(operands) > 1 else None
        leaf = "pool" if kind == "pool" else None
        if weight and (op == "linear" or weight[0] != top or not top):
            leaf = weight[1].removesuffix("_w")
        name = ".".join(filter(None, (top, leaf)))
        rec = records.setdefault(name, [kind, 0, 0, None, unit])
        rec[1] += madds(out, *(shape for _, shape in operands))
        rec[3] = out[1:]
        for owner, shape in ((owners.get(i), shape) for i, shape in operands):
            if owner and weight and owner[0] == weight[0]:
                rec[2] += math.prod(shape)
            elif owner:
                norm = ".".join(filter(None, (owner[0].rpartition(".")[0], "norm")))
                records.setdefault(norm, ["norm", 0, 0, None, unit])[2] += math.prod(shape)
    ordered = sorted(records.items(), key=lambda r: (r[1][4], _KIND_ORDER[r[1][0]]))
    return [LayerCost(name, kind, madds, params, shape)
            for name, (kind, madds, params, shape, _) in ordered]


def count_costs(net: Network, resolution: int = 224) -> CostReport:
    """trace_costs of net on a zero (1, 3, resolution, resolution) image:
    per-image multiply-adds, parameter totals that match the live arrays,
    and each unit's output shape as the forward made it."""
    x = np.zeros((1, 3, resolution, resolution), net.dtype)
    return CostReport(net.spec.name, resolution, trace_costs(net, x))


def check_budget(report: CostReport) -> list[dict]:
    """The report's totals against its variant's budget within BUDGET_TOLERANCE,
    as {"metric", "value", "target", "within"} rows; empty unless the variant
    has a budget and the report is at 224x224, where budgets are stated."""
    budget = BUDGETS.get(report.variant)
    if budget is None or report.resolution != 224:
        return []
    return [{"metric": metric, "value": value, "target": target,
             "within": abs(value - target) <= BUDGET_TOLERANCE * target}
            for metric, value, target in (("madds", report.total_madds, budget[0]),
                                          ("params", report.total_params, budget[1]))]


# ---------------------------------------------------------------------------
# structural verification

def rank_law_holds(layer) -> tuple[bool, float]:
    """Check that every (C_out/g2) x (C_in/g1) sub-block of the dense
    equivalent matrix has rank at most one: singular values s2 <= 1e-8 * s1.

    Returns (ok, worst second-to-first singular value ratio)."""
    dense = layer.expand_dense()
    rows, cols = layer.out_channels // layer.g2, layer.in_channels // layer.g1
    worst = 0.0
    for a in range(layer.g2):
        for b in range(layer.g1):
            block = dense[a * rows:(a + 1) * rows, b * cols:(b + 1) * cols]
            if min(block.shape) < 2:
                continue
            s = np.linalg.svd(block, compute_uv=False)
            if s[0] <= 0.0:
                continue
            worst = max(worst, float(s[1] / s[0]))
    return worst <= 1e-8, worst


def verify_model(net: Network, rng: np.random.Generator) -> dict:
    """The JSON-ready structural report of net: its budget rows at 224x224
    (none, and no trace, for a name without a budget), then per factorized
    pointwise layer a rank_law row (rank-one blocks), a connectivity row
    (c_in paths into each output, at least one from each input) and a
    factorization row (equal to the dense equivalent on activations drawn
    from rng)."""
    tol = 1e-10 if net.dtype == np.float64 else 1e-4
    ranks, conn, fact = [], [], []
    layers = [(n, m) for n, m in net.named_modules() if isinstance(m, MicroFacPointwise)]
    for name, layer in layers:
        ok, worst = rank_law_holds(layer)
        ranks.append({"layer": name, "blocks": layer.g1 * layer.g2,
                      "worst_ratio": worst, "ok": ok})
        paths = path_count_matrix(layer)
        per_output = paths.sum(axis=1)
        conn.append({"layer": name, "in_channels": layer.in_channels,
                     "min_paths": int(paths.min()), "max_paths": int(paths.max()),
                     "paths_per_output": int(per_output[0]),
                     "ok": bool(paths.min() >= 1
                                and (per_output == layer.in_channels).all())})
        x = rng.standard_normal((2, layer.in_channels, 3, 3)).astype(net.dtype)
        want = np.einsum("oi,nihw->nohw", layer.expand_dense(), x)
        err = float(np.abs(layer(x).data - want).max())
        fact.append({"layer": name, "max_error": err, "ok": err <= tol})
    budget = check_budget(count_costs(net)) if net.spec.name in BUDGETS else []
    passed = all(r["within"] for r in budget) and all(r["ok"] for r in ranks + conn + fact)
    return {"schema": VERIFY_SCHEMA, "variant": net.spec.name, "resolution": 224,
            "passed": passed, "budget": budget, "rank_law": ranks,
            "connectivity": conn, "factorization": fact}


# ---------------------------------------------------------------------------
# connectivity/channel trade-off sweep

def sweep_tradeoff(budget: float, reduction: int,
                   max_groups: int | None = None) -> dict:
    """Sweep group counts under a fixed pointwise multiply-add budget.

    With per-position cost O = 2C^2/(RG) held fixed, each integer G yields
    channel width C = sqrt(O*R*G/2) and connectivity E = O/(2G). The two
    curves cross at G* = (O/(2R))^(1/3), where E = C = R*G*^2; widths
    beyond that point lose connectivity faster than they gain channels.
    """
    try:
        usable = (math.isfinite(budget) and budget > 0
                  and math.isfinite(reduction) and reduction > 0)
    except OverflowError:       # an int beyond float range
        usable = False
    if not usable:
        raise ValueError("budget and reduction must be finite and positive")
    g_star = (budget / (2.0 * reduction)) ** (1.0 / 3.0)
    if max_groups is None:
        max_groups = max(8, math.ceil(g_star) + 2)
    if max_groups > MAX_SWEEP_ROWS:
        raise ValueError(f"the sweep would have {max_groups:.4g} rows, more than "
                         f"{MAX_SWEEP_ROWS}; pass --max-groups up to {MAX_SWEEP_ROWS}")
    rows = []
    for g in range(1, max_groups + 1):
        channels = math.sqrt(budget * reduction * g / 2.0)
        conn = budget / (2.0 * g)
        if abs(conn - channels) <= 1e-9 * max(conn, channels):
            regime = "balanced"
        elif conn > channels:
            regime = "over-connected"
        else:
            regime = "under-connected"
        rows.append({"groups": g, "channels": channels, "connectivity": conn,
                     "regime": regime})
    crossing = {
        "groups": g_star,
        "channels": reduction * g_star * g_star,
        "exact": abs(g_star - round(g_star)) <= 1e-9,
    }
    # the widest row is the last; 2 * reduction overflowing makes g_star 0
    if not (math.isfinite(rows[-1]["channels"]) and g_star > 0
            and math.isfinite(crossing["channels"])):
        raise ValueError(f"reduction {reduction:.4g} is too large for budget {budget:g}: "
                         "the channel widths are not finite")
    return {
        "schema": SWEEP_SCHEMA,
        "budget": budget,
        "reduction": reduction,
        "crossing": crossing,
        "rows": rows,
    }


def format_sweep(sweep: dict) -> str:
    lines = [f"budget={sweep['budget']:g} madds/position  "
             f"reduction={sweep['reduction']}",
             f"{'G':>4}  {'channels':>10}  {'connectivity':>12}  regime"]
    for row in sweep["rows"]:
        lines.append(f"{row['groups']:>4}  {row['channels']:>10.2f}  "
                     f"{row['connectivity']:>12.2f}  {row['regime']}")
    c = sweep["crossing"]
    mark = "" if c["exact"] else " (non-integer)"
    lines.append(f"balance point: G={c['groups']:.4g}, "
                 f"C=E={c['channels']:.4g}{mark}")
    return "\n".join(lines)


def format_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)

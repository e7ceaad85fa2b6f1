"""Acceptance suite: the ten headline guarantees, one test each.

Every test prints a single [criterion NN] line directly to the terminal
so the run reads as a checklist; pytest -v adds the usual PASSED/FAILED
verdict per test name.
"""

import time

import numpy as np
import pytest
from helpers import traced_madds
from reference import (conv_madds, finite_difference_check, path_count_oracle,
                       reference_eval)

from micronet.analysis import (check_budget, count_costs, rank_law_holds,
                               sweep_tradeoff, verify_model)
from micronet.dyshiftmax import DyShiftMax
from micronet.microfac import MicroFacDepthwise, MicroFacPointwise, path_count_matrix
from micronet.models import build_model
from micronet.module import Context
from micronet.tensor import ConvSpec, Tensor, conv2d, softmax_cross_entropy
from micronet.train import make_synthetic, train_model
from micronet.weights_io import (ArchiveError, collect_state, load_archive,
                                 load_model, save_weights)


def announce(capsys, num, text):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] PASS  {text}")


def test_criterion_01_cost_budgets(capsys):
    """All four variants meet their madds/params budgets within 10%,
    analyzed in under a second each."""
    worst = 0.0
    for variant in ("M0", "M1", "M2", "M3"):
        t0 = time.perf_counter()
        net = build_model(variant, seed=0)
        report = count_costs(net, 224)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{variant} analysis took {elapsed:.2f}s"
        rows = check_budget(report)
        assert rows
        for r in rows:
            assert r["within"], (variant, r)
            worst = max(worst, abs(r["value"] - r["target"]) / r["target"])
    announce(capsys, 1, f"four budgets within 10% (worst gap {worst:.1%})")


def test_criterion_02_pointwise_equals_dense_200_configs(capsys):
    """200 random symmetric factorizations match their dense product to
    1e-10 in float64, inside 30 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        reduction = int(rng.choice([2, 4, 6]))
        hidden = int(rng.integers(2, 33))
        channels = reduction * hidden
        if not 8 <= channels <= 192:
            channels = max(8, min(192, channels))
            hidden = channels // reduction
            channels = hidden * reduction
        layer = MicroFacPointwise(channels, channels, hidden, rng=rng)
        x = rng.standard_normal((1, channels, 2, 2))
        got = layer(Tensor(x)).data
        want = np.einsum("oi,nihw->nohw", layer.expand_dense(), x)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, worst
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(capsys, 2,
             f"200 configs, max |factorized - dense| = {worst:.2e} "
             f"in {elapsed:.1f}s")


def test_criterion_03_rank_law_holds_including_after_training(capsys):
    """Every sub-block of every dense-equivalent pointwise matrix stays
    at numerical rank one, before and after 100 optimizer steps."""
    for variant in ("M0", "M1", "M2", "M3"):
        net = build_model(variant, seed=1, dtype=np.float64)
        checks = verify_model(net, np.random.default_rng(0))["rank_law"]
        assert checks and all(c["ok"] for c in checks), variant

    net = build_model("M0", seed=2, dtype=np.float64)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((20, 3, 32, 32))
    labels = rng.integers(0, 1000, 20).astype(np.int64)
    train_model(net, images, labels, epochs=20, base_lr=0.01,
                batch_size=4, weight_decay=3e-5, seed=0)
    report = verify_model(net, np.random.default_rng(0))
    worst = max(c["worst_ratio"] for c in report["rank_law"])
    assert all(c["ok"] for c in report["rank_law"])
    assert all(c["ok"] for c in report["connectivity"])
    announce(capsys, 3,
             f"rank-one blocks on all variants; after 100 steps worst "
             f"ratio {worst:.2e}")


def test_criterion_04_path_counts_match_formula(capsys):
    """Brute-force path counts equal C^2/(R G^2); at integer balance
    points the per-output count equals the channel width."""
    cases = [(18, 2, 3), (32, 2, 4), (8, 2, 2), (36, 4, 3), (64, 4, 4),
             (96, 6, 4), (16, 2, 2), (128, 2, 8), (72, 2, 6), (54, 6, 3)]
    balanced = 0
    for channels, reduction, groups in cases:
        layer = MicroFacPointwise(channels, channels, channels // reduction,
                                  groups=(groups, groups),
                                  rng=np.random.default_rng(0))
        expect = channels * channels // (reduction * groups * groups)
        matrix = path_count_matrix(layer)
        assert (matrix.sum(axis=1) == expect).all(), (channels, reduction)
        for o in (0, channels // 2, channels - 1):
            assert path_count_oracle(layer, o) == expect
        if groups * groups * reduction == channels:
            assert expect == channels
            balanced += 1
    assert balanced >= 3
    announce(capsys, 4,
             f"{len(cases)} factorizations counted, {balanced} balance "
             f"points with paths == channels")


def test_criterion_05_depthwise_factorization(capsys):
    """Factorized depthwise equals the dense outer-product kernel to
    1e-10 and costs 2kC per position against k^2 C dense (at stride 1; a
    strided column stage runs at the input width)."""
    worst = 0.0
    rng = np.random.default_rng(5)
    for kernel in (3, 5):
        for stride in (1, 2):
            for expansion in (1, 2):
                layer = MicroFacDepthwise(6, kernel, stride, expansion,
                                          rng=rng)
                x = rng.standard_normal((2, 6, 9, 9))
                got = layer(Tensor(x)).data
                want = conv2d(Tensor(x), Tensor(layer.col_w.data * layer.row_w.data),
                              spec=layer.dense_spec()).data
                worst = max(worst, float(np.abs(got - want).max()))
                channels, positions = 6 * expansion, got[0, 0].size
                traced = traced_madds(layer, x)
                if stride == 1:
                    assert traced == 2 * kernel * channels * positions
                else:
                    # the column stage's output keeps the input's width
                    cols = got.shape[2] * x.shape[3]
                    assert traced == kernel * channels * (cols + positions)
                assert conv_madds(layer.dense_spec(), 9, 9) == (
                    kernel * kernel * channels * positions)
    assert worst <= 1e-10, worst
    announce(capsys, 5,
             f"8 kernel/stride/expansion combos, max error {worst:.2e}, "
             f"cost 2kC vs k^2 C confirmed")


def test_criterion_06_shift_max_1000_instances(capsys):
    """1000 random activation instances agree with the scalar-loop
    reference within 1e-12."""
    rng = np.random.default_rng(66)
    worst = 0.0
    t0 = time.perf_counter()
    for trial in range(1000):
        groups = int(rng.choice([1, 2, 4]))
        channels = groups * int(rng.integers(1, 5))
        layer = DyShiftMax(channels, groups,
                           num_shifts=int(rng.integers(1, 4)),
                           num_fusions=int(rng.integers(1, 4)),
                           rng=rng)
        layer.fc2_w.data[:] = 0.5 * rng.standard_normal(layer.fc2_w.shape)
        layer.fc2_b.data[:] = 0.5 * rng.standard_normal(layer.fc2_b.shape)
        x = rng.standard_normal((1, channels, 2, 2))
        got = layer(Tensor(x)).data
        want = reference_eval(layer, x)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, worst
    announce(capsys, 6,
             f"1000 instances, max deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_07_gradients_all_operators(capsys):
    """Central-difference probes validate backpropagation through every
    operator type in one network pass, in under two minutes."""
    t0 = time.perf_counter()
    net = build_model("tiny", seed=7, dtype=np.float64)
    rng = np.random.default_rng(7)
    for blk in net.blocks:
        act = blk.act1
        act.fc2_w.data[:] = 0.4 * rng.standard_normal(act.fc2_w.shape)
        act.fc2_b.data[:] = 0.4 * rng.standard_normal(act.fc2_b.shape)
    x = Tensor(rng.standard_normal((2, 3, 16, 16)), requires_grad=True)
    labels = np.array([0, 1])

    def loss():
        ctx = Context(training=True, rng=np.random.default_rng(99))
        return softmax_cross_entropy(net.forward(x, ctx), labels)

    params = [("input", x)] + list(net.named_params())
    probes = finite_difference_check(loss, params, probes=3,
                                     rtol=1e-4, atol=1e-7,
                                     rng=np.random.default_rng(1))
    elapsed = time.perf_counter() - t0
    bad = [p for p in probes if not p.ok]
    assert not bad, bad[:5]
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    tensors = {p.param for p in probes}
    assert len(tensors) == len(params)
    announce(capsys, 7,
             f"{len(probes)} probes across {len(tensors)} tensors agree "
             f"in {elapsed:.1f}s")


def test_criterion_08_tiny_model_trains_reliably(capsys):
    """At least 95 of 100 seeds reach 99% training accuracy within 30
    epochs on the separable synthetic set."""
    images, labels = make_synthetic(96, seed=1234)
    successes = 0
    epochs_used = []
    for seed in range(100):
        net = build_model("tiny", seed=seed, dtype=np.float64)
        hist = train_model(net, images, labels, epochs=30, base_lr=0.05,
                           batch_size=16, weight_decay=3e-5, seed=seed,
                           target_accuracy=0.99)
        if hist[-1].accuracy >= 0.99:
            successes += 1
            epochs_used.append(len(hist))
    assert successes >= 95, f"only {successes}/100 converged"
    announce(capsys, 8,
             f"{successes}/100 seeds at >=99% (median "
             f"{int(np.median(epochs_used))} epochs)")


def test_criterion_09_archive_round_trips_and_corruption(capsys, tmp_path):
    """100 save/load round trips are bitwise exact and every corrupted
    byte probe is rejected before parsing."""
    for seed in range(100):
        dtype = np.float64 if seed % 2 else np.float32
        net = build_model("tiny", seed=seed, dtype=dtype)
        path = tmp_path / f"w{seed}.mnwt"
        save_weights(path, net)
        loaded = load_model(path)
        state, got = collect_state(net), collect_state(loaded)
        assert set(state) == set(got)
        for key in state:
            assert state[key].dtype == got[key].dtype
            assert state[key].tobytes() == got[key].tobytes(), key
        again = tmp_path / "again.mnwt"
        save_weights(again, loaded)
        assert path.read_bytes() == again.read_bytes()

    raw = bytearray((tmp_path / "w0.mnwt").read_bytes())
    rng = np.random.default_rng(0)
    rejected = 0
    for pos in rng.choice(len(raw), size=100, replace=False):
        bad = bytearray(raw)
        bad[pos] ^= 0xA5
        target = tmp_path / "bad.mnwt"
        target.write_bytes(bytes(bad))
        with pytest.raises(ArchiveError):
            load_archive(target)
        rejected += 1
    announce(capsys, 9,
             f"100 bitwise round trips; {rejected}/100 corruptions rejected")


def test_criterion_10_tradeoff_sweep_identities(capsys):
    """Sweep rows satisfy the cost and connectivity laws and the frozen
    balance point lands at G=3, C=E=18 for budget 108 at reduction 2."""
    sweep = sweep_tradeoff(108, 2)
    assert sweep["crossing"]["exact"]
    assert sweep["crossing"]["groups"] == pytest.approx(3.0)
    assert sweep["crossing"]["channels"] == pytest.approx(18.0)
    for row in sweep["rows"]:
        c, g, e = row["channels"], row["groups"], row["connectivity"]
        assert 2 * c * c / (2 * g) == pytest.approx(108.0)
        assert c * c / (2 * g * g) == pytest.approx(e)
    by_g = {r["groups"]: r for r in sweep["rows"]}
    assert by_g[3]["regime"] == "balanced"
    assert by_g[3]["channels"] == pytest.approx(18.0)
    assert by_g[2]["regime"] == "over-connected"
    assert by_g[4]["regime"] == "under-connected"

    rough = sweep_tradeoff(100, 2)
    assert not rough["crossing"]["exact"]
    assert rough["crossing"]["groups"] == pytest.approx((25.0) ** (1 / 3))
    announce(capsys, 10,
             "sweep identities hold; balance point G=3, C=E=18 at "
             "budget 108, reduction 2")

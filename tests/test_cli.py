"""CLI behavior: output schemas, exit codes, and the seed environment
variable."""

import json
import os

import numpy as np
import pytest
from helpers import seal_archive

from micronet.cli import (EXIT_FORMAT, EXIT_MISSING, EXIT_OK, EXIT_USAGE,
                          EXIT_VERIFY, main)
from micronet.data import save_dataset
from micronet.train import make_synthetic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_table_and_json(capsys):
    code, out, _ = run(capsys, "analyze", "--variant", "M0")
    assert code == EXIT_OK
    assert "stem.conv1" in out and "within" in out

    code, out, _ = run(capsys, "analyze", "--variant", "M0", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.cost/1"
    assert payload["totals"]["madds"] == 4_152_672


def test_analyze_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--variant", "tiny", "--json",
                       "--output", str(target))
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["variant"] == "tiny"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--variant", "M0")
    assert code == EXIT_OK
    assert out.strip().endswith("PASS")


def test_sweep_json_schema(capsys):
    code, out, _ = run(capsys, "sweep", "--budget", "108", "--reduction", "2",
                       "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.sweep/1"
    assert payload["crossing"]["exact"]


def test_train_infer_round_trip(tmp_path, capsys):
    ds = tmp_path / "ds"
    images, labels = make_synthetic(48, seed=4)
    save_dataset(ds, images, labels)
    weights = tmp_path / "tiny.mnwt"
    code, out, _ = run(capsys, "train", "--variant", "tiny", "--data", str(ds),
                       "--epochs", "4", "--seed", "1", "--json",
                       "--target-accuracy", "0.99",
                       "--output", str(weights))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.train/1"
    assert payload["final"]["accuracy"] >= 0.99
    assert weights.exists()

    code, out, _ = run(capsys, "infer", "--weights", str(weights),
                       "--data", str(ds), "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.infer/1"
    assert payload["accuracy"] >= 0.99
    assert len(payload["predictions"]) == 10


def test_dataset_command_writes_loadable_files(tmp_path, capsys):
    ds = tmp_path / "gen"
    code, out, _ = run(capsys, "dataset", "--count", "12", "--output", str(ds))
    assert code == EXIT_OK and "12" in out
    from micronet.data import load_dataset
    images, labels = load_dataset(ds)
    assert images.shape == (12, 3, 32, 32) and len(labels) == 12


def test_bench_reports_percentiles(capsys):
    code, out, _ = run(capsys, "bench", "--variant", "tiny", "--resolution",
                       "32", "--repeats", "4", "--warmup", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.bench/1"
    assert payload["repeats"] == 4
    assert payload["min_ms"] <= payload["median_ms"] <= payload["max_ms"]


def test_bench_rejects_multithreading(capsys):
    code, _, err = run(capsys, "bench", "--variant", "tiny", "--threads", "2")
    assert code == EXIT_USAGE
    assert "threads" in err


def test_exit_code_missing_file(tmp_path, capsys):
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    code, _, err = run(capsys, "infer", "--weights",
                       str(tmp_path / "none.mnwt"), "--data", str(ds))
    assert code == EXIT_MISSING
    assert "missing file" in err


def test_exit_code_corrupt_archive(tmp_path, capsys):
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    bad = tmp_path / "bad.mnwt"
    bad.write_bytes(b"MNWT" + b"\x00" * 64)
    code, _, err = run(capsys, "infer", "--weights", str(bad),
                       "--data", str(ds))
    assert code == EXIT_FORMAT
    assert "checksum" in err


def test_exit_code_config_not_an_object(tmp_path, capsys):
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    bad = tmp_path / "list.mnwt"
    bad.write_bytes(seal_archive(b"[1]"))
    code, _, err = run(capsys, "infer", "--weights", str(bad), "--data", str(ds))
    assert code == EXIT_FORMAT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "JSON object" in err


def test_exit_code_verify_failure(monkeypatch, capsys):
    import micronet.cli as cli_mod

    def broken(net, resolution, rng):
        return {"schema": "micronet.verify/1", "passed": False, "budget": [],
                "rank_law": [], "connectivity": [], "factorization": []}

    monkeypatch.setattr(cli_mod.analysis, "verify_model", broken)
    code, out, _ = run(capsys, "verify", "--variant", "tiny")
    assert code == EXIT_VERIFY
    assert out.strip().endswith("FAIL")


def test_usage_error_unknown_variant(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--variant", "M9"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_seed_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("MICRONET_SEED", "7")
    code, out, _ = run(capsys, "train", "--variant", "tiny", "--synthetic",
                       "24", "--epochs", "1", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 7

    monkeypatch.setenv("MICRONET_SEED", "not-a-number")
    code, _, err = run(capsys, "train", "--variant", "tiny", "--synthetic",
                       "24", "--epochs", "1")
    assert code == EXIT_USAGE
    assert "MICRONET_SEED" in err


@pytest.mark.parametrize("argv,flag", [
    (["train", "--epochs", "0"], "--epochs"),
    (["train", "--batch-size", "0"], "--batch-size"),
    (["train", "--synthetic", "-3"], "--synthetic"),
    (["infer", "--weights", "w", "--data", "d", "--batch-size", "0"], "--batch-size"),
    (["infer", "--weights", "w", "--data", "d", "--limit", "0"], "--limit"),
    (["bench", "--variant", "tiny", "--repeats", "0"], "--repeats"),
    (["bench", "--variant", "tiny", "--warmup", "-1"], "--warmup"),
    (["bench", "--variant", "tiny", "--repeats", "two"], "--repeats"),
    (["dataset", "--output", "d", "--count", "0"], "--count"),
])
def test_counts_are_validated(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert flag in err


def test_bench_without_warmup(capsys):
    code, _, _ = run(capsys, "bench", "--variant", "tiny", "--resolution",
                     "16", "--repeats", "1", "--warmup", "0")
    assert code == EXIT_OK


@pytest.mark.parametrize("threads", [1, 2, None])
def test_bench_reports_environment(threads, monkeypatch, capsys):
    import micronet.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_running_threads", lambda: threads)
    argv = ["bench", "--variant", "tiny", "--resolution", "16", "--repeats",
            "2", "--warmup", "0"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    env = json.loads(out)["env"]
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] >= 1
    assert env["threads_running"] == threads
    assert set(env["threads"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert "blas" in env and "python" in env

    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert ("unpinned" in out) == (threads == 2)


def test_running_threads_counts_this_process():
    from micronet.cli import _running_threads
    n = _running_threads()
    if os.path.isdir("/proc/self/task"):
        assert n >= 1
    else:
        assert n is None

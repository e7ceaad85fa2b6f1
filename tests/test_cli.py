"""CLI behavior: output schemas, exit codes, and the seed environment
variable."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import DELETE, repeat_first_record, reseal, seal_archive, with_config

import micronet
from micronet.cli import (EXIT_FORMAT, EXIT_MISSING, EXIT_OK, EXIT_USAGE,
                          EXIT_VERIFY, main)
from micronet.data import IMAGES_NAME, save_dataset
from micronet.models import build_model
from micronet.train import make_synthetic
from micronet.weights_io import ArchiveError, load_model, save_weights


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def pinned(monkeypatch):
    """Report one running thread, as under OPENBLAS_NUM_THREADS=1: bench
    refuses to time an unpinned process."""
    import micronet.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_running_threads", lambda: 1)


def test_analyze_table_and_json(capsys):
    code, out, _ = run(capsys, "analyze", "--variant", "M0")
    assert code == EXIT_OK
    assert "stem.conv1" in out and "within" in out

    code, out, _ = run(capsys, "analyze", "--variant", "M0", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.cost/1"
    assert payload["totals"]["madds"] == 4_152_672


def test_analyze_small_resolution(capsys):
    # 8 -> 4 -> 2 -> 1 stays 1 through the later stride-2 stages
    code, out, _ = run(capsys, "analyze", "--variant", "M0", "--resolution", "8",
                       "--json")
    assert code == EXIT_OK
    shapes = {r["name"]: r["out_shape"] for r in json.loads(out)["layers"]}
    assert shapes["blocks.5.expand"] == [384, 1, 1]


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


def test_bench_reports_percentiles(pinned, capsys):
    code, out, _ = run(capsys, "bench", "--variant", "tiny", "--resolution",
                       "32", "--repeats", "4", "--warmup", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "micronet.bench/1"
    assert payload["repeats"] == 4
    assert payload["min_ms"] <= payload["median_ms"] <= payload["max_ms"]


def test_bench_rejects_multithreading(capsys):
    # bench times one thread only: there is no --threads option to ask for more
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--variant", "tiny", "--threads", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


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


def _tiny_archive(tmp_path):
    weights = tmp_path / "tiny.mnwt"
    save_weights(weights, build_model("tiny", seed=0))
    return weights


@pytest.mark.parametrize("path, value", [
    (("blocks", 0, "kernel"), "3"), (("num_classes",), "2"), (("group_lam",), "a"),
    (("head_width",), 0), (("dyshiftmax", "reduction"), 0),
    (("blocks", 0, "kernel"), 4), (("blocks", 0, "width"), 5), (("stem", "width"), 0),
    (("blocks", 0, "hidden"), 0), (("dyshiftmax", "num_shifts"), 0),
    # a float kernel would run as a 3-tap filter and a boolean stride as
    # stride 1, while the spec kept and re-saved the stated value
    (("blocks", 1, "kernel"), 3.0), (("blocks", 1, "kernel"), 3.5),
    (("blocks", 1, "stride"), True),
    # a float field or the name given a boolean or a number would save it back
    (("dyshiftmax", "coeff_scale"), True), (("group_lam",), True),
    (("dropout",), False), (("name",), 5),
    # an entry that no field has would be dropped, its field left at the
    # default; an explicit empty list of slots would load as the default ones,
    # and so would null, which would then re-save as a list
    (("dropuot",), 0.5), (("dyshiftmax", "reducton"), 4),
    (("blocks", 0, "activations"), []), (("blocks", 0, "activations"), None),
])
def test_exit_code_bad_model_config(path, value, tmp_path, capsys):
    # a sealed archive whose config cannot build a model, or would build
    # another than it states, is malformed (exit 4)
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    weights = _tiny_archive(tmp_path)
    weights.write_bytes(with_config(weights.read_bytes(), path, value))
    with pytest.raises(ArchiveError):
        load_model(weights)
    code, out, err = run(capsys, "infer", "--weights", str(weights), "--data", str(ds))
    one_line_error(code, out, err, EXIT_FORMAT)
    assert "bad model config" in err


def test_exit_code_hidden_width_without_group_pair(tmp_path, capsys):
    # tiny's block C takes 4 channels to 8: no G1 | 4 and G2 | 8 multiply
    # to 5, so the config is rejected before a layer is built
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    weights = _tiny_archive(tmp_path)
    weights.write_bytes(with_config(weights.read_bytes(), ("blocks", 1, "hidden"), 5))
    message = "hidden width 5 with G1 dividing input width 4 and G2 dividing width 8"
    with pytest.raises(ArchiveError, match=f"^bad model config: no G1\\*G2 = {message}$"):
        load_model(weights)
    code, out, err = run(capsys, "infer", "--weights", str(weights), "--data", str(ds))
    one_line_error(code, out, err, EXIT_FORMAT)
    assert "bad model config" in err and message in err


def test_exit_code_tensor_stated_twice(tmp_path, capsys):
    # an archive that states a tensor twice is malformed (exit 4), and its
    # one error line names the tensor
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    weights = _tiny_archive(tmp_path)
    weights.write_bytes(repeat_first_record(weights.read_bytes()))
    code, out, err = run(capsys, "infer", "--weights", str(weights), "--data", str(ds))
    one_line_error(code, out, err, EXIT_FORMAT)
    assert "'stem.conv1.weight' is stated twice" in err


@pytest.mark.parametrize("path, value, message", [
    (("name",), DELETE, "missing entry name"),
    (("stem", "width"), DELETE, "missing entry stem.width"),
    (("head_width",), DELETE, "missing entry head_width"),
    (("blocks",), DELETE, "missing entry blocks"),
    (("stem",), 3, "stem must be an object"),
])
def test_exit_code_config_missing_entry(path, value, message, tmp_path, capsys):
    # a config without a required entry, or with an object that is none,
    # is malformed (exit 4), and the one error line names its path
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    weights = _tiny_archive(tmp_path)
    weights.write_bytes(with_config(weights.read_bytes(), path, value))
    with pytest.raises(ArchiveError, match=message):
        load_model(weights)
    code, out, err = run(capsys, "infer", "--weights", str(weights), "--data", str(ds))
    one_line_error(code, out, err, EXIT_FORMAT)
    assert message in err


@pytest.mark.parametrize("path, value", [(("head_width",), 10**9),
                                         (("num_classes",), 10**12),
                                         (("blocks", 1, "hidden"), 10**9),
                                         (("blocks", 1, "hidden"), 10**18)])
def test_exit_code_config_claiming_huge_shapes(path, value, tmp_path, capsys):
    # shapes that no record has are a malformed archive (exit 4), not a
    # request for more memory than there is (exit 2); a hidden width's group
    # pair is searched among the divisors of the input width, so 10**18
    # takes no longer than 10**9
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    weights = _tiny_archive(tmp_path)
    weights.write_bytes(with_config(weights.read_bytes(), path, value))
    code, out, err = run(capsys, "infer", "--weights", str(weights), "--data", str(ds))
    one_line_error(code, out, err, EXIT_FORMAT)


def test_exit_code_dataset_dims_overflow(tmp_path, capsys):
    # count 0 makes the expected payload 0 bytes, so only the shape is wrong
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images[:0], labels[:0])
    (ds / IMAGES_NAME).write_bytes(reseal(
        b"MNDS" + struct.pack("<5I", 0, 2**32 - 1, 2**32 - 1, 2**32 - 1, 1)))
    code, _, err = run(capsys, "infer", "--weights", str(_tiny_archive(tmp_path)),
                       "--data", str(ds))
    assert code == EXIT_FORMAT
    assert err.startswith("error: images.bin: bad shape") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["infer", "train"])
def test_exit_code_empty_dataset(command, tmp_path, capsys):
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images[:0], labels[:0])
    argv = ["--data", str(ds)]
    if command == "infer":
        argv += ["--weights", str(_tiny_archive(tmp_path))]
    code, _, err = run(capsys, command, *argv)
    assert code == EXIT_FORMAT
    assert "holds no images" in err and err.count("\n") == 1


def _unreadable_images(case):
    images, labels = make_synthetic(4, seed=0)
    if case == "4-channel":
        images = np.concatenate([images, images[:, :1]], axis=1)
    elif case == "nan":
        images[1, 2, 3, 4] = np.nan
    elif case == "-inf":
        images[0, 1, 2, 3] = -np.inf
    else:
        images = images[:, :, :0, :0]
    return images, labels


@pytest.mark.parametrize("command", ["infer", "train"])
@pytest.mark.parametrize("case, message", [
    ("4-channel", "expected 3-channel images, got 4"),
    ("nan", "the images hold non-finite values"),
    ("-inf", "the images hold non-finite values"),
    ("0x0", "the images hold no pixels (0x0)"),
])
def test_exit_code_unreadable_images(case, message, command, tmp_path, capsys):
    # both commands check a dataset the same way before running a network
    ds = tmp_path / "ds"
    save_dataset(ds, *_unreadable_images(case))
    argv = ["--data", str(ds)]
    if command == "infer":
        argv += ["--weights", str(_tiny_archive(tmp_path))]
    code, out, err = run(capsys, command, *argv)
    one_line_error(code, out, err, EXIT_FORMAT)
    assert err == f"error: {ds}: {message}\n"


def _labelled_dataset(directory, label):
    """Four synthetic images, the third labelled label."""
    images, labels = make_synthetic(4, seed=0)
    labels[2] = label
    save_dataset(directory, images, labels)


def test_exit_code_label_past_class_bound(tmp_path, capsys):
    # the head gets a class per label value: tiny has 2 classes, so 4 images
    # may ask for 4 but not for 5000
    ds = tmp_path / "ds"
    _labelled_dataset(ds, 4999)
    code, out, err = run(capsys, "train", "--variant", "tiny", "--data", str(ds),
                         "--epochs", "1")
    one_line_error(code, out, err, EXIT_FORMAT)
    assert err == (f"error: {ds}: label 4999 needs more than 4 classes, "
                   "the larger of tiny's and one per image\n")


def test_train_label_at_class_bound(tmp_path, capsys):
    ds, weights = tmp_path / "ds", tmp_path / "w.mnwt"
    _labelled_dataset(ds, 3)
    code, _, _ = run(capsys, "train", "--variant", "tiny", "--data", str(ds),
                     "--epochs", "1", "--output", str(weights))
    assert code == EXIT_OK
    assert load_model(weights).spec.num_classes == 4


def nan_training_loss(monkeypatch, call):
    """Make the loss of the call-th training step (counting from 1) NaN."""
    import micronet.train as train_mod
    calls = []
    real = train_mod.softmax_cross_entropy

    def loss(logits, labels):
        out = real(logits, labels)
        calls.append(None)
        if len(calls) == call:
            out.data = np.asarray(np.nan)
        return out

    monkeypatch.setattr(train_mod, "softmax_cross_entropy", loss)


def nan_evaluation_loss(monkeypatch):
    import micronet.cli as cli_mod
    monkeypatch.setattr(cli_mod, "evaluate", lambda net, images, labels: (np.nan, 0.0))


# the NaN is injected, so the located message does not depend on how a
# diverging run rounds
@pytest.mark.parametrize("images, epochs, message, inject", [
    # 64 images make 4 steps of 16 per epoch: the 5th step is epoch 1, step 0
    pytest.param("64", "3", "non-finite loss at epoch 1, step 0",
                 lambda mp: nan_training_loss(mp, 5),
                 id="64-3-non-finite loss at epoch 1, step 0"),
    pytest.param("32", "2", "non-finite evaluation loss after epoch 1", nan_evaluation_loss,
                 id="32-2-non-finite evaluation loss after epoch 1"),
])
def test_exit_code_non_finite_training(images, epochs, message, inject, monkeypatch,
                                       capsys):
    inject(monkeypatch)
    code, out, err = run(capsys, "train", "--variant", "tiny", "--synthetic", images,
                         "--epochs", epochs, "--json")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_exit_code_diverging_training(capsys):
    # which value turns non-finite first depends on rounding; the exit does not
    code, out, err = run(capsys, "train", "--variant", "tiny", "--synthetic", "32",
                         "--epochs", "2", "--lr", "1e12", "--json")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: non-finite") and err.count("\n") == 1


def test_train_reports_epoch_seconds(capsys):
    argv = ["train", "--variant", "tiny", "--synthetic", "16", "--epochs", "2",
            "--seed", "3"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    history = json.loads(out)["history"]
    assert [h["epoch"] for h in history] == [0, 1]
    assert all(isinstance(h["seconds"], float) and h["seconds"] > 0 for h in history)

    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    epochs = [line for line in out.splitlines() if line.startswith("epoch")]
    assert len(epochs) == 2 and all(line.endswith("s") for line in epochs)


def test_exit_code_verify_failure(monkeypatch, capsys):
    import micronet.cli as cli_mod

    def broken(net, rng):
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
    # no environment variable sets the seed: without --seed it is 0
    monkeypatch.setenv("MICRONET_SEED", "7")
    code, out, _ = run(capsys, "train", "--variant", "tiny", "--synthetic",
                       "24", "--epochs", "1", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 0


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
    (["dataset", "--output", "d", "--size", "0"], "--size"),
    (["sweep", "--budget", "100", "--reduction", "4", "--max-groups", "0"], "--max-groups"),
    (["analyze", "--variant", "tiny", "--resolution", "0"], "--resolution"),
    (["analyze", "--variant", "tiny", "--resolution", "1025"], "--resolution"),
    # verify has no --resolution: its budgets are stated at 224x224
    (["verify", "--variant", "tiny", "--resolution", "0"], "--resolution"),
    (["verify", "--variant", "tiny", "--resolution", "1025"], "--resolution"),
    (["bench", "--variant", "tiny", "--resolution", "0"], "--resolution"),
    (["bench", "--variant", "tiny", "--resolution", "1025"], "--resolution"),
    (["sweep", "--budget", "100", "--reduction", "4", "--max-groups", "4097"],
     "--max-groups"),
    # training hyperparameters are rejected while parsing, before any epoch
    (["train", "--lr", "nan"], "--lr"),
    (["train", "--lr", "-1"], "--lr"),
    (["train", "--lr", "0"], "--lr"),
    (["train", "--lr", "inf"], "--lr"),
    (["train", "--momentum", "nan"], "--momentum"),
    (["train", "--momentum", "1"], "--momentum"),
    (["train", "--momentum", "-0.1"], "--momentum"),
    (["train", "--weight-decay", "inf"], "--weight-decay"),
    (["train", "--weight-decay", "nan"], "--weight-decay"),
    (["train", "--weight-decay", "-0.001"], "--weight-decay"),
    (["train", "--target-accuracy", "nan"], "--target-accuracy"),
])
def test_counts_are_validated(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert flag in err


@pytest.mark.parametrize("budget, reduction, message", [
    ("inf", "4", "finite"), ("nan", "4", "finite"), ("0", "4", "positive"),
    ("1e300", "1", "--max-groups"), ("1e12", "1", "7940 rows"),
    pytest.param("100", "1" + "0" * 400, "finite", id="reduction-1e400"),
    pytest.param("100", "1" + "0" * 308, "widths are not finite", id="reduction-1e308"),
])
def test_sweep_rejects_unusable_budgets(budget, reduction, message, capsys):
    # 1e300 would make about 8e99 rows by default; 1e400 is beyond float
    # range; 1e308 is within it, but its channel widths overflow to inf
    code, out, err = run(capsys, "sweep", "--budget", budget, "--reduction", reduction)
    one_line_error(code, out, err, EXIT_USAGE)
    assert message in err


def test_sweep_huge_budget_with_max_groups(capsys):
    code, out, _ = run(capsys, "sweep", "--budget", "1e300", "--reduction", "1",
                       "--max-groups", "3", "--json")
    assert code == EXIT_OK
    assert [r["groups"] for r in json.loads(out)["rows"]] == [1, 2, 3]


def test_bench_without_warmup(pinned, capsys):
    code, _, _ = run(capsys, "bench", "--variant", "tiny", "--resolution",
                     "16", "--repeats", "1", "--warmup", "0")
    assert code == EXIT_OK


@pytest.mark.parametrize("threads", [1, 2, None])
def test_bench_reports_environment(threads, monkeypatch, capsys):
    import micronet.cli as cli_mod
    monkeypatch.setattr(cli_mod, "_running_threads", lambda: threads)
    argv = ["bench", "--variant", "tiny", "--resolution", "16", "--repeats",
            "2", "--warmup", "0"]
    if threads == 2:
        # more than one thread: refuse, in one line naming the fix
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *extra)
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: unpinned") and err.count("\n") == 1
            assert "OPENBLAS_NUM_THREADS=1" in err
        return
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
    assert "unpinned" not in out


def test_running_threads_counts_this_process():
    from micronet.cli import _running_threads
    n = _running_threads()
    if os.path.isdir("/proc/self/task"):
        assert n >= 1
    else:
        assert n is None


def one_line_error(code, out, err, want_code):
    """A bad path or count ends with want_code and one stderr line, no traceback."""
    assert code == want_code
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize("argv", [
    ["analyze", "--variant", "tiny"],
    ["verify", "--variant", "tiny"],
    ["sweep", "--budget", "108", "--reduction", "2"],
    ["bench", "--variant", "tiny", "--resolution", "16", "--repeats", "1", "--warmup", "0"],
    ["train", "--variant", "tiny", "--synthetic", "8", "--epochs", "1"],
])
def test_output_to_directory_is_a_usage_error(argv, pinned, tmp_path, capsys):
    code, out, err = run(capsys, *argv, "--output", str(tmp_path))
    one_line_error(code, out, err, EXIT_USAGE)
    assert f"cannot write {tmp_path}" in err


def test_dataset_over_existing_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_bytes(b"")
    code, out, err = run(capsys, "dataset", "--count", "4", "--output", str(target))
    one_line_error(code, out, err, EXIT_USAGE)
    assert f"cannot write {target}" in err and target.read_bytes() == b""


def closed_stdout_run(argv, unbuffered=False):
    """Run the command with a stdout pipe whose read end is closed before
    it starts, so that the write fails whatever the timing."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(micronet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run([sys.executable, "-m", "micronet.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", [
    ["analyze", "--variant", "tiny"],
    ["sweep", "--budget", "100", "--reduction", "4", "--json"],
    ["--help"],
    ["analyze", "--help"],
])
def test_closed_stdout_is_a_usage_error(argv):
    # the report cannot be written, so this is unwritable output (2), not an
    # unreadable input (3). stdout stays buffered, as by default, so that the
    # interpreter's flush at exit would fail too and print a second error if
    # the first one left the stream open. argparse prints --help into the
    # buffer and exits without a flush
    proc = closed_stdout_run(argv)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == "error: cannot write <stdout>: Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--variant", "tiny"],
    ["--help"],
    ["analyze", "--help"],
])
def test_closed_unbuffered_stdout_is_a_usage_error(argv):
    # with PYTHONUNBUFFERED the write itself fails, and for --help it fails
    # inside argparse, which drops the error of a failed write
    proc = closed_stdout_run(argv, unbuffered=True)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == "error: cannot write <stdout>: Broken pipe\n"


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: micronet") and out.err == ""


def test_unreadable_weights_exit_like_missing_ones(tmp_path, capsys):
    ds = tmp_path / "ds"
    images, labels = make_synthetic(8, seed=0)
    save_dataset(ds, images, labels)
    code, out, err = run(capsys, "infer", "--weights", str(tmp_path), "--data", str(ds))
    one_line_error(code, out, err, EXIT_MISSING)
    assert f"cannot read {tmp_path}" in err


@pytest.mark.parametrize("argv", [
    ["train", "--synthetic", "100000000000000"],
    ["dataset", "--count", "100000000000000"],
    ["dataset", "--count", "2", "--size", "100000000"],
])
def test_out_of_memory_is_a_usage_error(argv, tmp_path, capsys):
    # each request exceeds a 47-bit address space, so it fails at allocation
    # whatever the overcommit policy
    if argv[0] == "dataset":
        argv = argv + ["--output", str(tmp_path / "ds")]
    code, out, err = run(capsys, *argv)
    one_line_error(code, out, err, EXIT_USAGE)
    assert err.startswith("error: out of memory: ")

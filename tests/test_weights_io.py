"""Archive format: bitwise round trips, checksum screening, and strict
state matching."""

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import reseal, seal_archive, tensor_record, with_config
from hypothesis import given, settings
from hypothesis import strategies as st

import micronet
from micronet import weights_io
from micronet.models import build_model
from micronet.module import Context
from micronet.tensor import no_grad
from micronet.weights_io import (ArchiveError, collect_state, load_archive,
                                 load_model, restore_state, save_weights)


def states_equal(a, b):
    return set(a) == set(b) and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a)


def test_round_trip_is_bitwise(tmp_path):
    net = build_model("tiny", seed=9, dtype=np.float64)
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    loaded = load_model(path)
    assert loaded.spec == net.spec
    assert loaded.dtype == net.dtype
    assert states_equal(collect_state(net), collect_state(loaded))
    again = tmp_path / "again.mnwt"
    save_weights(again, loaded)
    assert path.read_bytes() == again.read_bytes()


def test_round_trip_float32(tmp_path):
    net = build_model("tiny", seed=2, dtype=np.float32)
    path = tmp_path / "w32.mnwt"
    save_weights(path, net)
    loaded = load_model(path)
    assert loaded.dtype == np.float32
    assert states_equal(collect_state(net), collect_state(loaded))


@pytest.mark.skipif(sys.byteorder != "little", reason="payloads are little-endian")
def test_loaded_arrays_are_views_of_the_file_buffer(tmp_path):
    # records are not padded, so most float64 payloads start unaligned; each
    # is still a view of the one buffer the file was read into, not a copy,
    # and restore_state copies it into the model bit for bit
    net = build_model("M0", seed=3, dtype=np.float64)
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    _, state = load_archive(path)

    def root(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    floats = {k: v for k, v in state.items() if v.dtype.kind == "f"}
    assert any(not v.flags.aligned for v in floats.values())
    assert [k for k, v in floats.items() if root(v).flags.owndata] == []
    assert states_equal(collect_state(load_model(path)), collect_state(net))


def _refuse_draw(*args, **kwargs):
    raise AssertionError("random draw")


class _NoDraws:
    """A generator that refuses every use."""

    def __getattr__(self, name):
        _refuse_draw()


def _forbid_draws(monkeypatch):
    """Make numpy's random draws raise: every generator made from now on,
    and the legacy module-level functions."""
    for name in ("default_rng", "Generator", "RandomState"):
        monkeypatch.setattr(np.random, name, lambda *a, **k: _NoDraws())
    for name in ("standard_normal", "normal", "randn", "rand", "random",
                 "random_sample", "uniform", "randint", "permutation",
                 "shuffle", "choice"):
        monkeypatch.setattr(np.random, name, _refuse_draw)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["tiny", "M0"])
def test_load_model_draws_nothing(tmp_path, monkeypatch, variant, dtype):
    # every value of the rebuilt network comes from the archive or the
    # config: with every draw made to raise, the loaded network still equals
    # the saved one bit for bit, in its state and in its eval logits
    net = build_model(variant, seed=5, dtype=dtype)
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    with monkeypatch.context() as m:
        _forbid_draws(m)
        loaded = load_model(path)
    assert states_equal(collect_state(net), collect_state(loaded))
    x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(dtype)
    with no_grad():
        want, got = (n(x, Context()).data for n in (net, loaded))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_state_includes_buffers(tmp_path):
    net = build_model("tiny", seed=0)
    state = collect_state(net)
    running = [k for k in state if k.endswith("running_mean")]
    assert running, "normalization buffers must be archived"
    params = dict(net.named_params())
    assert set(params) <= set(state)


def test_rebound_buffer_is_archived(tmp_path):
    # a buffer rebound by attribute replaces the registered one: the state,
    # the archive and the eval logits all follow the new array
    net = build_model("tiny", seed=0)
    x = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
    with no_grad():
        before = net(x, Context()).data
    new = np.full(4, 7.0, dtype=np.float32)
    list(net.blocks)[1].norm2.running_mean = new
    state = collect_state(net)
    assert state["blocks.1.norm2.running_mean"] is new
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    loaded = load_model(path)
    assert states_equal(state, collect_state(loaded))
    with no_grad():
        want, got = (n(x, Context()).data for n in (net, loaded))
    assert not np.array_equal(want, before)
    assert got.tobytes() == want.tobytes()


def test_walks_follow_the_attributes(tmp_path):
    # the walks read each module's attributes as they are now: a parameter
    # deleted after construction leaves named_params and the archive, a
    # rebound buffer is what named_buffers yields, and attributes that are
    # neither Tensors nor Modules (a method bound on an instance, the cached
    # shuffle, dyshiftmax's init_bias) add nothing
    net = build_model("tiny", seed=0)
    names = [n for n, _ in net.named_params()]
    modules = [n for n, _ in net.named_modules()]
    blocks = list(net.blocks)[:2]
    pw = list(net.blocks)[1].pointwise
    pw.compress, net.blocks.forward = pw.compress, net.forward
    assert pw.perm is vars(pw)["perm"]
    del net.head.fc1_b
    assert [n for n, _ in net.named_params()] == [n for n in names if n != "head.fc1_b"]
    assert [n for n, _ in net.named_modules()] == modules
    assert list(net.blocks) == blocks
    new = np.full(4, 7.0, dtype=np.float32)
    list(net.blocks)[1].norm2.running_mean = new
    assert dict(net.named_buffers())["blocks.1.norm2.running_mean"] is new
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    _, state = load_archive(path)
    assert "head.fc1_b" not in state
    assert list(state) == list(collect_state(net))
    assert np.array_equal(state["blocks.1.norm2.running_mean"], new)


def test_corruption_always_detected(tmp_path):
    net = build_model("tiny", seed=1, dtype=np.float64)
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    raw = bytearray(path.read_bytes())
    step = max(1, len(raw) // 97)
    for pos in range(0, len(raw), step):
        bad = bytearray(raw)
        bad[pos] ^= 0x5A
        (tmp_path / "bad.mnwt").write_bytes(bytes(bad))
        with pytest.raises(ArchiveError):
            load_archive(tmp_path / "bad.mnwt")


def test_truncation_detected(tmp_path):
    net = build_model("tiny", seed=1)
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    raw = path.read_bytes()
    for cut in (3, len(raw) // 2, len(raw) - 1):
        (tmp_path / "cut.mnwt").write_bytes(raw[:cut])
        with pytest.raises(ArchiveError):
            load_archive(tmp_path / "cut.mnwt")


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope.mnwt")


def test_restore_rejects_name_mismatch(tmp_path):
    tiny = build_model("tiny", seed=0, dtype=np.float64)
    other = build_model("M0", seed=0, dtype=np.float64)
    path = tmp_path / "w.mnwt"
    save_weights(path, tiny)
    _, state = load_archive(path)
    with pytest.raises(ArchiveError, match="state mismatch"):
        restore_state(other, state)


def test_restore_rejects_shape_and_dtype_mismatch():
    net = build_model("tiny", seed=0, dtype=np.float64)
    state = {k: v.copy() for k, v in collect_state(net).items()}
    name = next(iter(state))
    good = state[name]
    state[name] = np.zeros(good.shape + (2,), dtype=good.dtype)
    with pytest.raises(ArchiveError, match="shape mismatch"):
        restore_state(net, state)
    state[name] = good.astype(np.float32)
    with pytest.raises(ArchiveError, match="dtype mismatch"):
        restore_state(net, state)


def test_bad_magic_and_version(tmp_path):
    net = build_model("tiny", seed=0)
    path = tmp_path / "w.mnwt"
    save_weights(path, net)
    raw = bytearray(path.read_bytes())

    import struct

    bad = bytearray(raw)
    bad[:4] = b"XXXX"
    (tmp_path / "m.mnwt").write_bytes(reseal(bytes(bad[:-4])))
    with pytest.raises(ArchiveError, match="magic"):
        load_archive(tmp_path / "m.mnwt")

    bad = bytearray(raw)
    bad[4:8] = struct.pack("<I", 99)
    (tmp_path / "v.mnwt").write_bytes(reseal(bytes(bad[:-4])))
    with pytest.raises(ArchiveError, match="version"):
        load_archive(tmp_path / "v.mnwt")


@pytest.mark.parametrize("config, record, match", [
    (b"[1]", None, "JSON object"),
    (b'"M0"', None, "JSON object"),
    (b"{}", tensor_record(b"\xff\xfe", 1, (1,), bytes(4)), "UTF-8"),
    (b"{}", tensor_record(b"w", 1, (2**63, 2)), "needs"),
    (b"{}", tensor_record(b"w", 2, (2**32, 2**32)), "needs"),
    (b"{}", tensor_record(b"w", 1, (3,), bytes(8)), "needs"),
    (b"{}", tensor_record(b"w", 1, (0, 2**63)), "bad shape"),
    (b"{}", tensor_record(b"w", 3, (0, 2**62, 2**62)), "bad shape"),
], ids=["list-config", "string-config", "name-not-utf8", "dims-2^63x2",
        "dims-2^32x2^32", "short-payload", "empty-dim-2^63", "empty-2^124-elements"])
def test_sealed_but_malformed_contents_rejected(tmp_path, config, record, match):
    path = tmp_path / "w.mnwt"
    path.write_bytes(seal_archive(config, [record] if record else []))
    with pytest.raises(ArchiveError, match=match):
        load_archive(path)


def test_sealed_records_load(tmp_path):
    # the hand-built records above are well formed when sizes agree
    path = tmp_path / "w.mnwt"
    path.write_bytes(seal_archive(b"{}", [
        tensor_record(b"w", 1, (2, 1), np.float32([1.5, -2.0]).tobytes()),
        tensor_record(b"e", 2, (0, 3))]))
    config, state = load_archive(path)
    assert config == {}
    np.testing.assert_array_equal(state["w"], [[1.5], [-2.0]])
    assert state["e"].shape == (0, 3) and state["e"].dtype == np.float64


def test_tensor_stated_twice_rejected(tmp_path):
    # a name names one tensor: a second record of it is not a silent
    # overwrite, whichever payload it carries
    path = tmp_path / "w.mnwt"
    path.write_bytes(seal_archive(b"{}", [
        tensor_record(b"w", 1, (1,), np.float32([1.0]).tobytes()),
        tensor_record(b"w", 1, (1,), np.float32([2.0]).tobytes())]))
    with pytest.raises(ArchiveError, match="^tensor 'w' is stated twice$"):
        load_archive(path)


records = st.builds(
    tensor_record, st.binary(max_size=4), st.integers(0, 5),
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=3),
    st.binary(max_size=48))


@given(st.sampled_from([b'{"name": "x"}', b"[1]", b"null", b"\xff", b"{"]),
       st.lists(records, max_size=3))
@settings(max_examples=200, deadline=None)
def test_sealed_random_records_raise_only_archive_errors(tmp_path_factory, config, recs):
    # every field of a correctly checksummed archive may hold any value: the
    # parser either loads it or raises ArchiveError
    path = tmp_path_factory.mktemp("fuzz") / "w.mnwt"
    path.write_bytes(seal_archive(config, recs))
    try:
        load_archive(path)
    except ArchiveError:
        pass


def config_fields(config, path=()):
    """The paths of every leaf of a model config, list items included."""
    items = config.items() if isinstance(config, dict) else enumerate(config)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from config_fields(value, path + (key,))
        yield path + (key,)


TINY = build_model("tiny", seed=0)
TINY_FIELDS = list(config_fields(TINY.spec.to_config()))


@given(st.sampled_from(TINY_FIELDS), st.sampled_from(
    ["3", "a", None, 0.5, 2.5, -1, 0, 2, 4, float("nan"), float("inf")]))
@settings(max_examples=200, deadline=None)
def test_hostile_model_config_raises_only_archive_errors(tmp_path_factory, path, value):
    # a correctly sealed archive of tiny with one config field replaced: the
    # model either loads and gives finite logits, or load_model raises
    # ArchiveError
    archive = tmp_path_factory.mktemp("cfg") / "w.mnwt"
    save_weights(archive, TINY)
    archive.write_bytes(with_config(archive.read_bytes(), path, value))
    try:
        net = load_model(archive)
    except ArchiveError:
        return
    with no_grad():
        assert np.isfinite(net(np.zeros((1, 3, 8, 8)), Context()).data).all()


@pytest.mark.parametrize("path, value", [(("head_width",), 10**9),
                                         (("num_classes",), 10**12),
                                         (("blocks", 1, "hidden"), 10**9)])
def test_config_claiming_huge_shapes_rejected_at_once(tmp_path, path, value):
    # the rebuild's weights are zeros that nothing touches before
    # restore_state compares shapes, so a config claiming shapes no record
    # has is an ArchiveError (the allocation fails, or the shape check
    # does), never an out-of-memory error or a long draw; a claimed hidden
    # width costs neither a scan of its divisors nor a filled shuffle
    archive = tmp_path / "w.mnwt"
    save_weights(archive, TINY)
    archive.write_bytes(with_config(archive.read_bytes(), path, value))
    start = time.perf_counter()
    with pytest.raises(ArchiveError):
        load_model(archive)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("path", [("head_width",), ("blocks", 1, "width")])
def test_rebuild_touches_no_memory_for_claimed_shapes(tmp_path, path):
    # a width of 10**7 that no record has: every weight and norm value of
    # the rebuild is a zero whose pages stay untouched until restore_state
    # rejects the shapes, so a fresh process's peak RSS barely moves (ones
    # in the norms raise it by about 45 MB, drawing the head by 900 MB)
    archive = tmp_path / "w.mnwt"
    save_weights(archive, TINY)
    archive.write_bytes(with_config(archive.read_bytes(), path, 10**7))
    code = ("import resource, sys\n"
            "from micronet.weights_io import ArchiveError, load_model\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    load_model(sys.argv[1])\n"
            "except ArchiveError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(micronet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(archive)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 16 * 1024        # kB


@pytest.mark.parametrize("delta", [-7, 7])
def test_read_runs_to_eof_when_the_size_changes_after_stat(tmp_path, monkeypatch,
                                                           delta):
    # a file that grows (-7: the stat saw fewer bytes) or shrinks (+7: it saw
    # more) between the stat and the read is read whole as it ends, with no
    # byte of the unfilled buffer
    path = tmp_path / "w.mnwt"
    save_weights(path, TINY)
    fstat = os.fstat
    monkeypatch.setattr(weights_io.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + delta))
    config, state = load_archive(path)
    monkeypatch.undo()
    assert config == TINY.spec.to_config()
    assert states_equal(state, collect_state(TINY))


def test_trained_weights_round_trip_predictions(tmp_path):
    from micronet.module import Context
    from micronet.tensor import no_grad
    from micronet.train import make_synthetic, train_model

    images, labels = make_synthetic(48, seed=5)
    net = build_model("tiny", seed=3, dtype=np.float64)
    train_model(net, images, labels, epochs=3, base_lr=0.05, seed=3)
    path = tmp_path / "trained.mnwt"
    save_weights(path, net)
    loaded = load_model(path)
    with no_grad():
        a = net(images, Context()).data
        b = loaded(images, Context()).data
    np.testing.assert_array_equal(a, b)

"""Dataset files: round trips, integrity checks, and validation."""

import math
import struct
import zlib

import numpy as np
import pytest
from helpers import reseal, seal_archive, tensor_record
from hypothesis import given, settings
from hypothesis import strategies as st

from micronet.data import (DatasetError, IMAGES_NAME, LABELS_NAME,
                           load_dataset, save_dataset)
from micronet.train import make_synthetic
from micronet.weights_io import TAG_DTYPES, ArchiveError, load_archive


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
def test_round_trip_preserves_dtype_and_bits(tmp_path, dtype):
    rng = np.random.default_rng(0)
    if dtype is np.uint8:
        images = rng.integers(0, 256, (5, 3, 4, 4)).astype(dtype)
    else:
        images = rng.standard_normal((5, 3, 4, 4)).astype(dtype)
    labels = rng.integers(0, 2, 5).astype(np.uint32)
    save_dataset(tmp_path, images, labels)
    files = {name: (tmp_path / name).read_bytes() for name in (IMAGES_NAME, LABELS_NAME)}
    got_images, got_labels = load_dataset(tmp_path)
    assert got_images.dtype == dtype
    np.testing.assert_array_equal(got_images, images)
    np.testing.assert_array_equal(got_labels, labels)
    # the arrays are views of the file's read buffer: each must be usable as
    # an array the caller owns
    for got in (got_images, got_labels):
        assert got.flags.writeable and got.flags.aligned and got.flags.c_contiguous
        assert got.dtype.isnative
    again_images, again_labels = load_dataset(tmp_path)
    got_images[...] = 7
    got_labels[...] = 7
    np.testing.assert_array_equal(again_images, images)
    np.testing.assert_array_equal(again_labels, labels)
    assert not np.shares_memory(got_images, got_labels)
    assert all((tmp_path / name).read_bytes() == raw for name, raw in files.items())


def test_synthetic_round_trip(tmp_path):
    images, labels = make_synthetic(16, seed=1)
    save_dataset(tmp_path, images, labels)
    got_images, got_labels = load_dataset(tmp_path)
    np.testing.assert_array_equal(got_images, images)
    np.testing.assert_array_equal(got_labels, labels)


def test_save_validation(tmp_path):
    with pytest.raises(DatasetError):
        save_dataset(tmp_path, np.zeros((2, 3, 4)), np.zeros(2))
    with pytest.raises(DatasetError):
        save_dataset(tmp_path, np.zeros((2, 3, 4, 4)), np.zeros(3))
    with pytest.raises(DatasetError):
        save_dataset(tmp_path, np.zeros((2, 3, 4, 4), dtype=np.int16),
                     np.zeros(2))


@pytest.mark.parametrize("labels, match", [
    ([-1, 0], "lie in"), ([0, 5_000_000_000], "lie in"), ([2**32, 0], "lie in"),
    ([0.0, 1.0], "integers"), ([0.5, 1], "integers"), ([True, False], "integers")])
def test_save_rejects_labels_a_u32_cannot_hold(tmp_path, labels, match):
    # labels.bin stores u32 labels: a label outside [0, 2^32) or not an
    # integer is refused before anything is written, not wrapped (-1 to
    # 4294967295) or truncated
    with pytest.raises(DatasetError, match=match):
        save_dataset(tmp_path / "ds", np.zeros((2, 3, 4, 4)), np.asarray(labels))
    assert not (tmp_path / "ds").exists()
    save_dataset(tmp_path / "ds", np.zeros((2, 3, 1, 1)), np.array([0, 2**32 - 1]))
    assert load_dataset(tmp_path / "ds")[1].tolist() == [0, 2**32 - 1]


def test_corruption_detected(tmp_path):
    images, labels = make_synthetic(4, seed=2)
    save_dataset(tmp_path, images, labels)
    for name in (IMAGES_NAME, LABELS_NAME):
        path = tmp_path / name
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="checksum"):
            load_dataset(tmp_path)
        save_dataset(tmp_path, images, labels)


def test_count_mismatch_detected(tmp_path):
    images, labels = make_synthetic(4, seed=3)
    save_dataset(tmp_path, images, labels)
    body = bytearray((tmp_path / LABELS_NAME).read_bytes())[:-4]
    body[4:8] = struct.pack("<I", 9)
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    (tmp_path / LABELS_NAME).write_bytes(bytes(body))
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def images_file(dims, tag, payload=b""):
    return reseal(b"MNDS" + struct.pack("<5I", *dims, tag) + payload)


def labels_file(count, payload=b""):
    return reseal(b"MNLB" + struct.pack("<I", count) + payload)


def test_zero_count_with_huge_dims_rejected(tmp_path):
    # the expected payload is 0 bytes, so only reshape can see the bad shape
    (tmp_path / IMAGES_NAME).write_bytes(images_file((0, 2**32 - 1, 2**32 - 1, 2**32 - 1), 1))
    (tmp_path / LABELS_NAME).write_bytes(labels_file(0))
    with pytest.raises(DatasetError, match="bad shape"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("tag, dims, payload, match", [
    (9, (1, 1, 1, 2), bytes(8), "unknown dtype tag 9"),
    (2, (2**32 - 1,) * 4, b"", "needs"),
    (1, (1, 1, 1, 3), bytes(8), "needs"),
    (1, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1), b"", "bad shape"),
    (1, (1, 1, 1, 2), bytes(12), "4 trailing bytes"),
], ids=["unknown-tag", "dims-past-int64", "short-payload", "empty-huge-dims",
        "trailing-bytes"])
@pytest.mark.parametrize("container", ["archive", "dataset"])
def test_malformed_array_header_rejected_by_both_containers(
        tmp_path, container, tag, dims, payload, match):
    # archives and datasets share one array codec: the same dtype tag, dims
    # and payload fail in both, each with its own error naming the tensor or
    # the file
    if container == "archive":
        path = tmp_path / "w.mnwt"
        path.write_bytes(seal_archive(b"{}", [tensor_record(b"w", tag, dims, payload)]))
        error, names, load = ArchiveError, ("'w'", "w.mnwt"), load_archive
    else:
        (tmp_path / IMAGES_NAME).write_bytes(images_file(dims, tag, payload))
        (tmp_path / LABELS_NAME).write_bytes(labels_file(dims[0]))
        path, error, names, load = tmp_path, DatasetError, (IMAGES_NAME,), load_dataset
    with pytest.raises(error, match=match) as exc:
        load(path)
    message = str(exc.value)
    assert "\n" not in message and any(name in message for name in names)


def test_empty_dataset_loads(tmp_path):
    (tmp_path / IMAGES_NAME).write_bytes(images_file((0, 3, 2, 2), 2))
    (tmp_path / LABELS_NAME).write_bytes(labels_file(0))
    images, labels = load_dataset(tmp_path)
    assert images.shape == (0, 3, 2, 2) and images.dtype == np.float64
    assert labels.shape == (0,)


dims = st.one_of(st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]),
                st.integers(0, 2**32 - 1))


@st.composite
def dataset_files(draw):
    """images.bin and labels.bin with any header values, a payload of the
    size the header asks for or of any size, and a correct checksum; each
    body may be cut anywhere."""
    shape = draw(st.tuples(dims, dims, dims, dims))
    tag = draw(st.integers(0, 5))
    size = math.prod(shape) * (TAG_DTYPES[tag].itemsize if tag in TAG_DTYPES else 1)
    exact = draw(st.booleans()) and size <= 1024
    payload = bytes(size) if exact else draw(st.binary(max_size=64))
    images = b"MNDS" + struct.pack("<5I", *shape, tag) + payload
    count = draw(st.one_of(st.just(shape[0]), dims))
    labels = b"MNLB" + struct.pack("<I", count) + (
        bytes(4 * count) if draw(st.booleans()) and count <= 256
        else draw(st.binary(max_size=16)))
    cut = draw(st.one_of(st.none(), st.integers(0, len(images))))
    if cut is not None:
        images = images[:cut]
    return reseal(images), reseal(labels)


@given(dataset_files())
@settings(max_examples=300, deadline=None)
def test_sealed_random_datasets_raise_only_dataset_errors(tmp_path_factory, files):
    # every field of a correctly checksummed dataset may hold any value: the
    # loader either returns consistent arrays or raises DatasetError
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / IMAGES_NAME).write_bytes(files[0])
    (directory / LABELS_NAME).write_bytes(files[1])
    try:
        images, labels = load_dataset(directory)
    except DatasetError:
        return
    assert images.ndim == 4 and labels.shape == (images.shape[0],)

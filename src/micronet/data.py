"""On-disk dataset format: an images file and a labels file, both
checksummed.

  images.bin: "MNDS" | u32 count | u32 channels | u32 height | u32 width
              | u32 dtype tag | payload | u32 crc32
  labels.bin: "MNLB" | u32 count | count * u32 labels | u32 crc32

Payloads are little-endian and contiguous in (n, c, h, w) order."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .weights_io import DTYPE_TAGS, TAG_DTYPES

IMAGES_MAGIC = b"MNDS"
LABELS_MAGIC = b"MNLB"
IMAGES_NAME = "images.bin"
LABELS_NAME = "labels.bin"


class DatasetError(Exception):
    """Raised for malformed or inconsistent dataset files."""


def _checked_read(path: Path, magic: bytes) -> memoryview:
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise
    if len(raw) < len(magic) + 8:
        raise DatasetError(f"{path.name}: truncated file")
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != struct.unpack("<I", raw[-4:])[0]:
        raise DatasetError(f"{path.name}: checksum mismatch")
    if raw[:4] != magic:
        raise DatasetError(f"{path.name}: bad magic")
    return memoryview(raw)[4:-4]


def _finish(path: Path, buf: bytearray) -> None:
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    path.write_bytes(bytes(buf))


def save_dataset(directory, images: np.ndarray, labels: np.ndarray) -> None:
    """Write images.bin and labels.bin under directory (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    images = np.asarray(images)
    labels = np.asarray(labels, dtype=np.uint32)
    if images.ndim != 4:
        raise DatasetError(f"images must be (n, c, h, w), got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise DatasetError("label count does not match image count")
    tag = DTYPE_TAGS.get(np.dtype(images.dtype))
    if tag is None:
        raise DatasetError(f"unsupported image dtype {images.dtype}")

    buf = bytearray(IMAGES_MAGIC)
    buf += struct.pack("<5I", images.shape[0], images.shape[1],
                       images.shape[2], images.shape[3], tag)
    buf += np.ascontiguousarray(
        images, dtype=images.dtype.newbyteorder("<")).tobytes()
    _finish(directory / IMAGES_NAME, buf)

    buf = bytearray(LABELS_MAGIC)
    buf += struct.pack("<I", len(labels))
    buf += labels.astype("<u4").tobytes()
    _finish(directory / LABELS_NAME, buf)


def load_dataset(directory) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset directory back into (images, labels) arrays."""
    directory = Path(directory)
    body = _checked_read(directory / IMAGES_NAME, IMAGES_MAGIC)
    if len(body) < 20:
        raise DatasetError("images.bin: truncated header")
    n, c, h, w, tag = struct.unpack("<5I", body[:20])
    dtype = TAG_DTYPES.get(tag)
    if dtype is None:
        raise DatasetError(f"images.bin: unknown dtype tag {tag}")
    # Python ints: an int64 product of untrusted dims can overflow
    expect = n * c * h * w * dtype.itemsize
    payload = body[20:]
    if len(payload) != expect:
        raise DatasetError(f"images.bin: payload is {len(payload)} bytes, "
                           f"expected {expect}")
    images = np.frombuffer(payload, dtype=dtype.newbyteorder("<"))
    try:
        images = images.astype(dtype).reshape(n, c, h, w)
    except ValueError as e:                            # empty, but dims too large
        raise DatasetError(f"images.bin: bad shape {(n, c, h, w)}: {e}") from None

    body = _checked_read(directory / LABELS_NAME, LABELS_MAGIC)
    count = struct.unpack("<I", body[:4])[0]
    if count != n:
        raise DatasetError(f"labels.bin: {count} labels for {n} images")
    payload = body[4:]
    if len(payload) != 4 * count:
        raise DatasetError("labels.bin: truncated payload")
    labels = np.frombuffer(payload, dtype="<u4").astype(np.uint32)
    return images, labels

"""On-disk dataset format: a directory holding an images file and a labels
file, each in the sealed container of weights_io (magic, body, CRC-32):

  images.bin: "MNDS" | u32 count | u32 channels | u32 height | u32 width
              | u32 dtype tag | payload | u32 crc32
  labels.bin: "MNLB" | u32 count | count * u32 labels | u32 crc32

Payloads are little-endian and contiguous in (n, c, h, w) order."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .weights_io import DTYPE_TAGS, _decode_array, _encode_array, _seal, _unseal

IMAGES_MAGIC = b"MNDS"
LABELS_MAGIC = b"MNLB"
IMAGES_NAME = "images.bin"
LABELS_NAME = "labels.bin"


class DatasetError(Exception):
    """Raised for malformed or inconsistent dataset files."""


def save_dataset(directory, images: np.ndarray, labels: np.ndarray) -> None:
    """Write images.bin and labels.bin under directory (created if needed).
    The labels must be integers in [0, 2^32), the range of their u32
    fields; nothing is written unless both arrays can be."""
    directory = Path(directory)
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 4:
        raise DatasetError(f"images must be (n, c, h, w), got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise DatasetError("label count does not match image count")
    tag, payload = _encode_array(images, DatasetError, IMAGES_NAME)
    if labels.size and labels.dtype.kind not in "iu":
        raise DatasetError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and not 0 <= labels.min() <= labels.max() < 2**32:
        raise DatasetError(f"labels must lie in [0, 2^32), got {labels.min()} "
                           f"to {labels.max()}")
    labels = labels.astype(np.uint32)
    directory.mkdir(parents=True, exist_ok=True)

    buf = bytearray(IMAGES_MAGIC) + struct.pack("<5I", *images.shape, tag)
    buf += payload
    _seal(directory / IMAGES_NAME, buf)

    buf = bytearray(LABELS_MAGIC) + struct.pack("<I", len(labels))
    buf += _encode_array(labels, DatasetError, LABELS_NAME)[1]
    _seal(directory / LABELS_NAME, buf)


def load_dataset(directory) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset directory back into (images, labels) arrays: on a
    little-endian host, each is a writable view of its own file's buffer."""
    directory = Path(directory)
    body = _unseal(directory / IMAGES_NAME, IMAGES_MAGIC, 20, DatasetError)
    *shape, tag = struct.unpack("<5I", body[:20])
    images, _ = _decode_array(body[20:], tag, tuple(shape), DatasetError,
                              IMAGES_NAME, whole=True)

    body = _unseal(directory / LABELS_NAME, LABELS_MAGIC, 4, DatasetError)
    count = struct.unpack("<I", body[:4])[0]
    if count != len(images):
        raise DatasetError(f"{LABELS_NAME}: {count} labels for {len(images)} images")
    labels, _ = _decode_array(body[4:], DTYPE_TAGS[np.dtype(np.uint32)],
                              (count,), DatasetError, LABELS_NAME, whole=True)
    return images, labels
